"""Comparison metrics for explanation runs and owner datasets."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .core import MalformedInput, OwnerId, OwnerPartition
from .datasets import Dataset


def jaccard(x: Iterable[int], y: Iterable[int]) -> float:
    """Jaccard similarity of two entry sets; two empty sets count as equal (1)."""
    xs, ys = frozenset(x), frozenset(y)
    if not xs and not ys:
        return 1.0
    return len(xs & ys) / len(xs | ys)


def coefficient_of_variation(values: Sequence[float]) -> float | None:
    """Population SD over mean; None when the mean is zero or nothing was given."""
    if not values:
        return None
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if mean == 0.0:
        return None
    return float(arr.std()) / mean


def size_stats(sizes: Sequence[int]) -> dict[str, float | None]:
    if not sizes:
        return {"count": 0, "mean": None, "sd": None, "cov": None}
    arr = np.asarray(sizes, dtype=np.float64)
    return {
        "count": len(sizes),
        "mean": float(arr.mean()),
        "sd": float(arr.std()),
        "cov": coefficient_of_variation(list(sizes)),
    }


def success_rate(outcomes: Iterable[tuple[str, bool, bool]]) -> float | None:
    """Fraction of completed runs that succeeded.

    Each outcome is (status, success, timed_out). Completed means status "ok"
    and no timeout; timed-out and precondition-failed runs do not count
    against the rate. None when nothing completed.
    """
    done = [s for status, s, t in outcomes if status == "ok" and not t]
    if not done:
        return None
    return sum(done) / len(done)


def wasserstein_1d(u: Sequence[float], v: Sequence[float]) -> float:
    """First Wasserstein distance between two empirical 1-D samples."""
    # Imported here: nothing else in the package needs scipy, so `import shapcf`
    # does not load it.
    from scipy.stats import wasserstein_distance

    return float(wasserstein_distance(u, v))


def owner_distance(
    dataset: Dataset,
    partition: OwnerPartition,
    a: OwnerId,
    b: OwnerId,
) -> float:
    """Mean per-feature Wasserstein distance between two owners' rows.

    Features are z-scored over the full dataset first so no single scale
    dominates; degenerate (constant) features are skipped.
    """
    rows_a = sorted(partition.entries(a))
    rows_b = sorted(partition.entries(b))
    if not rows_a or not rows_b:
        raise MalformedInput("owner_distance needs two non-empty owners")
    feats = dataset.features
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    dists = []
    for j in range(feats.shape[1]):
        if sd[j] < 1e-12:
            continue
        col = (feats[:, j] - mu[j]) / sd[j]
        dists.append(wasserstein_1d(col[rows_a].tolist(), col[rows_b].tolist()))
    if not dists:
        raise MalformedInput("owner_distance: all features are constant")
    return float(np.mean(dists))


def mean_jaccard(pairs: Sequence[tuple[Iterable[int], Iterable[int]]]) -> float | None:
    if not pairs:
        return None
    return float(np.mean([jaccard(x, y) for x, y in pairs]))
