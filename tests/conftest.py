"""Shared fixtures: synthetic datasets and verified set-cover instances."""

from __future__ import annotations

import numpy as np
import pytest

from shapcf import harness
from shapcf.core import OwnerPartition
from shapcf.datasets import Dataset
from shapcf.utility import AdditiveUtility, SetCoverGame, SetCoverUtility, UtilityOracle

from oracles import all_minimum_covers

# Monthly row counts of the bundled booking-style fixture (sums to 800).
MONTH_SIZES = [25, 37, 52, 45, 59, 61, 65, 79, 105, 117, 73, 82]

BOSTON_FEATURES = (
    "CRIM", "ZN", "INDUS", "CHAS", "NOX", "RM", "AGE",
    "DIS", "RAD", "TAX", "PTRATIO", "B", "LSTAT",
)


def random_games(seed: int, count: int, n_lo: int = 2, n_hi: int = 6, pool: int = 10):
    """Mixed additive (overlapping owners) and set-cover games for properties."""
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        if rng.random() < 0.5:
            weights = {i: float(w) for i, w in enumerate(rng.uniform(0.0, 5.0, pool))}
            owners = {}
            for i in range(n):
                size = int(rng.integers(0, pool + 1))
                owners[f"O{i}"] = frozenset(
                    int(v) for v in rng.choice(pool, size=size, replace=False)
                )
            games.append((OwnerPartition(owners), AdditiveUtility(weights)))
        else:
            m = int(rng.integers(2, 6))
            r = int(rng.integers(2, m + 1))
            universe = frozenset(range(1, m + 1))
            subsets = tuple(
                frozenset(
                    int(v) + 1
                    for v in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
                )
                for _ in range(r)
            )
            if frozenset().union(*subsets) != universe:
                continue
            owners = {}
            for i in range(n):
                size = int(rng.integers(0, r + 1))
                owners[f"O{i}"] = frozenset(
                    int(v) + 1 for v in rng.choice(r, size=size, replace=False)
                )
            games.append((OwnerPartition(owners), SetCoverUtility(SetCoverGame(universe, subsets))))
    return games


@pytest.fixture
def values_calls(monkeypatch) -> list[list[frozenset[int]]]:
    """The sets of every oracle call the test makes, one list per call.

    A values() call is recorded as its sets, and a gaps() call as the sets
    its gaps stand for: (base + x, base + y) for each base and pair, an
    empty y leaving the base itself, in the one values() call the generic
    gaps makes of them (which is not recorded again). So the additive
    oracle's gap path, which builds no union, shows the traffic of the
    generic one.
    """
    calls: list[list[frozenset[int]]] = []
    inside = [False]
    values = UtilityOracle.values

    def values_spy(oracle, sets):
        sets = list(sets)
        if not inside[0]:
            calls.append(sets)
        return values(oracle, sets)

    def gaps_spy(gaps):
        def spy(oracle, jobs):
            if inside[0]:
                return gaps(oracle, jobs)
            calls.append(
                [s for bases, pairs in jobs for x, y in pairs for base in bases for s in (base | x, base | y if y else base)]
            )
            inside[0] = True
            try:
                return gaps(oracle, jobs)
            finally:
                inside[0] = False

        return spy

    monkeypatch.setattr(UtilityOracle, "values", values_spy)
    for cls in (UtilityOracle, AdditiveUtility):
        monkeypatch.setattr(cls, "gaps", gaps_spy(cls.gaps))
    return calls


class MemoAdditive(AdditiveUtility):
    """An additive oracle on the generic gap path: every union goes through values() and its memo."""

    gaps = UtilityOracle.gaps


def on_memo_path(oracle: UtilityOracle) -> UtilityOracle:
    """A MemoAdditive with an additive oracle's weights and cache setting; any other oracle as it is."""
    if isinstance(oracle, AdditiveUtility):
        return MemoAdditive(oracle.weights, cache=oracle._cache is not None)
    return oracle


def make_blobs(n_rows: int, n_features: int = 4, seed: int = 0, sep: float = 2.0) -> Dataset:
    """Two separable Gaussian clusters with binary labels."""
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    centers = np.vstack([np.full(n_features, -sep / 2), np.full(n_features, sep / 2)])
    feats = np.vstack([
        rng.normal(centers[0], 1.0, size=(half, n_features)),
        rng.normal(centers[1], 1.0, size=(n_rows - half, n_features)),
    ])
    labels = np.concatenate([np.zeros(half), np.ones(n_rows - half)])
    order = rng.permutation(n_rows)
    return Dataset(
        features=feats[order],
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        labels=labels[order],
        label_name="y",
    )


@pytest.fixture(scope="session")
def booking_dataset() -> Dataset:
    """800 booking-style rows grouped by month with skewed monthly volumes."""
    rng = np.random.default_rng(2026)
    rows = []
    labels = []
    groups = []
    for month_idx, size in enumerate(MONTH_SIZES):
        month = f"{month_idx + 1:02d}"
        season = np.sin(2 * np.pi * month_idx / 12.0)
        lead = rng.gamma(shape=2.0, scale=30.0 + 10.0 * season, size=size)
        rate = rng.normal(100.0 + 25.0 * season, 20.0, size=size)
        stay = rng.integers(1, 8, size=size).astype(float)
        guests = rng.integers(1, 5, size=size).astype(float)
        logits = 0.8 * season - 0.01 * (lead - 60.0) + 0.005 * (rate - 100.0)
        y = (rng.random(size) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
        rows.append(np.column_stack([lead, rate, stay, guests]))
        labels.append(y)
        groups.extend([month] * size)
    return Dataset(
        features=np.vstack(rows),
        feature_names=("lead_time", "rate", "stay_nights", "guests"),
        labels=np.concatenate(labels),
        label_name="booking_status",
        groups=tuple(groups),
        group_name="month",
    )


@pytest.fixture(scope="session")
def housing_dataset() -> Dataset:
    """Housing-style table: 13 named features, linear-ish MEDV target."""
    rng = np.random.default_rng(7)
    n = 120
    feats = rng.normal(0.0, 1.0, size=(n, len(BOSTON_FEATURES)))
    feats[:, BOSTON_FEATURES.index("CHAS")] = (rng.random(n) < 0.1).astype(float)
    rm = feats[:, BOSTON_FEATURES.index("RM")]
    lstat = feats[:, BOSTON_FEATURES.index("LSTAT")]
    ptr = feats[:, BOSTON_FEATURES.index("PTRATIO")]
    medv = 22.0 + 5.0 * rm - 4.0 * lstat - 2.0 * ptr + rng.normal(0.0, 1.0, n)
    return Dataset(
        features=feats,
        feature_names=BOSTON_FEATURES,
        labels=medv,
        label_name="MEDV",
    )


def two_owner_cover_partition(game: SetCoverGame) -> OwnerPartition:
    """Owner A holds every candidate subset, owner B holds nothing."""
    return OwnerPartition({
        "A": frozenset(range(1, len(game.subsets) + 1)),
        "B": frozenset(),
    })


def build_cover_instances(
    n_instances: int, seed: int, *, m_max: int = 6
) -> list[tuple[SetCoverGame, frozenset[int]]]:
    """Set-cover games with a verified unique minimum cover.

    Instances are rejection-sampled, then checked exhaustively: exactly one
    minimum cover, and the remaining subsets either cannot cover on their own
    or outnumber twice the cover (so the first ranking flip in the two-owner
    reduction happens exactly at the minimum cover).
    """
    rng = np.random.default_rng(seed)
    out: list[tuple[SetCoverGame, frozenset[int]]] = []
    while len(out) < n_instances:
        m = int(rng.integers(4, m_max + 1))
        r = int(rng.integers(3, m + 1))
        universe = frozenset(range(1, m + 1))
        subsets = []
        for _ in range(r):
            size = int(rng.integers(1, m))
            subsets.append(frozenset(int(v) + 1 for v in rng.choice(m, size=size, replace=False)))
        union = frozenset().union(*subsets)
        if union != universe:
            continue
        covers = all_minimum_covers(universe, subsets)
        if len(covers) != 1:
            continue
        cstar = covers[0]
        c = len(cstar)
        if c >= r:
            continue
        rest = frozenset(range(1, r + 1)) - cstar
        rest_union = frozenset().union(*(subsets[i - 1] for i in rest)) if rest else frozenset()
        if rest_union == universe and r < 2 * c + 1:
            continue
        out.append((SetCoverGame(universe=universe, subsets=tuple(subsets)), cstar))
    return out


@pytest.fixture(scope="session")
def cover_instances() -> list[tuple[SetCoverGame, frozenset[int]]]:
    return build_cover_instances(10, seed=404)


def serve_datasets(monkeypatch, datasets) -> None:
    """Have run_experiment take `datasets`, a (train, test) pair, in place of loading the config's files.

    None leaves the loading as it is.
    """
    if datasets is not None:
        monkeypatch.setattr(harness, "_load_data", lambda cfg: datasets)
