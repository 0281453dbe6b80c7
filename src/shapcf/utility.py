"""Utility oracles over composed entry sets.

A utility maps a composed set of entry ids to a non-negative score, with
U(empty) = 0 exactly. Scores are deterministic functions of the composed set,
so results are memoized per oracle. Two synthetic families (additive,
set-cover) have closed forms; three data-backed families (kde, logistic
regression, linear regression) measure how well a model fitted on the composed
training subset serves a held-out test set, reported as a margin eta minus the
test error so that more useful data scores higher.

Data-backed oracles accept an axis: "rows" treats entry ids as training-row
positions (all feature columns used), "features" treats them as feature-column
positions (all training rows used).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .core import MalformedInput, NonFiniteScore
from .datasets import Dataset

log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)


class UtilityOracle:
    """Base: empty-set zero, non-negativity clamp, memoization, call counters.

    A NaN or +inf score raises NonFiniteScore instead of being clamped or
    passed on to the estimators; -inf (say, eta minus an overflowed error) is
    below every score and clamps to 0 like any negative one.
    """

    kind = "base"

    def __init__(self, *, cache: bool = True):
        self._cache: dict[frozenset[int], float] | None = {} if cache else None
        self.calls = 0
        self.evals = 0

    def value(self, composed: Iterable[int]) -> float:
        ids = composed if isinstance(composed, frozenset) else frozenset(int(e) for e in composed)
        self.calls += 1
        if not ids:
            return 0.0
        if self._cache is not None:
            hit = self._cache.get(ids)
            if hit is not None:
                return hit
        self.evals += 1
        score = float(self._score(ids))
        if math.isnan(score) or score == math.inf:
            raise NonFiniteScore(f"{self.kind} utility scored {len(ids)} entries as {score}")
        val = max(0.0, score)
        if self._cache is not None:
            self._cache[ids] = val
        return val

    def _score(self, ids: frozenset[int]) -> float:
        raise NotImplementedError


class AdditiveUtility(UtilityOracle):
    """Sum of fixed non-negative per-entry weights; duplicates count once."""

    kind = "additive"

    def __init__(self, weights: Mapping[int, float], *, cache: bool = True):
        super().__init__(cache=cache)
        self.weights = {int(e): float(w) for e, w in weights.items()}
        bad = sorted(e for e, w in self.weights.items() if w < 0 or not math.isfinite(w))
        if bad:
            raise MalformedInput(f"additive weights must be finite and >= 0, bad entries {bad[:8]}")

    def _score(self, ids: frozenset[int]) -> float:
        try:
            return math.fsum(self.weights[e] for e in ids)
        except KeyError as exc:
            raise MalformedInput(f"no weight for entry {exc.args[0]}") from None


@dataclass(frozen=True)
class SetCoverGame:
    """A set-cover instance: universe of items and 1-indexed candidate subsets."""

    universe: frozenset[int]
    subsets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", frozenset(int(u) for u in self.universe))
        object.__setattr__(
            self, "subsets", tuple(frozenset(int(v) for v in s) for s in self.subsets)
        )
        if not self.universe:
            raise MalformedInput("set-cover universe is empty")
        stray = frozenset().union(*self.subsets) - self.universe if self.subsets else frozenset()
        if stray:
            raise MalformedInput(f"subset items {sorted(stray)} outside the universe")

    @property
    def m(self) -> int:
        return len(self.universe)

    def covers(self, ids: frozenset[int]) -> bool:
        picked = frozenset().union(*(self.subsets[i - 1] for i in ids)) if ids else frozenset()
        return picked == self.universe

    def encode(self, ids: frozenset[int]) -> float:
        """Fractional tie-breaker: sum of 2^i / 2^(m+1) over picked indices i."""
        return math.fsum(2.0 ** i for i in ids) / 2.0 ** (self.m + 1)


class SetCoverUtility(UtilityOracle):
    """0 for non-covering collections, else m - |collection| + encode(collection).

    Smaller covers score higher; the fractional encoding makes every collection's
    value distinct. Entry ids are 1-based subset indices.
    """

    kind = "set-cover"

    def __init__(self, game: SetCoverGame, *, cache: bool = True):
        super().__init__(cache=cache)
        self.game = game

    def _score(self, ids: frozenset[int]) -> float:
        r = len(self.game.subsets)
        stray = sorted(i for i in ids if i < 1 or i > r)
        if stray:
            raise MalformedInput(f"subset indices {stray[:8]} outside 1..{r}")
        if not self.game.covers(ids):
            return 0.0
        return self.game.m - len(ids) + self.game.encode(ids)


def _restrict(dataset: Dataset, ids: frozenset[int], axis: str) -> np.ndarray:
    """Rows or columns named by ids, in ascending id order for determinism."""
    idx = np.array(sorted(ids), dtype=np.intp)
    if axis == "rows":
        if len(ids) and (idx[0] < 0 or idx[-1] >= len(dataset)):
            raise MalformedInput(f"row ids out of range [0, {len(dataset)})")
        return dataset.features[idx]
    if len(ids) and (idx[0] < 0 or idx[-1] >= dataset.n_features):
        raise MalformedInput(f"feature ids out of range [0, {dataset.n_features})")
    return dataset.features[:, idx]


def _check_axis(axis: str) -> str:
    if axis not in ("rows", "features"):
        raise MalformedInput(f'axis must be "rows" or "features", got {axis!r}')
    return axis


def _sum_order(test: np.ndarray, train: np.ndarray) -> str:
    """Memory order ("C" or "F") numpy gives test[:, None, :] - train[None, :, :].

    The order is that of the test and train axes; a sum over the feature
    axis keeps it. numpy's iterator is asked directly: it allocates the array
    but computes nothing.
    """
    out = np.nditer(
        [test[:, None, :], train[None, :, :], None],
        flags=["zerosize_ok"],
        op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
    ).operands[2]
    s_test, s_train = (abs(s) if n > 1 else None for s, n in zip(out.strides[:2], out.shape[:2]))
    return "F" if s_test is not None and s_train is not None and s_test < s_train else "C"


def _scaled_sq_dist(test: np.ndarray, train: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_j ((test_ij - train_kj) / h_j)^2 for every (test i, train k) pair.

    Bitwise `(z * z).sum(axis=2)` of the (n_test, n_train, d) array z, laid
    out as that sum is. Below 8 features numpy adds the short last axis as
    one running sum in every layout, so the sum is built from one 2-D array
    per feature, which skips the slow short-axis reduction. From 8 features
    numpy sums pairwise with 8 accumulators, and the 3-D form is used. The
    3-D form also takes any input that raises a floating-point error, so
    numpy reports each error once under the caller's error state, not once
    per feature.
    """
    d = test.shape[1]
    if d < 8:
        order = _sum_order(test, train)

        def part(j: int) -> np.ndarray:
            z = np.subtract(test[:, j, None], train[None, :, j], order=order)
            z /= h[j]
            z *= z
            return z

        try:
            with np.errstate(all="raise"):
                acc = part(0)
                for j in range(1, d):
                    acc += part(j)
                return acc
        except FloatingPointError:
            pass
    z = (test[:, None, :] - train[None, :, :]) / h
    return (z * z).sum(axis=2)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) with scipy.special.logsumexp's arithmetic.

    Same steps as scipy 1.17: shift by the row max with the tied maxima
    (count m) taken out of the sum, log1p(s / m) + log(m) + max, and the
    direct formula on rows whose max is not finite. `a` is overwritten.
    """
    a_max = a.max(axis=1)
    bad = ~np.isfinite(a_max)
    direct = a[bad]
    top = a == a_max[:, None]
    m = np.count_nonzero(top, axis=1).astype(a.dtype)
    np.copyto(a, -np.inf, where=top)
    with np.errstate(divide="ignore", invalid="ignore"):
        a -= a_max[:, None]
        np.exp(a, out=a)
        s = a.sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    if len(direct):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.exp(direct).sum(axis=1))
    return out


def _kde_log_density(train: np.ndarray, test: np.ndarray, floor: float) -> np.ndarray:
    """Log density of each test point under a product-Gaussian KDE of train.

    Per-dimension Scott bandwidths h_j = std_j * n^(-1/(d+4)), floored so that
    degenerate dimensions stay usable. Computed in log space throughout.
    """
    n, d = train.shape
    std = train.std(axis=0)
    h = np.maximum(std * n ** (-1.0 / (d + 4)), floor)
    sq = _scaled_sq_dist(test, train, h)
    sq *= -0.5
    sq -= np.log(h).sum()
    sq -= 0.5 * d * _LOG_2PI
    return _logsumexp_rows(sq) - math.log(n)


class KdeUtility(UtilityOracle):
    """Density-estimation usefulness of a composed set against held-out points.

    Each test point contributes an error capped at error_cap: in "pool" mode
    the absolute gap between the composed set's log density and the full
    pool's log density at that point, in "nll" mode the clipped negative log
    density itself. Utility is eta minus the total error; the default
    eta = n_test * error_cap keeps it non-negative by construction.
    """

    kind = "kde"

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        *,
        eta: float | None = None,
        bandwidth_floor: float = 1e-3,
        error_cap: float = 100.0,
        reference: str = "pool",
        axis: str = "rows",
        cache: bool = True,
    ):
        super().__init__(cache=cache)
        if reference not in ("pool", "nll"):
            raise MalformedInput(f'kde reference must be "pool" or "nll", got {reference!r}')
        self.train = train
        self.test = test
        self.floor = float(bandwidth_floor)
        self.error_cap = float(error_cap)
        self.reference = reference
        self.axis = _check_axis(axis)
        self.eta = float(eta) if eta is not None else len(test) * self.error_cap
        self._pool_cache: np.ndarray | None = None

    def _pool_ids(self) -> frozenset[int]:
        if self.axis == "rows":
            return frozenset(range(len(self.train)))
        return frozenset(range(self.train.n_features))

    def _log_density(self, ids: frozenset[int]) -> np.ndarray:
        x = _restrict(self.train, ids, self.axis)
        if self.axis == "rows":
            t = self.test.features
        else:
            t = _restrict(self.test, ids, self.axis)
        return _kde_log_density(x, t, self.floor)

    def _score(self, ids: frozenset[int]) -> float:
        logp = self._log_density(ids)
        if self.reference == "nll":
            err = np.clip(-logp, -self.error_cap, self.error_cap)
        else:
            err = np.minimum(np.abs(logp - self._pool_logp()), self.error_cap)
        return self.eta - float(err.sum())

    def _pool_logp(self) -> np.ndarray:
        if self._pool_cache is None:
            self._pool_cache = self._log_density(self._pool_ids())
        return self._pool_cache


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (x - mu) / sd, mu, sd


class LogRegUtility(UtilityOracle):
    """eta minus test log-loss of a logistic model fitted on the composed set.

    Fitting is full-batch gradient descent with fixed iteration count and
    standardized inputs, which keeps scores deterministic. Single-class
    composed sets fall back to a Laplace-smoothed constant predictor rather
    than failing.
    """

    kind = "logistic-regression"

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        *,
        eta: float = 20.0,
        iters: int = 200,
        lr: float = 0.5,
        l2: float = 1e-3,
        axis: str = "rows",
        cache: bool = True,
    ):
        super().__init__(cache=cache)
        if train.labels is None or test.labels is None:
            raise MalformedInput("logistic-regression utility needs a label column")
        self.train = train
        self.test = test
        self.eta = float(eta)
        self.iters = int(iters)
        self.lr = float(lr)
        self.l2 = float(l2)
        self.axis = _check_axis(axis)
        classes = np.unique(np.concatenate([train.labels, test.labels]))
        if len(classes) > 2:
            raise MalformedInput(f"labels must be binary, found {len(classes)} classes")
        self._hi = classes[-1]

    def _xy(self, ids: frozenset[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self.axis == "rows":
            idx = np.array(sorted(ids), dtype=np.intp)
            x = self.train.features[idx]
            y = (self.train.labels[idx] == self._hi).astype(np.float64)
            xt = self.test.features
        else:
            x = _restrict(self.train, ids, "features")
            y = (self.train.labels == self._hi).astype(np.float64)
            xt = _restrict(self.test, ids, "features")
        yt = (self.test.labels == self._hi).astype(np.float64)
        return x, y, xt, yt

    def _score(self, ids: frozenset[int]) -> float:
        x, y, xt, yt = self._xy(ids)
        eps = 1e-12
        if len(np.unique(y)) < 2:
            p = (y.sum() + 1.0) / (len(y) + 2.0)
            pt = np.full(len(yt), p)
        else:
            xs, mu, sd = _standardize(x)
            xs = np.hstack([xs, np.ones((len(xs), 1))])
            w = np.zeros(xs.shape[1])
            for _ in range(self.iters):
                p = 1.0 / (1.0 + np.exp(-xs @ w))
                grad = xs.T @ (p - y) / len(y)
                grad[:-1] += self.l2 * w[:-1]
                w -= self.lr * grad
            xts = np.hstack([(xt - mu) / sd, np.ones((len(xt), 1))])
            pt = 1.0 / (1.0 + np.exp(-xts @ w))
        pt = np.clip(pt, eps, 1.0 - eps)
        loss = float(-(yt * np.log(pt) + (1.0 - yt) * np.log(1.0 - pt)).mean())
        return self.eta - loss


class LinRegUtility(UtilityOracle):
    """eta minus test mean squared error of least squares on the composed set.

    Default eta is max(1, 4x the MSE of predicting the pool label mean), so a
    plainly informative subset scores positive and the trivial predictor sits
    well inside the range.
    """

    kind = "linear-regression"

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        *,
        eta: float | None = None,
        axis: str = "rows",
        cache: bool = True,
    ):
        super().__init__(cache=cache)
        if train.labels is None or test.labels is None:
            raise MalformedInput("linear-regression utility needs a label column")
        self.train = train
        self.test = test
        self.axis = _check_axis(axis)
        if eta is not None:
            self.eta = float(eta)
        else:
            base = float(((test.labels - train.labels.mean()) ** 2).mean())
            self.eta = max(1.0, 4.0 * base)

    def _score(self, ids: frozenset[int]) -> float:
        if self.axis == "rows":
            idx = np.array(sorted(ids), dtype=np.intp)
            x = self.train.features[idx]
            y = self.train.labels[idx]
            xt = self.test.features
        else:
            x = _restrict(self.train, ids, "features")
            y = self.train.labels
            xt = _restrict(self.test, ids, "features")
        xb = np.hstack([x, np.ones((len(x), 1))])
        w, *_ = np.linalg.lstsq(xb, y, rcond=None)
        pred = np.hstack([xt, np.ones((len(xt), 1))]) @ w
        mse = float(((pred - self.test.labels) ** 2).mean())
        return self.eta - mse


_KIND_ALIASES = {
    "additive": "additive",
    "set-cover": "set-cover",
    "setcover": "set-cover",
    "kde": "kde",
    "logreg": "logistic-regression",
    "logistic-regression": "logistic-regression",
    "linreg": "linear-regression",
    "linear-regression": "linear-regression",
}

DATA_BACKED_KINDS = frozenset({"kde", "logistic-regression", "linear-regression"})


def normalize_kind(kind: str) -> str:
    key = str(kind).strip().lower().replace("_", "-").replace(" ", "-")
    if key not in _KIND_ALIASES:
        raise MalformedInput(f"unknown utility kind {kind!r}")
    return _KIND_ALIASES[key]


def unwrap_config(cfg: dict) -> dict:
    """Accept either the bare kind object or a {"utility": {...}} wrapper."""
    if not isinstance(cfg, dict):
        raise MalformedInput("utility config must be a JSON object")
    inner = cfg.get("utility", cfg)
    if not isinstance(inner, dict) or "kind" not in inner:
        raise MalformedInput('utility config needs a "kind" field')
    return inner


def make_oracle(
    cfg: dict,
    train: Dataset | None = None,
    test: Dataset | None = None,
    *,
    cache: bool = True,
) -> UtilityOracle:
    """Build a utility oracle from its JSON config.

    Data-backed kinds require train and test datasets; synthetic kinds are
    fully described by the config.
    """
    inner = unwrap_config(cfg)
    kind = normalize_kind(inner["kind"])
    if kind == "additive":
        weights = inner.get("weights")
        if not isinstance(weights, dict):
            raise MalformedInput('additive utility needs a "weights" object')
        return AdditiveUtility({int(k): float(v) for k, v in weights.items()}, cache=cache)
    if kind == "set-cover":
        try:
            game = SetCoverGame(
                universe=frozenset(inner["universe"]),
                subsets=tuple(frozenset(s) for s in inner["subsets"]),
            )
        except KeyError as exc:
            raise MalformedInput(f"set-cover utility needs {exc.args[0]!r}") from None
        return SetCoverUtility(game, cache=cache)
    if train is None or test is None:
        raise MalformedInput(f"utility kind {kind!r} needs train and test datasets")
    axis = inner.get("axis", "rows")
    if kind == "kde":
        return KdeUtility(
            train,
            test,
            eta=inner.get("eta"),
            bandwidth_floor=inner.get("bandwidth_floor", 1e-3),
            error_cap=inner.get("error_cap", 100.0),
            reference=inner.get("reference", "pool"),
            axis=axis,
            cache=cache,
        )
    if kind == "logistic-regression":
        return LogRegUtility(
            train,
            test,
            eta=inner.get("eta", 20.0),
            iters=inner.get("iters", 200),
            lr=inner.get("lr", 0.5),
            l2=inner.get("l2", 1e-3),
            axis=axis,
            cache=cache,
        )
    return LinRegUtility(train, test, eta=inner.get("eta"), axis=axis, cache=cache)


def audit_monotonicity(
    oracle: UtilityOracle,
    universe: Iterable[int],
    *,
    n_pairs: int = 100,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> list[tuple[frozenset[int], frozenset[int], float]]:
    """Empirical monotonicity check on random nested pairs D1 subset of D2.

    Returns (D1, D2, gap) for every pair with U(D1) > U(D2) + tol; gaps are
    also logged. Data-backed utilities are only approximately monotone, so
    callers choose the tolerance that matters for them.
    """
    ids = sorted(int(e) for e in universe)
    if len(ids) < 2:
        raise MalformedInput("monotonicity audit needs at least 2 entries")
    violations: list[tuple[frozenset[int], frozenset[int], float]] = []
    for _ in range(n_pairs):
        hi = int(rng.integers(1, len(ids) + 1))
        d2 = rng.choice(len(ids), size=hi, replace=False)
        lo = int(rng.integers(0, hi))
        d1 = rng.choice(d2, size=lo, replace=False) if lo else np.empty(0, dtype=np.intp)
        big = frozenset(ids[i] for i in d2)
        small = frozenset(ids[i] for i in d1)
        gap = oracle.value(small) - oracle.value(big)
        if gap > tol:
            log.warning(
                "monotonicity violation: |D1|=%d |D2|=%d gap=%.6g", len(small), len(big), gap
            )
            violations.append((small, big, gap))
    return violations
