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

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .core import MalformedInput, NonFiniteScore, check_values, is_integer, is_number
from .datasets import Dataset

_LOG_2PI = math.log(2.0 * math.pi)


class UtilityOracle:
    """Base: empty-set zero, non-negativity clamp, memoization, call counters.

    A NaN or +inf score raises NonFiniteScore instead of being clamped or
    passed on to the estimators; -inf (say, eta minus an overflowed error) is
    below every score and clamps to 0 like any negative one.

    Subclasses implement _score for one composed set, or _score_many for a
    batch of them when scoring several at once is cheaper; values() hands
    all of a call's cache misses to one _score_many call.
    """

    kind = "base"

    def __init__(self, *, cache: bool = True):
        self._cache: dict[frozenset[int], float] | None = {} if cache else None
        self.calls = 0
        self.evals = 0

    def value(self, composed: Iterable[int]) -> float:
        return self.values((composed,))[0]

    def values(self, sets: Iterable[Iterable[int]]) -> list[float]:
        """value() of each set, in order; the call's cache misses are scored together.

        The counters move as one value() call per set would move them: calls
        by one per set, evals by one per distinct miss (with cache=False, per
        non-empty set). A set that occurs twice is scored once either way.
        """
        cache = self._cache
        known = cache if cache is not None else {}
        out: list[float | None] = []
        missing: dict[frozenset[int], int] = {}  # each missed set's first position
        repeats: list[tuple[int, int]] = []  # later positions of a missed set
        for i, ids in enumerate(sets):
            if not isinstance(ids, frozenset):
                ids = frozenset(int(e) for e in ids)
            hit = known.get(ids) if ids else 0.0
            if hit is None:
                first = missing.setdefault(ids, i)
                if first != i:
                    repeats.append((i, first))
            out.append(hit)
        self.calls += len(out)
        if missing:
            self.evals += len(missing) if cache is not None else len(missing) + len(repeats)
            for (ids, i), score in zip(missing.items(), self._score_many(list(missing))):
                score = float(score)
                if math.isnan(score) or score == math.inf:
                    raise NonFiniteScore(f"{self.kind} utility scored {len(ids)} entries as {score}")
                out[i] = max(0.0, score)
                if cache is not None:
                    cache[ids] = out[i]
            for i, first in repeats:
                out[i] = out[first]
        return out

    def clear_cache(self) -> None:
        """Empty the coalition memo.

        The counters and any state built once per oracle (such as the KDE
        pool density) stay; only the memoised coalition values go.
        """
        if self._cache is not None:
            self._cache.clear()

    def _score(self, ids: frozenset[int]) -> float:
        raise NotImplementedError

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        return [self._score(ids) for ids in ids_list]


class AdditiveUtility(UtilityOracle):
    """Sum of fixed non-negative per-entry weights; duplicates count once."""

    kind = "additive"

    def __init__(self, weights: Mapping[int, float], *, cache: bool = True):
        super().__init__(cache=cache)
        self.weights = {int(e): float(w) for e, w in weights.items()}
        bad = sorted(e for e, w in self.weights.items() if w < 0 or not math.isfinite(w))
        if bad:
            raise MalformedInput(f"additive weights must be finite and >= 0, bad entries {bad[:8]}")

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        weight = self.weights.__getitem__
        try:  # fsum is correctly rounded, so the order of the entries is immaterial
            return [math.fsum(map(weight, ids)) for ids in ids_list]
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


def _restrict(dataset: Dataset, ids_list: list[frozenset[int]], axis: str) -> np.ndarray:
    """The rows or columns named by each of several equal-size sets, stacked.

    A (sets, rows, columns) array; each set's ids are taken in ascending
    order for determinism. Every slice has the layout that indexing with
    that set alone gives: C order for a row subset, F order for a column
    subset of a C-ordered table.
    """
    idx = np.array([sorted(ids) for ids in ids_list], dtype=np.intp)
    limit = len(dataset) if axis == "rows" else dataset.n_features
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise MalformedInput(f"{'row' if axis == 'rows' else 'feature'} ids out of range [0, {limit})")
    if axis == "rows":
        return dataset.features[idx]
    return np.moveaxis(dataset.features[:, idx], 0, 1)


def _check_axis(axis: str) -> str:
    if axis not in ("rows", "features"):
        raise MalformedInput(f'axis must be "rows" or "features", got {axis!r}')
    return axis


# Most float64 values one stack of sets holds: (columns x rows x sets) in a
# logistic fit, (test points x train points x sets) in a KDE evaluation. A
# values() call's sets are scored in stacks under it, and a larger set
# alone. The logistic fit keeps three arrays of this size, 512 KB each, which
# stay in cache: larger groups measured slower on sets of a thousand rows
# and more. On KDE inputs uncapped stacks raised peak memory by 8 %, and a
# 2^14 cap was slower.
_STACK_ELEMENTS = 1 << 16


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
    """sum_j ((test_ij - train_kj) / h_j)^2 for every (test i, train k) pair of each set.

    test is (sets or 1, n_test, d), train (sets, n_train, d) and h
    (sets, d). Each set's (n_test, n_train) slice is bitwise
    `(z * z).sum(axis=2)` of its own (n_test, n_train, d) array z, laid out
    as that sum is. Below 8 features numpy adds the short last axis as one
    running sum in every layout, so the sum is built from one 2-D array per
    feature, which skips the slow short-axis reduction. From 8 features
    numpy sums pairwise with 8 accumulators, and the 3-D form is used. The
    3-D form also takes any input that raises a floating-point error, so
    numpy reports each error once under the caller's error state, not once
    per feature.
    """
    d = test.shape[2]
    if d < 8:
        g, n_test, n = len(train), test.shape[1], train.shape[1]
        # The slices' order, with the sets outermost.
        c_order = _sum_order(test[0], train[0]) == "C"

        def part(j: int) -> np.ndarray:
            z = np.empty((g, n_test, n)) if c_order else np.empty((g, n, n_test)).transpose(0, 2, 1)
            np.subtract(test[:, :, j, None], train[:, None, :, j], out=z)
            z /= h[:, j, None, None]
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
    z = (test[:, :, None, :] - train[:, None, :, :]) / h[:, None, None, :]
    return (z * z).sum(axis=3)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=-1)) with scipy.special.logsumexp's arithmetic.

    Same steps as scipy 1.17: shift by the row max with the tied maxima
    (count m) taken out of the sum, log1p(s / m) + log(m) + max, and the
    direct formula on rows whose max is not finite. `a` is overwritten.
    """
    a_max = a.max(axis=-1)
    bad = ~np.isfinite(a_max)
    direct = a[bad]
    top = a == a_max[..., None]
    m = np.count_nonzero(top, axis=-1).astype(a.dtype)
    np.copyto(a, -np.inf, where=top)
    with np.errstate(divide="ignore", invalid="ignore"):
        a -= a_max[..., None]
        np.exp(a, out=a)
        s = a.sum(axis=-1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    if len(direct):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.exp(direct).sum(axis=1))
    return out


def _kde_log_density(train: np.ndarray, test: np.ndarray, floor: float) -> np.ndarray:
    """Log density of each test point under a product-Gaussian KDE of each set's train points.

    train is a (sets, n, d) stack and test a (sets or 1, n_test, d) one;
    the result is (sets, n_test). Per-dimension Scott bandwidths
    h_j = std_j * n^(-1/(d+4)), floored so that degenerate dimensions stay
    usable. Computed in log space throughout. Every reduction runs within
    one set, in the order it takes for that set alone, so a set's row has
    the same bits in any stack.
    """
    n, d = train.shape[1:]
    std = train.std(axis=1)
    h = np.maximum(std * n ** (-1.0 / (d + 4)), floor)
    sq = _scaled_sq_dist(test, train, h)
    sq *= -0.5
    sq -= np.log(h).sum(axis=1)[:, None, None]
    sq -= 0.5 * d * _LOG_2PI
    return _logsumexp_rows(sq) - math.log(n)


class KdeUtility(UtilityOracle):
    """Density-estimation usefulness of a composed set against held-out points.

    Each test point contributes an error capped at error_cap: in "pool" mode
    the absolute gap between the composed set's log density and the full
    pool's log density at that point, in "nll" mode the clipped negative log
    density itself. Utility is eta minus the total error; the default
    eta = n_test * error_cap keeps it non-negative by construction.

    The sets of one values() call are scored as stacks of equal-size sets,
    each stack of at most _STACK_ELEMENTS (test x train) pairs, and a larger
    set alone; a set's score is the same bits alone or in any batch.
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

    def _log_density(self, ids_list: list[frozenset[int]]) -> np.ndarray:
        """The (sets, n_test) log densities of equal-size sets."""
        x = _restrict(self.train, ids_list, self.axis)
        if self.axis == "rows":
            t = self.test.features[None]
        else:
            t = _restrict(self.test, ids_list, self.axis)
        return _kde_log_density(x, t, self.floor)

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        by_size: dict[int, list[int]] = {}
        for i, ids in enumerate(ids_list):
            by_size.setdefault(len(ids), []).append(i)
        scores = [0.0] * len(ids_list)
        for size, members in by_size.items():
            n = size if self.axis == "rows" else len(self.train)
            step = max(1, _STACK_ELEMENTS // (len(self.test) * n))
            for at in range(0, len(members), step):
                group = members[at : at + step]
                logp = self._log_density([ids_list[i] for i in group])
                if self.reference == "nll":
                    err = np.clip(-logp, -self.error_cap, self.error_cap)
                else:
                    err = np.minimum(np.abs(logp - self._pool_logp()), self.error_cap)
                for i, total in zip(group, err.sum(axis=1).tolist()):
                    scores[i] = self.eta - total
        return scores

    def _pool_logp(self) -> np.ndarray:
        if self._pool_cache is None:
            self._pool_cache = self._log_density([self._pool_ids()])[0]
        return self._pool_cache


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (x - mu) / sd, mu, sd


def _tree_steps(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The in-place additions, as (into, add) views, that sum a over axis 0 into a[0].

    Entries i and i + p are added, p the largest power of two below the
    length, then the first p entries are summed the same way. That is the
    pairwise tree of a padded with zeros to a power of two, so zeros
    appended to a change no bit of the sum (but the sign of a zero sum):
    a sum is the same alone and zero-padded inside a batch.
    """
    steps = []
    n = len(a)
    while n > 1:
        p = 1 << ((n - 1).bit_length() - 1)
        steps.append((a[: n - p], a[p:n]))
        n = p
    return steps


def _tree_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a over axis 0 in the order of _tree_steps; a is overwritten."""
    for into, add in _tree_steps(a):
        into += add
    return a[0]


class LogRegUtility(UtilityOracle):
    """eta minus test log-loss of a logistic model fitted on the composed set.

    Fitting is full-batch gradient descent with fixed iteration count and
    standardized inputs, which keeps scores deterministic. Single-class
    composed sets fall back to a Laplace-smoothed constant predictor rather
    than failing.

    The sets of one values() call are fitted together as padded gradient
    descents (see _fit), in groups of at most _STACK_ELEMENTS values, and a
    single set is a batch of one, so a set's score is the same bits alone or
    in any batch.
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
        check_values(
            "logistic-regression parameters",
            (
                ("eta", eta, ("a finite number", lambda v: is_number(v) and math.isfinite(v))),
                ("iters", iters, ("an integer >= 0", lambda v: is_integer(v) and v >= 0)),
                ("lr", lr, ("a finite number > 0", lambda v: is_number(v) and 0.0 < v < math.inf)),
                ("l2", l2, ("a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf)),
            ),
        )
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
        self._yt = (test.labels == self._hi).astype(np.float64)

    def _xy(self, ids: frozenset[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.axis == "rows":
            idx = np.array(sorted(ids), dtype=np.intp)
            x = self.train.features[idx]
            y = (self.train.labels[idx] == self._hi).astype(np.float64)
            xt = self.test.features
        else:
            x = _restrict(self.train, [ids], "features")[0]
            y = (self.train.labels == self._hi).astype(np.float64)
            xt = _restrict(self.test, [ids], "features")[0]
        return x, y, xt

    def _size(self, ids: frozenset[int]) -> tuple[int, int]:
        """(rows, features + bias) of the set's fit."""
        if self.axis == "rows":
            return len(ids), self.train.n_features + 1
        return len(self.train), len(ids) + 1

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        # Largest sets first, so a group's sets are of like sizes and each
        # group's padded arrays stay under _STACK_ELEMENTS.
        sizes = [self._size(ids) for ids in ids_list]
        order = sorted(range(len(ids_list)), key=sizes.__getitem__, reverse=True)
        scores = [0.0] * len(ids_list)
        at = 0
        while at < len(order):
            rows, width = sizes[order[at]]
            group = order[at : at + max(1, _STACK_ELEMENTS // (rows * width))]
            at += len(group)
            fits, tests = [], []
            for i in group:
                x, y, xt = self._xy(ids_list[i])
                if len(np.unique(y)) < 2:
                    p = (y.sum() + 1.0) / (len(y) + 2.0)
                    scores[i] = self._log_loss_score(np.full(len(self._yt), p))
                else:
                    xs, mu, sd = _standardize(x)
                    fits.append((xs, y))
                    tests.append((i, xt, mu, sd))
            if fits:
                # Predictions are made set by set, so they are batch-invariant
                # whatever the order of their sums; _tree_sum keeps them off BLAS.
                for (i, xt, mu, sd), v in zip(tests, self._fit(fits).T):
                    d = xt.shape[1]
                    xv = np.empty((d + 1, len(xt)))
                    xv[:d] = ((xt - mu) / sd).T
                    xv[d] = 1.0
                    xv *= v[: d + 1, None]
                    z = _tree_sum(xv)
                    with np.errstate(over="ignore"):  # exp -> inf gives p = 0, its limit
                        e = np.exp(z)
                    scores[i] = self._log_loss_score(1.0 / (1.0 + e))
        return scores

    def _fit(self, fits: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """The weights of all the sets' gradient descents, negated, one column per set.

        Each set comes as (standardized x, labels), and its model has a bias
        column after its features. Per set the step is
        w <- w - lr * (x^T (p - y) / m + l2 * w), p = sigmoid(x w), with no
        penalty on the bias. It runs here on v = -w, which saves a negation:
        v <- v * (1 - lr * l2) + (lr / m) * x^T (p - y), p = 1 / (1 + exp(x v)).
        No BLAS is used: its kernels, and so its rounding, depend on the
        shapes. The sets sit in one (columns, rows, sets) array, zero-padded
        to the group's most columns and rows, and both x v and x^T (p - y)
        are summed in the _tree_steps order, which the padding leaves bitwise
        alone; a padded row's bias is 0 too, so all its products are 0.
        """
        m, b = max(len(y) for _, y in fits), len(fits)
        width = max(xs.shape[1] for xs, _ in fits) + 1
        x = np.zeros((width, m, b))
        y = np.zeros((m, b))
        step = np.empty(b)  # lr / m
        keep = np.ones((width, b))  # 1 - lr * l2 on the features
        for j, (xs, yj) in enumerate(fits):
            d = xs.shape[1]
            x[:d, : len(yj), j] = xs.T
            x[d, : len(yj), j] = 1.0
            y[: len(yj), j] = yj
            step[j] = self.lr / len(yj)
            keep[:d, j] = 1.0 - self.lr * self.l2
        # Each sum runs over the outer axis of its own copy of x, so that every
        # step of _tree_steps adds contiguous blocks: columns outermost for
        # x v, rows outermost for x^T (p - y). The two products share memory.
        x_rows = np.ascontiguousarray(x.transpose(1, 0, 2))
        prod = np.empty(x.size)
        by_col, by_row = prod.reshape(x.shape), prod.reshape(x_rows.shape)
        col_steps, row_steps = _tree_steps(by_col), _tree_steps(by_row)
        v = np.zeros(keep.shape)
        r = np.empty_like(y)
        z, grad, v_cols, r_rows = by_col[0], by_row[0], v[:, None], r[:, None]
        # exp(x v) may overflow to inf, and then p = 1 / (1 + inf) = 0 is the
        # limit itself. Overflow is ignored for the whole loop rather than per
        # step; nothing else in it overflows short of weights near 1e308.
        with np.errstate(over="ignore"):
            for _ in range(self.iters):
                np.multiply(x, v_cols, out=by_col)
                for into, add in col_steps:
                    into += add
                np.exp(z, out=r)
                r += 1.0
                np.divide(1.0, r, out=r)
                r -= y
                np.multiply(x_rows, r_rows, out=by_row)
                for into, add in row_steps:
                    into += add
                grad *= step
                v *= keep
                v += grad
        return v

    def _log_loss_score(self, pt: np.ndarray) -> float:
        eps = 1e-12
        pt = np.clip(pt, eps, 1.0 - eps)
        yt = self._yt
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
            x = _restrict(self.train, [ids], "features")[0]
            y = self.train.labels
            xt = _restrict(self.test, [ids], "features")[0]
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
        entry_id = (
            "a non-negative integer",
            lambda k: is_integer(k) and k >= 0 or isinstance(k, str) and k.isdecimal(),
        )
        check_values(
            "additive weights",
            [("entry id", k, entry_id) for k in weights]
            + [(f"weights[{k!r}]", v, ("a number", is_number)) for k, v in weights.items()],
        )
        return AdditiveUtility({int(k): v for k, v in weights.items()}, cache=cache)
    if kind == "set-cover":
        try:
            universe, subsets = inner["universe"], inner["subsets"]
        except KeyError as exc:
            raise MalformedInput(f"set-cover utility needs {exc.args[0]!r}") from None
        seq = (list, tuple)
        ints = ("a list of integers", lambda v: isinstance(v, seq) and all(map(is_integer, v)))
        items = subsets if isinstance(subsets, seq) else ()
        check_values(
            "set-cover utility",
            [("universe", universe, ints), ("subsets", subsets, ("a list", lambda v: isinstance(v, seq)))]
            + [(f"subsets[{i}]", s, ints) for i, s in enumerate(items)],
        )
        game = SetCoverGame(frozenset(universe), tuple(frozenset(s) for s in subsets))
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

