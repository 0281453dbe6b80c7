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

_RULES holds each kind's config keys and their values' rules, and
check_config checks a config by it without data. ExperimentConfig, the CLI
(before it reads a data file), make_oracle and the constructors (on their
own arguments) run it; a constructor then checks what needs the data.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import reprlib
import sys
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import MalformedInput, NonFiniteScore, Rule, entry_ids, is_integer, is_number
from .datasets import Dataset

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

_FINITE: Rule = ("a finite number", lambda v: is_number(v) and math.isfinite(v))
_FINITE_OR_NULL: Rule = ("a finite number or null", lambda v: v is None or _FINITE[1](v))
_POSITIVE: Rule = ("a finite number > 0", lambda v: is_number(v) and 0.0 < v < math.inf)
_NON_NEGATIVE: Rule = ("a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf)
_AXIS: Rule = ('"rows" or "features"', lambda v: v in ("rows", "features"))


def _weights_ok(weights: object) -> bool:
    """Whether weights maps entry ids to finite numbers >= 0 whose sum does not overflow.

    An id is an integer >= 0 or, as a JSON key, its decimal string. Float
    and int weights skip the per-weight is_number call. As no weight is
    negative, the sum overflows exactly when math.fsum's total does.
    """
    if not isinstance(weights, Mapping) or not all(
        e.isdecimal() if isinstance(e, str) else is_integer(e) and e >= 0 for e in weights
    ):
        return False
    values = list(weights.values())
    if not set(map(type, values)) <= {float, int} and not all(map(is_number, values)):
        return False
    try:
        return min(values, default=0.0) >= 0.0 and math.isfinite(math.fsum(values))
    except OverflowError:  # an int weight past the largest float
        return False


def _is_ints(v: object) -> bool:
    return isinstance(v, (list, tuple, set, frozenset)) and all(map(is_integer, v))


# Each utility kind's config keys besides "kind" and "label" (the data file's
# label column), and the rule each value must meet. A synthetic kind needs
# every key; a data-backed kind's oracle holds the defaults of the keys a
# config leaves out. README's Utility section lists this table.
_RULES: dict[str, dict[str, Rule]] = {
    "additive": {"weights": ("an object of entry ids (integers >= 0) to finite numbers >= 0 with no overflowing sum",
                             _weights_ok)},
    "set-cover": {
        "universe": ("a non-empty list of integers", lambda v: _is_ints(v) and len(v) > 0),
        "subsets": ("a list of lists of integers in the universe",
                    lambda v: isinstance(v, (list, tuple)) and all(map(_is_ints, v))),
    },
    "kde": {"eta": _FINITE_OR_NULL, "bandwidth_floor": _NON_NEGATIVE, "error_cap": _POSITIVE,
            "reference": ('"pool" or "nll"', lambda v: v in ("pool", "nll")), "axis": _AXIS},
    "logistic-regression": {"eta": _FINITE, "iters": ("an integer >= 0", lambda v: is_integer(v) and v >= 0),
                            "lr": _POSITIVE, "l2": _NON_NEGATIVE, "axis": _AXIS},
    "linear-regression": {"eta": _FINITE_OR_NULL, "axis": _AXIS},
}


class UtilityOracle:
    """Base: empty-set zero, non-negativity clamp, memoization, call counters.

    A NaN or +inf score raises NonFiniteScore instead of being clamped or
    passed on to the estimators; -inf (say, eta minus an overflowed error) is
    below every score and clamps to 0 like any negative one.

    Subclasses implement _score for one composed set, or _score_many for a
    batch of them when scoring several at once is cheaper; values() hands
    all of a call's cache misses to one _score_many call. Each sets `pool`,
    the entry ids it scores, in the order generated allocations draw from.
    """

    kind = "base"
    pool: Sequence[int]

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
        A set other than a frozenset is converted as an owner's entries are:
        an id that is not an integer raises MalformedInput.

        So the counters measure the sets asked for, not the calls made. A
        sampled check or race sends one pair of sets per distinct prefix, not
        one per drawn ordering: calls fall by a large factor against scoring
        every ordering, and a hit ratio with them, while evals do not move.
        A wrapper around value() alone (the benchmark's tracer wraps only
        that name) sees none of this batched traffic; read calls and evals.
        """
        cache = self._cache
        known = cache if cache is not None else {}
        out: list[float | None] = []
        missing: dict[frozenset[int], int] = {}  # each missed set's first position
        repeats: list[tuple[int, int]] = []  # later positions of a missed set
        for i, ids in enumerate(sets):
            if not isinstance(ids, frozenset):
                ids = entry_ids(f"{self.kind} utility", ids)
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

    def gaps(
        self, jobs: list[tuple[list[frozenset[int]], list[tuple[frozenset[int], frozenset[int]]]]]
    ) -> list[float]:
        """U(base + x) - U(base + y) for each job's bases and entry-set pairs (x, y), in order.

        A job is (bases, pairs); its gaps run pair by pair, each over every
        base. All the jobs' sets go to values() in one call, laid out the
        same way: (base + x, base + y) for each base. An empty y leaves each
        base the object it is.
        """
        vals = self.values(
            [s for bases, pairs in jobs for x, y in pairs for base in bases for s in (base | x, base | y if y else base)]
        )
        return list(map(operator.sub, vals[::2], vals[1::2]))

    def room(self, sets: list[frozenset[int]]) -> int:
        """How many sets like `sets` one values() call scores for about the cost of these alone.

        An oracle whose calls share no work across their sets has room for
        exactly these: len(sets).
        """
        return len(sets)

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
    """Sum of fixed non-negative per-entry weights; duplicates count once.

    Each weight is held as an exact integer at one scale 2^K, so a set's
    score is its integer sum n divided by 2^K. Int true division rounds
    correctly, so a score is the correctly rounded sum of its weights: the
    bits math.fsum gives in any order. The weights' total must round to a
    finite float, so no set's score overflows. An id is an int or its
    decimal string.

    Where the weights' integer total and 2^K both convert to finite floats,
    n is divided in float instead, as float(n) / 2.0**K, which has the same
    bits: a quotient of 2^-1022 or more is normal, so float(n)'s one
    rounding is scaled exactly, and a smaller one has n of 0 or 1, which
    converts exactly. Otherwise (a weight with a bit below 2^-1023 sets K
    above 1023, or large weights beside small ones put the total at 2^1024
    or more) int division stays.
    """

    kind = "additive"

    def __init__(self, weights: Mapping[int | str, float], *, cache: bool = True):
        check_config({"kind": self.kind, "weights": weights})
        super().__init__(cache=cache)
        self.weights = {int(e): float(w) for e, w in weights.items()}
        self.pool = sorted(self.weights)
        ratios = {e: w.as_integer_ratio() for e, w in self.weights.items()}  # each denominator a power of 2
        self._scale = max((den for _, den in ratios.values()), default=1)
        self._ints = {e: num * (self._scale // den) for e, (num, den) in ratios.items()}
        n = sum(self._ints.values())
        # The divisor of an integer sum: 2^K as a float where that gives the same bits, else as an int.
        self._divisor: int | float = self._scale
        try:
            float(n)
            self._divisor = float(self._scale)
        except OverflowError:
            pass
        self._sums: dict[frozenset[int], int] | None = {} if cache else None

    def gaps(
        self, jobs: list[tuple[list[frozenset[int]], list[tuple[frozenset[int], frozenset[int]]]]]
    ) -> list[float]:
        """UtilityOracle.gaps from integer sums, with the bits values() gives each union.

        A base's sum is kept (by base, until clear_cache), and U(base + x) is
        that sum plus x's, or plus that of x's entries outside the base when
        they overlap (owners may share entries), over 2^K. So no union set is
        built, and no coalition is memoised. calls and evals move by one for
        each set a gap stands for.
        """
        total, div = self._total, self._divisor
        sums = self._sums if self._sums is not None else {}
        out: list[float] = []
        for bases, pairs in jobs:
            at = []
            for base in bases:
                s = sums.get(base)
                if s is None:
                    s = sums[base] = total(base)
                at.append(s)
            for x, y in pairs:
                sx, sy = total(x), total(y)
                out += [
                    (s + (sx if x.isdisjoint(base) else total(x - base))) / div
                    - (s + (sy if y.isdisjoint(base) else total(y - base))) / div
                    for base, s in zip(bases, at)
                ]
        self.calls += 2 * len(out)
        self.evals += 2 * len(out)
        return out

    def clear_cache(self) -> None:
        super().clear_cache()
        if self._sums is not None:
            self._sums.clear()

    def _total(self, ids: frozenset[int]) -> int:
        try:
            return sum(map(self._ints.__getitem__, ids))
        except KeyError as exc:
            raise MalformedInput(f"no weight for entry {exc.args[0]}") from None

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        return [self._total(ids) / self._divisor for ids in ids_list]


@dataclass(frozen=True)
class SetCoverGame:
    """A set-cover instance: universe of items and 1-indexed candidate subsets."""

    universe: frozenset[int]
    subsets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        check_config({"kind": "set-cover", "universe": self.universe, "subsets": self.subsets})
        object.__setattr__(self, "universe", frozenset(int(u) for u in self.universe))
        object.__setattr__(
            self, "subsets", tuple(frozenset(int(v) for v in s) for s in self.subsets)
        )

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
        self.pool = range(1, len(game.subsets) + 1)

    def _score(self, ids: frozenset[int]) -> float:
        r = len(self.pool)
        stray = sorted(i for i in ids if i < 1 or i > r)
        if stray:
            raise MalformedInput(f"subset indices {stray[:8]} outside 1..{r}")
        if not self.game.covers(ids):
            return 0.0
        return self.game.m - len(ids) + self.game.encode(ids)


def _check_ids(idx: np.ndarray, limit: int, axis: str) -> None:
    """Raise MalformedInput unless every row (or feature) id in idx lies in [0, limit)."""
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise MalformedInput(f"{'row' if axis == 'rows' else 'feature'} ids out of range [0, {limit})")


def _stack_ids(ids_list: list[frozenset[int]], limit: int, axis: str) -> np.ndarray:
    """The (sets, size) ids of several equal-size sets, each row ascending, checked to lie in [0, limit)."""
    size = len(ids_list[0])
    idx = np.fromiter(chain.from_iterable(ids_list), np.intp, len(ids_list) * size).reshape(len(ids_list), size)
    idx.sort(axis=1)
    _check_ids(idx, limit, axis)
    return idx


def _restrict(dataset: Dataset, idx: np.ndarray, axis: str) -> np.ndarray:
    """The rows or columns named by each row of idx (see _stack_ids), stacked.

    A (sets, rows, columns) array. The table is C-ordered (see Dataset), and
    every slice has the layout that indexing it with that set alone gives:
    C order for a row subset, F order for a column subset.
    """
    if axis == "rows":
        return dataset.features[idx]
    return np.moveaxis(dataset.features[:, idx], 0, 1)


class _DataUtility(UtilityOracle):
    """A data-backed oracle: its train and test tables, its axis, and the axis's ids as its pool."""

    def __init__(self, train: Dataset, test: Dataset, axis: str, *, cache: bool) -> None:
        super().__init__(cache=cache)
        self.train = train
        self.test = test
        self.axis = axis
        self.pool = range(len(train) if axis == "rows" else train.n_features)


# Most float64 values one stack of sets holds: (columns x rows x sets) in a
# logistic fit, (test points x train points x sets) in a KDE evaluation. A
# values() call's sets are scored in stacks under it, and a larger set
# alone. The logistic fit keeps three arrays of this size, 512 KB each, which
# stay in cache: larger groups measured slower on sets of a thousand rows
# and more. A KDE oracle makes a workspace of two arrays of this size, 1 MiB,
# for each of the two threads that may score its stacks (see KdeUtility), and
# runs every stack in its thread's workspace, so a stack touches no fresh
# pages. With one workspace (and before the difference
# table), caps of 2^15, 2^16 and 2^17 ran eight kde-svexp experiments in a
# median of 1.71, 1.49 and 1.56 s (10 alternating rounds, quartile spreads
# 0.17-0.40 s, 2-core box), a spread too wide to rank them, at a peak RSS of
# 40.2, 40.7 and 41.9 MiB; so the cap stays.
# With the difference table and the min-shifted sum (see _kde_log_density), a
# full stack against 80 test points (2 features) takes 0.34x, 0.55-0.56x,
# 0.67-0.68x and 0.80-0.88x the time per set of scoring its sets one by one,
# on sets of 20, 60, 120 and 200 train rows, and 0.36-0.37 ms for 12 sets of
# 45 rows (best of 7 rounds, two draws of the sets).
# A KDE call starts a worker thread only for 2 or more stacks of at least
# half this cap. Six kde-svexp experiments (seeds 1-2, experiments 0-2;
# in-process, 15 interleaved rounds, 2-core box) ran in a median of 0.532 s
# on one thread, and 0.480, 0.470, 0.484 and 0.512 s with a worker from
# 2^13, 2^14, 2^15 and 40,000 elements; on seeds 11-13 and 21-23 the
# thresholds from 2^14 to 40,000 were within each other's quartiles. With
# the threads taking stacks from one queue, fresh-interpreter pairs against
# a static split of the stacks read 0.95-1.00x its time from 2^15 elements
# and 1.02x from any stack. Half the cap is as fast as 2^14 and starts
# fewer threads. On the min-shifted kernel the worker still pays: kde-svexp
# seeds 1 and 21 (10 alternating benchmark pairs each, 2-core box) read a
# median run_s of 0.104 and 0.114 s with it against 0.108 and 0.119 s
# without, outside the threaded runs' quartiles.
_STACK_ELEMENTS = 1 << 16

# CPUs this process may run on, read once at import.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workspace() -> tuple[np.ndarray, np.ndarray]:
    """A KDE stack's workspace: two _STACK_ELEMENTS float arrays (see _kde_log_density)."""
    return np.empty(_STACK_ELEMENTS), np.empty(_STACK_ELEMENTS)


# Most floats a KDE oracle's table of test - train differences may hold (see
# _diff_table): 2 MiB, one core's L2 cache on the 2-core Xeon box where it was
# measured. Against stacks of 15- and 45-row sets and 80 test points (2
# features; best of 7 rounds of 20 random stacks, two draws), a stack took
# 0.90-1.01x its time without the table at a 0.4 MiB table, 0.91-0.97x at
# 2.0 MiB, 1.02-1.03x at 3.9 MiB and 1.02-1.10x at 7.3 and 24 MiB.
_DIFF_TABLE_ELEMENTS = 1 << 18


def _diff_table(train: np.ndarray, test: np.ndarray) -> np.ndarray | None:
    """The (d, n_train, n_test) differences test[i, j] - train[k, j] at [j, k, i], or None.

    A stack's per-feature terms are gathered from it (see _scaled_sq_dist):
    the same subtraction of the same two floats, so the same bits. None from
    8 features, where the 3-D form takes every stack, above
    _DIFF_TABLE_ELEMENTS floats, and when a difference raises a
    floating-point error; then every stack subtracts its own terms.
    """
    (n_train, d), n_test = train.shape, len(test)
    if d >= 8 or d * n_train * n_test > _DIFF_TABLE_ELEMENTS:
        return None
    table = np.empty((d, n_train, n_test))
    try:
        with np.errstate(all="raise"):
            np.subtract(test.T[:, None, :], train.T[:, :, None], out=table)
    except FloatingPointError:
        return None
    return table


def _kde_log_density(
    train: np.ndarray,
    test: np.ndarray,
    floor: float,
    work: tuple[np.ndarray, np.ndarray],
    diffs: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """Log density of each test point under a product-Gaussian KDE of each set's train points.

    train is a (sets, n, d) stack and test a (sets or 1, n_test, d) one;
    the result is (sets, n_test). Per-dimension Scott bandwidths
    h_j = std_j * n^(-1/(d+4)), floored so that degenerate dimensions stay
    usable, and r_j = 1 / (h_j * sqrt(2)). Each (train k, test i) pair has
    sq = sum_j ((test_ij - train_kj) * r_j)^2, half its squared scaled
    distance, so its log kernel is -sq - sum_j log h_j - d/2 * log(2 pi),
    with no division and no -1/2 pass on the block. The log density is
    log(sum_k exp(lo - sq)) - lo - c, with lo the smallest sq of the test
    point (its nearest train point, whose term is exp(0) = 1: a tie adds 1
    per tied point, and the sum is at least 1) and
    c = sum_j log h_j + (d/2 * log(2 pi) + log n), subtracted on the
    (sets, n_test) result. It differs from the log kernel through
    scipy.special.logsumexp in the last bits only: at most 8.3e-16 relative
    on the tests' cases, which hold it to 1e-12. lo is taken as at most the
    largest float, so a test point whose every sq is +inf sums
    exp(-inf) = 0 terms and gets -inf, and numpy warns of the log of zero.

    Every reduction runs within one set, in the order it takes for that set
    alone, so a set's row has the same bits in any stack. The sq of the
    whole stack is one (sets, n, n_test) block, test points innermost, in
    work's first float array; its second holds each feature's term, then
    the transposed copy the sum reads. A stack larger than work gets
    one-off arrays. diffs is None or (table, idx): a _diff_table of the rows
    train was gathered from and the (sets, n) ids it was gathered with. Each
    test point's terms are summed over train points pairwise: the order
    numpy takes for a set gathered from a C-ordered table (see _restrict),
    on either axis.
    """
    g, n, d = train.shape
    n_test = test.shape[1]
    size = g * n * n_test
    if len(work[0]) < size:
        work = (np.empty(size), np.empty(size))
    sq = work[0][:size].reshape(g, n, n_test)
    h = np.maximum(_train_std(train) * n ** (-1.0 / (d + 4)), floor)
    _scaled_sq_dist(test, train, 1.0 / (h * _SQRT2), sq, work[1][:size].reshape(g, n, n_test), diffs)
    lo = sq.min(axis=1, initial=sys.float_info.max)
    np.subtract(lo[:, None, :], sq, out=sq)
    np.exp(sq, out=sq)
    s = _sum_train(sq, work[1])
    np.log(s, out=s)
    s -= lo
    s -= (np.log(h).sum(axis=1) + (0.5 * d * _LOG_2PI + math.log(n)))[:, None]
    return s


def _train_std(x: np.ndarray) -> np.ndarray:
    """x.std(axis=1) of a (sets, n, d) stack: the ufunc calls of numpy's _var and _std, without their wrapper."""
    n = x.shape[1]
    mean = np.add.reduce(x, axis=1, keepdims=True)
    mean /= n
    dev = np.subtract(x, mean)
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=1)
    var /= n
    return np.sqrt(var, out=var)


def _scaled_sq_dist(
    test: np.ndarray,
    train: np.ndarray,
    r: np.ndarray,
    out: np.ndarray,
    z: np.ndarray,
    diffs: tuple[np.ndarray, np.ndarray] | None,
) -> None:
    """sum_j ((test_ij - train_kj) * r_j)^2 for every (train k, test i) pair of each set, into out.

    test is (sets or 1, n_test, d), train (sets, n_train, d), r (sets, d)
    and out and z (sets, n_train, n_test). Each value has the bits of
    `(w * w).sum(axis=2)` for the set's own (n_test, n_train, d) array w.
    Below 8 features numpy adds the short last axis as one running sum in
    every layout, so the sum is built one feature at a time, each term in z,
    with no short-axis reduction; with diffs (see _kde_log_density) a term
    starts as the table rows of the stack's ids, else as a subtraction.
    From 8 features numpy sums pairwise with 8 accumulators, and the 3-D
    form is used. The 3-D form also takes any input that raises a
    floating-point error, so numpy reports each error once under the
    caller's error state, not once per feature.
    """
    d = test.shape[2]
    if d < 8:
        try:
            with np.errstate(all="raise"):
                for j in range(d):
                    term = out if j == 0 else z
                    if diffs is None:
                        np.subtract(test[:, None, :, j], train[:, :, None, j], out=term)
                    else:  # the ids are checked, so "clip" clips nothing and writes straight to term
                        np.take(diffs[0][j], diffs[1], axis=0, out=term, mode="clip")
                    term *= r[:, None, None, j]
                    term *= term
                    if j:
                        out += z
                return
        except FloatingPointError:
            pass
    w = (test[:, :, None, :] - train[:, None, :, :]) * r[:, None, None, :]
    np.copyto(out, (w * w).sum(axis=3).transpose(0, 2, 1))


def _sum_train(a: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """(sets, n_test) sums of a (sets, n, n_test) block over train points, pairwise over a transposed copy in spare."""
    rows = spare[: a.size].reshape(len(a), a.shape[2], a.shape[1])
    np.copyto(rows, a.transpose(0, 2, 1))
    return rows.sum(axis=-1)


class KdeUtility(_DataUtility):
    """Density-estimation usefulness of a composed set against held-out points.

    Each test point contributes an error capped at error_cap: in "pool" mode
    the absolute gap between the composed set's log density and the full
    pool's log density at that point, in "nll" mode the clipped negative log
    density itself. Utility is eta minus the total error; the default
    eta = n_test * error_cap keeps it non-negative by construction.

    A set's log density has the bits of the plain one-set form that
    tests/oracles.py keeps as the reference: one (n_test, n_train, d) array
    of differences times reciprocal bandwidths, squared and summed over
    features, shifted by each test point's smallest sum and summed over
    train points pairwise (see _kde_log_density). Its bits follow numpy
    alone. It is within 1e-12 relative of the log kernel through
    scipy.special.logsumexp, which the tests check.

    The sets of one values() call are scored as stacks of equal-size sets,
    each stack of at most _STACK_ELEMENTS (test x train) pairs, and a larger
    set alone; a set's score is the same bits alone, in any batch and from
    any layout of the caller's arrays, which a Dataset holds C-ordered.
    The oracle makes, with itself, one workspace for the calling thread and
    one for a worker, each two _STACK_ELEMENTS float arrays (1 MiB) left
    untouched until a stack runs in it; a larger set gets one-off arrays.
    A call's stacks wait in one queue, largest first. When the process may
    run on 2 or more CPUs and a call holds 2 or more stacks of at least half
    _STACK_ELEMENTS, the call starts a worker thread, and the caller and the
    worker each take the next stack, in their own workspace, until the queue
    is empty or either has failed. The call joins the worker before it
    returns, and an error on either thread raises from values() with no
    score of the call memoised. A set's score has the same bits on either
    thread. In pool mode the pool's density is built on the caller at the
    first call, before the worker starts. On
    the rows axis below 8 features the oracle also keeps, from its
    construction, a table of every test - train difference (_diff_table,
    d x n_train x n_test floats, at most _DIFF_TABLE_ELEMENTS), from which
    each stack gathers its per-feature terms.
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
        check_config({"kind": self.kind, "eta": eta, "bandwidth_floor": bandwidth_floor, "error_cap": error_cap,
                      "reference": reference, "axis": axis})
        super().__init__(train, test, axis, cache=cache)
        self.floor = float(bandwidth_floor)
        self.error_cap = float(error_cap)
        self.reference = reference
        self.eta = float(eta) if eta is not None else len(test) * self.error_cap
        self._pool_logp: np.ndarray | None = None
        self._works = (_workspace(), _workspace())  # the caller's and the worker's
        self._diffs = _diff_table(train.features, test.features) if self.axis == "rows" else None

    def _log_density(self, ids_list: list[frozenset[int]], work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The (sets, n_test) log densities of equal-size sets, run in work."""
        idx = _stack_ids(ids_list, len(self.pool), self.axis)
        x = _restrict(self.train, idx, self.axis)
        t = self.test.features[None] if self.axis == "rows" else _restrict(self.test, idx, self.axis)
        diffs = None if self._diffs is None else (self._diffs, idx)
        return _kde_log_density(x, t, self.floor, work, diffs)

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        by_size: dict[int, list[int]] = {}
        for i, ids in enumerate(ids_list):
            by_size.setdefault(len(ids), []).append(i)
        stacks: list[tuple[int, list[int]]] = []  # (elements, positions in ids_list)
        for size, members in by_size.items():
            per_set = len(self.test) * (size if self.axis == "rows" else len(self.train))
            step = max(1, _STACK_ELEMENTS // per_set)
            groups = (members[at : at + step] for at in range(0, len(members), step))
            stacks += [(per_set * len(group), group) for group in groups]
        if self.reference == "pool" and self._pool_logp is None:  # before the worker: both threads read it
            self._pool_logp = self._log_density([frozenset(self.pool)], self._works[0])[0]
        stacks.sort(key=lambda s: -s[0])
        # A worker for 2 or more stacks of at least half the cap (see _STACK_ELEMENTS).
        threaded = _CPUS > 1 and len(stacks) > 1 and stacks[1][0] >= _STACK_ELEMENTS // 2
        queue, lock = iter([members for _, members in stacks]), threading.Lock()
        scores = [0.0] * len(ids_list)
        failed: list[BaseException] = []

        def take() -> list[int] | None:
            """The next stack, largest first; None once the queue is empty or either thread has failed."""
            with lock:
                return None if failed else next(queue, None)

        if threaded:
            # A copy of this context carries the caller's np.errstate to the worker.
            args = (self._score_stacks, take, ids_list, self._works[1], scores, failed)
            worker = threading.Thread(target=contextvars.copy_context().run, args=args)
            worker.start()
        self._score_stacks(take, ids_list, self._works[0], scores, failed)
        if threaded:
            worker.join()
        if failed:
            raise failed[0]
        return scores

    def _score_stacks(
        self,
        take: Callable[[], list[int] | None],
        ids_list: list[frozenset[int]],
        work: tuple[np.ndarray, np.ndarray],
        scores: list[float],
        failed: list[BaseException],
    ) -> None:
        """Score the stacks take gives, ids_list positions each, into scores, in work; an error goes to failed."""
        try:
            while (group := take()) is not None:
                logp = self._log_density([ids_list[i] for i in group], work)
                if self.reference == "nll":
                    err = np.clip(-logp, -self.error_cap, self.error_cap)
                else:
                    err = np.minimum(np.abs(logp - self._pool_logp), self.error_cap)
                for i, total in zip(group, err.sum(axis=1).tolist()):
                    scores[i] = self.eta - total
        except BaseException as exc:
            failed.append(exc)


def _padded_ids(ids_list: list[frozenset[int]], limit: int, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Each set's ids in ascending order, one row per set, and the sets' sizes.

    The ids are checked as _stack_ids checks them. A row shorter than the
    longest set is filled with `limit`, one past the last id, so it sorts last.
    """
    sizes = np.fromiter(map(len, ids_list), np.intp, len(ids_list))
    flat = np.fromiter(chain.from_iterable(ids_list), np.intp, int(sizes.sum()))
    _check_ids(flat, limit, axis)
    idx = np.full((len(ids_list), sizes.max()), limit, dtype=np.intp)
    idx[np.arange(idx.shape[1]) < sizes[:, None]] = flat
    idx.sort(axis=1)
    return idx, sizes


def _row_sums(a: np.ndarray, n_rows: np.ndarray) -> np.ndarray:
    """(sets, columns) sums over the rows of a (sets, rows, columns) stack, padded rows zero.

    Each set's sums have the bits of the same sum over its own rows, laid
    out alone as the stack lays them out. Over C-ordered rows of 2 or more
    columns numpy adds a row at a time, and over F-ordered columns it sums
    each column's unpadded rows pairwise, so the stack is summed whole: a
    zero appended to a running sum changes no bit of it. A single C-ordered
    column is summed pairwise too, in an order set by its row count, so
    then the sets are summed in groups of one row count.
    """
    if a.shape[2] > 1 or n_rows.min() == a.shape[1]:
        return a.sum(axis=1)
    out = np.empty((len(a), 1))
    for k in sorted(set(n_rows.tolist())):
        of_k = n_rows == k
        out[of_k] = a[of_k, :k].sum(axis=1)
    return out


def _standardize(
    x: np.ndarray, n_rows: np.ndarray, real: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each set's columns standardized by its mean and std, with those (sets, columns).

    x is a (sets, rows, columns) stack with n_rows real rows per set and
    zeros after them, and real is the (sets, rows) mask of the real rows,
    1.0 or 0.0. x is standardized in place and keeps those zeros. Every
    value has the bits of x.mean(axis=0), x.std(axis=0) and (x - mu) / sd
    on the set's own (rows, columns) array, an sd under 1e-12 taken as 1.
    """
    n = n_rows[:, None]
    mu = _row_sums(x, n_rows) / n
    x -= mu[:, None, :]
    if n_rows.min() < x.shape[1]:
        x *= real[:, :, None]
    sd = np.sqrt(_row_sums(x * x, n_rows) / n)
    sd = np.where(sd < 1e-12, 1.0, sd)
    x /= sd[:, None, :]
    return x, mu, sd


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


# Fit values (rows x (features + bias), summed over the sets) that one
# logistic values() call scores for about the cost of its largest set alone;
# exact searches fill a call up to it. The 200 steps of a descent cost about
# the same up to there: on 224 train rows of 4 features, one call took
# 3.7 ms for 1 set of 6-20 rows, 4.0 ms for 16 and 5.3 ms for 32 such sets,
# while sets of 100-200 rows cost about in proportion to their count
# (15.2 ms for 16, 44.9 ms for 64; 2-core box, median of 5 rounds).
# On logreg-bf's inputs (sets of at most 20 rows) a call takes about 40 sets'
# room: 2-3 subsets of 16 sets at 5 owners. The batched fit wins while sets
# have up to a few hundred rows; from about 1,000 rows per set, and on the
# features axis of wide tables, it is up to 2x slower than one BLAS fit per set.
SHARED_FIT_VALUES = 1 << 12


class LogRegUtility(_DataUtility):
    """eta minus test log-loss of a logistic model fitted on the composed set.

    Fitting is full-batch gradient descent with fixed iteration count and
    standardized inputs, which keeps scores deterministic. Single-class
    composed sets fall back to a Laplace-smoothed constant predictor rather
    than failing.

    The sets of one values() call are scored in groups of at most
    _STACK_ELEMENTS fit values (see _fit), each group by whole-array steps
    over a zero-padded stack of its sets, and a single set is a group of one,
    so a set's score is the same bits alone or in any batch. As no BLAS is
    used, the last bits differ from one BLAS fit per set, which
    tests/oracles.py keeps as logreg_score_reference: the two agree to a
    relative 1e-12.
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
        check_config({"kind": self.kind, "eta": eta, "iters": iters, "lr": lr, "l2": l2, "axis": axis})
        if train.labels is None or test.labels is None:
            raise MalformedInput("logistic-regression utility needs a label column")
        super().__init__(train, test, axis, cache=cache)
        self.eta = float(eta)
        self.iters = int(iters)
        self.lr = float(lr)
        self.l2 = float(l2)
        # Sorted distinct values, as np.unique gives them; its plain form
        # imports numpy.ma (about 18 ms) on the first call.
        classes = sorted(set(train.labels.tolist()) | set(test.labels.tolist()))
        if len(classes) > 2:
            raise MalformedInput(f"labels must be binary, found {len(classes)} classes")
        hi = classes[-1]
        self._yt = (test.labels == hi).astype(np.float64)
        # The tables padded ids point at: one zero row (rows axis) or zero
        # column (features axis) past the data, so a gathered stack is padded
        # with zeros.
        y = (train.labels == hi).astype(np.float64)
        if self.axis == "rows":
            self._x = np.vstack([train.features, np.zeros((1, train.n_features))])
            self._y = np.append(y, 0.0)
            self._real = np.append(np.ones(len(train)), 0.0)
        else:
            self._x = np.hstack([train.features, np.zeros((len(train), 1))])
            self._xt = np.hstack([test.features, np.zeros((len(test), 1))])
            self._y = y

    def _size(self, ids: frozenset[int]) -> tuple[int, int]:
        """(rows, features + bias) of the set's fit."""
        if self.axis == "rows":
            return len(ids), self.train.n_features + 1
        return len(self.train), len(ids) + 1

    def room(self, sets: list[frozenset[int]]) -> int:
        """Up to SHARED_FIT_VALUES fit values of sets like the largest of `sets` share one call."""
        largest = max(rows * width for rows, width in map(self._size, sets))
        return max(len(sets), SHARED_FIT_VALUES // max(1, largest))  # an empty set fits nothing

    def _score_many(self, ids_list: list[frozenset[int]]) -> list[float]:
        # Largest sets first, so a group's sets are of like sizes and each
        # group's padded arrays stay under _STACK_ELEMENTS.
        order = sorted(range(len(ids_list)), key=lambda i: len(ids_list[i]), reverse=True)
        scores = np.empty(len(ids_list))
        at = 0
        while at < len(order):
            rows, width = self._size(ids_list[order[at]])
            group = order[at : at + max(1, _STACK_ELEMENTS // (rows * width))]
            at += len(group)
            scores[group] = self._score_group([ids_list[i] for i in group])
        return scores.tolist()

    def _score_group(self, sets: list[frozenset[int]]) -> np.ndarray:
        """The scores of one fit group, each step one array operation over all its sets.

        A single-class set scores the Laplace-smoothed constant predictor.
        The other sets are standardized, fitted and predicted as one
        zero-padded stack.
        """
        rows = self.axis == "rows"
        idx, n_ids = _padded_ids(sets, len(self.pool), self.axis)
        if rows:
            y, n_rows, widths = self._y[idx], n_ids, np.full(len(sets), self.train.n_features)
        else:
            y, n_rows, widths = self._y[None], np.full(len(sets), len(self.train)), n_ids
        hi = y.sum(axis=1)  # whole numbers, exact in any order
        mixed = (hi > 0) & (hi < n_rows)
        scores = np.empty(len(sets))
        # The single-class sets' constant predictions, in stacks under the cap.
        p = (hi + 1.0) / (n_rows + 2.0)
        single = np.flatnonzero(~mixed)
        step = max(1, _STACK_ELEMENTS // len(self._yt))
        for at in range(0, len(single), step):
            of = single[at : at + step]
            pt = np.empty((len(of), len(self._yt)))
            pt[:] = p[of, None]
            scores[of] = self._log_loss(pt)
        if mixed.any():
            idx, n_rows, widths = idx[mixed], n_rows[mixed], widths[mixed]
            if rows:
                idx = idx[:, : n_rows.max()]
                x, y, real = self._x[idx], self._y[idx], self._real[idx]
            else:
                x, real = np.moveaxis(self._x[:, idx], 0, 1), np.ones((len(idx), len(self.train)))
                y = np.broadcast_to(y, real.shape)
            xs, mu, sd = _standardize(x, n_rows, real)
            v = self._fit(xs, y, real, n_rows, widths)
            scores[mixed] = self._predict(idx, mu, sd, widths, v)
        return scores

    def _fit(
        self, xs: np.ndarray, y: np.ndarray, real: np.ndarray, n_rows: np.ndarray, widths: np.ndarray
    ) -> np.ndarray:
        """The weights of all the sets' gradient descents, negated, one column per set.

        xs is the (sets, rows, features) stack of standardized inputs and y
        the (sets, rows) labels, both zero past each set's n_rows rows (real
        masks them) and xs past its widths features; a set's model has a bias
        column after its features. Per set the step is
        w <- w - lr * (x^T (p - y) / m + l2 * w), p = sigmoid(x w), with no
        penalty on the bias. It runs here on v = -w, which saves a negation:
        v <- v * (1 - lr * l2) + (lr / m) * x^T (p - y), p = 1 / (1 + exp(x v)).
        No BLAS is used: its kernels, and so its rounding, depend on the
        shapes. The sets sit in one (columns, rows, sets) array, and both
        x v and x^T (p - y) are summed in the _tree_steps order, which the
        padding leaves bitwise alone; a padded row's bias is 0 too, so all
        its products are 0.
        """
        b, m, d = xs.shape
        x = np.zeros((d + 1, m, b))
        x[:d] = xs.transpose(2, 1, 0)
        x[widths, :, np.arange(b)] = real
        y = np.ascontiguousarray(y.T)
        step = self.lr / n_rows
        # 1 - lr * l2, but 1 on the bias; a padded column's weight stays 0 either way.
        keep = np.full((d + 1, b), 1.0 - self.lr * self.l2)
        keep[widths, np.arange(b)] = 1.0
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

    def _predict(
        self, idx: np.ndarray, mu: np.ndarray, sd: np.ndarray, widths: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """The scores of fitted sets from their ids, standardization and weights v.

        The sets are predicted in stacks of (features + bias, sets, test
        points), each under _STACK_ELEMENTS or one set alone. A set's row
        has its standardized test features, then 1 for the bias, then zeros;
        x v is summed in the _tree_steps order over the outer axis, so the
        zeros leave every bit, and no BLAS is used.
        """
        n_test, width = len(self.test), len(v)
        step = max(1, _STACK_ELEMENTS // (width * n_test))
        scores = np.empty(len(idx))
        for at in range(0, len(idx), step):
            sets = slice(at, at + step)
            if self.axis == "rows":
                xt = self.test.features[None]
            else:
                xt = np.moveaxis(self._xt[:, idx[sets]], 0, 1)
            mu_s, sd_s, v_s = mu[sets].T, sd[sets].T, v[:, sets]  # (features [+ bias], sets)
            xv = np.zeros((width, v_s.shape[1], n_test))
            xs = xv[:-1]
            xs[:] = xt.transpose(2, 0, 1)
            xs -= mu_s[:, :, None]
            xs /= sd_s[:, :, None]
            xv[widths[sets], np.arange(v_s.shape[1])] = 1.0
            xv *= v_s[:, :, None]
            z = _tree_sum(xv)
            with np.errstate(over="ignore"):  # exp -> inf gives p = 0, its limit
                e = np.exp(z)
            scores[sets] = self._log_loss(1.0 / (1.0 + e))
        return scores

    def _log_loss(self, pt: np.ndarray) -> np.ndarray:
        """eta minus the clipped test log-loss of each row of a (sets, test points) stack."""
        eps = 1e-12
        pt = np.clip(pt, eps, 1.0 - eps)
        yt = self._yt
        loss = -(yt * np.log(pt) + (1.0 - yt) * np.log(1.0 - pt)).mean(axis=1)
        return self.eta - loss


class LinRegUtility(_DataUtility):
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
        check_config({"kind": self.kind, "eta": eta, "axis": axis})
        if train.labels is None or test.labels is None:
            raise MalformedInput("linear-regression utility needs a label column")
        super().__init__(train, test, axis, cache=cache)
        if eta is not None:
            self.eta = float(eta)
        else:
            base = float(((test.labels - train.labels.mean()) ** 2).mean())
            self.eta = max(1.0, 4.0 * base)

    def _score(self, ids: frozenset[int]) -> float:
        rows = self.axis == "rows"
        idx = _stack_ids([ids], len(self.pool), self.axis)
        x = _restrict(self.train, idx, self.axis)[0]
        y = self.train.labels[idx[0]] if rows else self.train.labels
        xt = self.test.features if rows else _restrict(self.test, idx, self.axis)[0]
        xb = np.hstack([x, np.ones((len(x), 1))])
        w, *_ = np.linalg.lstsq(xb, y, rcond=None)
        pred = np.hstack([xt, np.ones((len(xt), 1))]) @ w
        mse = float(((pred - self.test.labels) ** 2).mean())
        return self.eta - mse


_KIND_ALIASES = {kind: kind for kind in _RULES} | {
    "setcover": "set-cover", "logreg": "logistic-regression", "linreg": "linear-regression"
}
# Each data-backed kind's oracle; its constructor holds the defaults of the keys a config leaves out.
DATA_BACKED = {"kde": KdeUtility, "logistic-regression": LogRegUtility, "linear-regression": LinRegUtility}


def check_config(cfg: object) -> tuple[str, dict]:
    """The kind of a utility config and the kind's object, checked by _RULES without data.

    Either the bare kind object or a {"utility": {...}} wrapper is taken.
    An unknown kind, a key the kind does not take (besides "kind" and
    "label") in the object or beside the wrapper, a synthetic kind's
    missing key and a value that breaks its rule raise MalformedInput.
    The constructors check their arguments here too; what needs the data
    (a label column, binary classes) is checked when an oracle is built.
    """
    if not isinstance(cfg, dict):
        raise MalformedInput("utility config must be a JSON object")
    inner = cfg.get("utility", cfg)
    if not isinstance(inner, dict) or "kind" not in inner:
        raise MalformedInput('utility config needs a "kind" field')
    if inner is not cfg and len(cfg) > 1:
        raise MalformedInput(f"unknown utility keys {sorted(set(cfg) - {'utility'}, key=str)} beside 'utility'")
    kind = _KIND_ALIASES.get(str(inner["kind"]).strip().lower().replace("_", "-").replace(" ", "-"))
    if kind is None:
        raise MalformedInput(f"unknown utility kind {inner['kind']!r}")
    rules = _RULES[kind]
    stray = set(inner) - {"kind", "label", *rules}
    if stray:
        raise MalformedInput(f"unknown {kind} utility keys {sorted(stray, key=str)}")
    missing = [] if kind in DATA_BACKED else [key for key in rules if key not in inner]
    if missing:
        raise MalformedInput(f"{kind} utility needs {', '.join(map(repr, missing))}")
    bad = [f"{key} must be {need}, got {reprlib.repr(inner[key])}" for key, (need, ok) in rules.items()
           if key in inner and not ok(inner[key])]
    if bad:
        raise MalformedInput(f"{kind} utility: {'; '.join(bad)}")
    # The one rule that reads two keys.
    if kind == "set-cover" and (outside := set().union(*inner["subsets"]) - set(inner["universe"])):
        raise MalformedInput(f"set-cover utility: subset items {sorted(map(int, outside))} outside the universe")
    return kind, inner


def make_oracle(
    cfg: dict,
    train: Dataset | None = None,
    test: Dataset | None = None,
    *,
    cache: bool = True,
) -> UtilityOracle:
    """Build a utility oracle from its JSON config.

    The config is checked first (check_config, which ExperimentConfig and
    the CLI also run before any data loads), then the oracle is built,
    which checks what needs the data. Data-backed kinds require train and
    test datasets; synthetic kinds are fully described by the config.
    """
    kind, inner = check_config(cfg)
    if kind == "additive":
        return AdditiveUtility(inner["weights"], cache=cache)
    if kind == "set-cover":
        return SetCoverUtility(SetCoverGame(inner["universe"], inner["subsets"]), cache=cache)
    if train is None or test is None:
        raise MalformedInput(f"utility kind {kind!r} needs train and test datasets")
    return DATA_BACKED[kind](train, test, **{key: inner[key] for key in _RULES[kind] if key in inner}, cache=cache)
