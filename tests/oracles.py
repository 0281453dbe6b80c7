"""Independent reference implementations used only to check the package.

Everything here is written straight from definitions (permutation averages,
literal formulas, sorted-merge transport) with no reuse of package internals,
so agreement between the two routes is meaningful evidence.

The second half is the per-draw permutation path: one rng.permutation call,
one prefix walk and one term per draw, through the public partition and
oracle API only. The package's batched kernel must reproduce it bit for bit
(tests/test_kernel.py), and the permutation forms of the exact values
cross-check the package's coalition enumeration. The enumerated forms that
follow them give the Shapley value and the differential each its own
coalition loop and weights, as separate routines; the package's one plan
builder must reproduce both bit for bit, with the same oracle traffic
(tests/test_shapley.py). The additive utility scored with math.fsum over
built unions is the reference for the additive oracle's integer sums
(tests/test_additive_sums.py). The ascending-subset search after them
checks one subset at a time on its own moved partition; the engines'
chunked exact search must give its answers and counts
(tests/test_explain.py).

The last part keeps the straightforward numpy/scipy forms of three hot
numeric paths: the KDE log density and the Thompson race, which the
package's faster forms must match bit for bit (tests/test_utility.py,
tests/test_power.py), and the one-set logistic fit, which the package's
batched fit must match to 1e-12 (its products are summed in another order).
The KDE density is also kept in its textbook form, through
scipy.special.logsumexp, which the package must match to 1e-12.
It ends with an empirical monotonicity audit of any oracle.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from shapcf.core import (
    DeltaNotOwned,
    EntryId,
    MalformedInput,
    OwnerId,
    OwnerPartition,
    SameOwner,
    SingletonOwner,
    TooManyOwners,
    Transfer,
    UnknownOwner,
    apply_transfer,
)
from shapcf.power import ArmState, Sampler, Top1Result
from shapcf.shapley import Estimate
from shapcf.utility import LogRegUtility, UtilityOracle

log = logging.getLogger(__name__)

PERMUTATION_FORM_LIMIT = 8


def shapley_by_definition(
    owners: Mapping[str, frozenset[int]],
    value: Callable[[frozenset[int]], float],
) -> dict[str, float]:
    """Average marginal contribution over all owner permutations."""
    ids = sorted(owners)
    totals = {o: 0.0 for o in ids}
    count = 0
    for perm in itertools.permutations(ids):
        held: frozenset[int] = frozenset()
        prev = value(held)
        for o in perm:
            held = held | owners[o]
            cur = value(held)
            totals[o] += cur - prev
            prev = cur
        count += 1
    return {o: totals[o] / count for o in ids}


def setcover_value(
    universe: frozenset[int],
    subsets: Sequence[frozenset[int]],
    picked: frozenset[int],
) -> float:
    """Literal set-cover utility: 0 unless covering, else m - |picked| + code."""
    if not picked:
        return 0.0
    union: set[int] = set()
    for i in picked:
        union |= subsets[i - 1]
    if union != set(universe):
        return 0.0
    code = sum(2 ** i for i in picked) / 2 ** (len(universe) + 1)
    return len(universe) - len(picked) + code


def all_minimum_covers(
    universe: frozenset[int], subsets: Sequence[frozenset[int]]
) -> list[frozenset[int]]:
    """Every minimum-cardinality covering collection, by exhaustive search."""
    r = len(subsets)
    best: list[frozenset[int]] = []
    for size in range(1, r + 1):
        for combo in itertools.combinations(range(1, r + 1), size):
            union: set[int] = set()
            for i in combo:
                union |= subsets[i - 1]
            if union == set(universe):
                best.append(frozenset(combo))
        if best:
            return best
    return best


def greedy_flip_size(weights: Mapping[int, float], a: frozenset[int], b: frozenset[int]) -> int | None:
    """Minimal transfer size for disjoint additive owners, by the closed form.

    Owner values equal their weight sums, so moving a set D changes the gap by
    twice D's weight; the heaviest entries first is optimal. None when even a
    full transfer cannot flip.
    """
    gap = sum(weights[e] for e in a) - sum(weights[e] for e in b)
    assert gap > 0, "precondition: a strictly above b"
    moved = 0.0
    for k, w in enumerate(sorted((weights[e] for e in a), reverse=True), start=1):
        moved += w
        if 2.0 * moved > gap:
            return k
    return None


def merge_wasserstein(u: Sequence[float], v: Sequence[float]) -> float:
    """1-D earth mover distance via the classic sorted-merge sweep."""
    us = sorted(u)
    vs = sorted(v)
    points = sorted(set(us) | set(vs))
    if len(points) < 2:
        return 0.0
    total = 0.0
    cu = cv = 0
    iu = iv = 0
    for left, right in zip(points, points[1:]):
        while iu < len(us) and us[iu] <= left:
            cu += 1
            iu += 1
        while iv < len(vs) and vs[iv] <= left:
            cv += 1
            iv += 1
        total += abs(cu / len(us) - cv / len(vs)) * (right - left)
    return total


def normal_ci_half_width(values: Sequence[float], delta: float) -> float:
    """Plain-formula CI half-width (population SD), independent of Welford."""
    import statistics

    n = len(values)
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / n
    z = statistics.NormalDist().inv_cdf((1.0 + delta) / 2.0)
    return z * math.sqrt(var) / math.sqrt(n)


@dataclass(frozen=True)
class PermutationSample:
    """One uniformly drawn ordering of all owner ids (empty owners included)."""

    order: tuple[OwnerId, ...]

    def prefix_before(self, targets: Collection[OwnerId]) -> frozenset[OwnerId]:
        """Owners strictly before every target: the run-up to the first of them."""
        wanted = set(targets)
        missing = wanted - set(self.order)
        if missing:
            raise UnknownOwner(f"owners {sorted(missing)} absent from permutation")
        prefix: list[OwnerId] = []
        for owner in self.order:
            if owner in wanted:
                break
            prefix.append(owner)
        return frozenset(prefix)


def prefix_before_pair(
    perm: PermutationSample, a: OwnerId, b: OwnerId
) -> frozenset[OwnerId]:
    """Owners preceding both a and b in perm (a and b excluded)."""
    return perm.prefix_before((a, b))


def sample_permutation(
    partition: OwnerPartition, rng: np.random.Generator
) -> PermutationSample:
    """Draw a uniform random ordering of the partition's owners."""
    owners = partition.owner_ids()
    idx = rng.permutation(len(owners))
    return PermutationSample(tuple(owners[i] for i in idx))


def diff_sample_term(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    perm: PermutationSample,
) -> float:
    """(n/2) * [U(P + a) - U(P + b)] / (n - |P| - 1), P the owners before a and b."""
    n = partition.n
    p = prefix_before_pair(perm, a, b)
    base = partition.composed(p)
    coef = n / (2.0 * (n - len(p) - 1))
    return coef * (
        oracle.value(base | partition.entries(a)) - oracle.value(base | partition.entries(b))
    )


def power_sample(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    x: EntryId,
    perm: PermutationSample,
) -> float:
    """(n/2) * [U(P + (B+x)) - U(P + (A-x))] / (n - |P| - 1), P as above."""
    if a == b:
        raise SameOwner(f"power needs two distinct owners, got {a!r} twice")
    ents_a = partition.entries(a)
    ents_b = partition.entries(b)
    if x not in ents_a:
        raise DeltaNotOwned(f"entry {x} is not held by owner {a!r}")
    if len(ents_a) < 2:
        raise SingletonOwner(f"owner {a!r} holds only entry {x}")
    n = partition.n
    p = prefix_before_pair(perm, a, b)
    base = partition.composed(p)
    coef = n / (2.0 * (n - len(p) - 1))
    gained = base | ents_b if x in ents_b else base | ents_b | {x}
    stripped = base | (ents_a - {x})
    return coef * (oracle.value(gained) - oracle.value(stripped))


def shapley_exact_by_permutations(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    owner: OwnerId,
    *,
    owner_limit: int = PERMUTATION_FORM_LIMIT,
) -> float:
    """Exact Shapley value as the average marginal over all n! orderings."""
    n = partition.n
    if n > owner_limit:
        raise TooManyOwners(f"permutation form over {n} owners exceeds the limit {owner_limit}")
    partition.entries(owner)
    terms = []
    for perm in itertools.permutations(partition.owner_ids()):
        prefix = perm[: perm.index(owner)]
        base = partition.composed(prefix)
        terms.append(oracle.value(base | partition.entries(owner)) - oracle.value(base))
    return math.fsum(terms) / math.factorial(n)


def diff_shapley_exact_by_permutations(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    *,
    owner_limit: int = PERMUTATION_FORM_LIMIT,
) -> float:
    """Differential as a sum over all orderings."""
    n = partition.n
    if n > owner_limit:
        raise TooManyOwners(f"permutation form over {n} owners exceeds the limit {owner_limit}")
    if a == b:
        return 0.0
    ents_a = partition.entries(a)
    ents_b = partition.entries(b)
    terms = []
    for perm in itertools.permutations(partition.owner_ids()):
        p = prefix_before_pair(PermutationSample(perm), a, b)
        base = partition.composed(p)
        terms.append(
            (oracle.value(base | ents_a) - oracle.value(base | ents_b)) / (n - len(p) - 1)
        )
    return math.fsum(terms) / (2.0 * math.factorial(n - 1))


def coalition_weights(n: int) -> list[float]:
    """weights[s] = 1 / (n * C(n-1, s)): the Shapley weight of a coalition of s of n-1 owners."""
    return [1.0 / (n * math.comb(n - 1, s)) for s in range(n)]


def enumerated_shapley_exact(partition: OwnerPartition, oracle: UtilityOracle, owner: OwnerId) -> float:
    """Exact Shapley value by its own loop over the other owners' coalitions, one values() call."""
    n = partition.n
    ents = partition.entries(owner)
    others = [o for o in partition.owner_ids() if o != owner]
    weights = coalition_weights(n)
    sets, coefs = [], []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            base = partition.composed(combo)
            sets += (base | ents, base)
            coefs.append(weights[r])
    vals = oracle.values(sets)
    return math.fsum((va - vb) * w for va, vb, w in zip(vals[::2], vals[1::2], coefs))


class FsumAdditive(UtilityOracle):
    """The additive utility by its definition, on the generic gap path.

    Every union is built and goes through values(), where it is scored as
    the math.fsum of its weights: the bits AdditiveUtility's integer sums
    must give.
    """

    kind = "additive"

    def __init__(self, weights: Mapping[int, float]):
        super().__init__()
        self.weights = dict(weights)

    def _score(self, ids: frozenset[int]) -> float:
        return math.fsum(self.weights[e] for e in ids)


def enumerated_diff_weights(n: int) -> list[float]:
    """Per coalition of the other n-2 owners, in enumeration order: 1 / ((|S|+1) * C(n-1, |S|+1))."""
    return [
        1.0 / ((r + 1) * math.comb(n - 1, r + 1))
        for r in range(n - 1)
        for _ in range(math.comb(n - 2, r))
    ]


def enumerated_diff_shapley_exact(
    partition: OwnerPartition, oracle: UtilityOracle, a: OwnerId, b: OwnerId
) -> float:
    """Exact differential by its own loop over the coalitions of the other n-2 owners."""
    ents_a, ents_b = partition.entries(a), partition.entries(b)
    if a == b:
        return 0.0
    others = [o for o in partition.owner_ids() if o not in (a, b)]
    sets = []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            base = partition.composed(combo)
            sets += (base | ents_a, base | ents_b)
    vals = oracle.values(sets)
    weights = enumerated_diff_weights(partition.n)
    return math.fsum((va - vb) * w for va, vb, w in zip(vals[::2], vals[1::2], weights))


@dataclass(frozen=True)
class SearchReference:
    """The ascending-subset search of a over b, one subset per check."""

    initial: float  # the differential before any transfer
    delta: tuple[EntryId, ...]  # the first flipping subset, else all of a's entries
    tested: int  # subsets checked, the flipping one included
    final: float  # the differential once delta moves
    diffs: tuple[float, ...]  # every checked subset's differential, in check order


def first_flip_reference(
    partition: OwnerPartition, oracle: UtilityOracle, a: OwnerId, b: OwnerId
) -> SearchReference:
    """bf's search with one subset, and one moved partition, per check.

    Subsets go in ascending size, lexicographic within a size, until the
    differential falls below 0.
    """
    initial = enumerated_diff_shapley_exact(partition, oracle, a, b)
    ents = sorted(partition.entries(a))
    sizes = range(1, len(ents) + 1)
    diffs: list[float] = []
    delta = tuple(ents)
    for combo in itertools.chain.from_iterable(itertools.combinations(ents, k) for k in sizes):
        moved = apply_transfer(partition, Transfer(a, b, frozenset(combo)))
        diffs.append(enumerated_diff_shapley_exact(moved, oracle, a, b))
        if diffs[-1] < 0.0:
            delta = combo
            break
    return SearchReference(initial, delta, len(diffs), diffs[-1] if diffs else initial, tuple(diffs))


def kde_log_density_reference(train: np.ndarray, test: np.ndarray, floor: float) -> np.ndarray:
    """Product-Gaussian KDE log density: the features' exponents added one at a time, shifted only where the sum underflows.

    Each feature's (n_test, n_train) differences are squared, multiplied
    by a = -0.5 / (h * h) and added in index order: the exponent e of each
    pair. The kernel terms exp(e) are summed over train points in index
    order, as the columns of a C-ordered (n_train, n_test) array; with one
    test point numpy sums that one contiguous column pairwise. Where that
    sum falls below 2^-1000 at some test point, every point's terms are
    summed again as exp(e - lo), lo its largest exponent taken as at least
    minus the largest float, so a point whose every e is -inf sums zeros
    and gets -inf; lo is added back after the log.
    """
    n, d = train.shape
    std = train.std(axis=0)
    h = np.maximum(std * n ** (-1.0 / (d + 4)), floor)
    a = -0.5 / (h * h)

    def term(j: int) -> np.ndarray:
        z = test[:, None, j] - train[None, :, j]
        return (z * z) * a[j]

    e = term(0)
    for j in range(1, d):
        e += term(j)
    # Every reduction runs over the train axis of a C-ordered (n_train,
    # n_test) array, the layout of the package's stack: numpy's max over a
    # contiguous row may give a NaN another sign bit.
    e = np.ascontiguousarray(e.T)
    c = np.log(h).sum() + (0.5 * d * math.log(2.0 * math.pi) + math.log(n))
    s = np.exp(e).sum(axis=0)
    if not (s < 2.0**-1000).any():
        return np.log(s) - c
    lo = e.max(axis=0, initial=-np.finfo(np.float64).max)
    return np.log(np.exp(e - lo).sum(axis=0)) + lo - c


def kde_log_density_logsumexp(train: np.ndarray, test: np.ndarray, floor: float) -> np.ndarray:
    """The same density as the textbook form: the (n_test, n_train) log kernel through scipy.special.logsumexp."""
    from scipy.special import logsumexp  # here, so that a test without scipy can import this module

    n, d = train.shape
    std = train.std(axis=0)
    h = np.maximum(std * n ** (-1.0 / (d + 4)), floor)
    z = (test[:, None, :] - train[None, :, :]) / h
    log_kernel = -0.5 * (z * z).sum(axis=2) - np.log(h).sum() - 0.5 * d * math.log(2.0 * math.pi)
    return logsumexp(log_kernel, axis=1) - math.log(n)


def logreg_score_reference(oracle: LogRegUtility, ids: frozenset[int]) -> float:
    """The logistic utility's score of one set, fitted alone with BLAS products (unclamped)."""
    train, test = oracle.train, oracle.test
    hi = np.unique(np.concatenate([train.labels, test.labels]))[-1]
    idx = np.array(sorted(ids), dtype=np.intp)
    if oracle.axis == "rows":
        x, y, xt = train.features[idx], train.labels[idx] == hi, test.features
    else:
        x, y, xt = train.features[:, idx], train.labels == hi, test.features[:, idx]
    y = y.astype(np.float64)
    yt = (test.labels == hi).astype(np.float64)
    if len(np.unique(y)) < 2:
        pt = np.full(len(yt), (y.sum() + 1.0) / (len(y) + 2.0))
    else:
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        xs = np.hstack([(x - mu) / sd, np.ones((len(x), 1))])
        w = np.zeros(xs.shape[1])
        for _ in range(oracle.iters):
            p = 1.0 / (1.0 + np.exp(-xs @ w))
            grad = xs.T @ (p - y) / len(y)
            grad[:-1] += oracle.l2 * w[:-1]
            w -= oracle.lr * grad
        xts = np.hstack([(xt - mu) / sd, np.ones((len(xt), 1))])
        pt = 1.0 / (1.0 + np.exp(-xts @ w))
    pt = np.clip(pt, 1e-12, 1.0 - 1e-12)
    return oracle.eta - float(-(yt * np.log(pt) + (1.0 - yt) * np.log(1.0 - pt)).mean())


def thompson_top1_reference(
    entries: Sequence[EntryId],
    sampler: Sampler,
    rng: np.random.Generator,
    *,
    delta: float = 0.95,
    epsilon: float = 0.01,
    seed_batch: int = 8,
    batch: int = 32,
    arm_budget: int = 20_000,
    total_budget: int | None = None,
    posterior_draws: int = 256,
) -> Top1Result:
    """The Thompson top-1 race with its posterior drawn by rng.normal(means, scales, size)."""
    arms = [ArmState(entry=e, estimate=Estimate(delta=delta)) for e in sorted(entries)]
    total = 0

    def feed(arm: ArmState, k: int) -> None:
        nonlocal total
        arm.estimate.update_many(sampler(arm.entry, k, rng))
        total += k

    for arm in arms:
        feed(arm, int(seed_batch))
    while True:
        best = max(arms, key=lambda s: s.estimate.mean)
        if best.estimate.half_width <= epsilon:
            return Top1Result(best.entry, tuple(arms), total, True, False)
        if total_budget is not None and total >= total_budget:
            return Top1Result(best.entry, tuple(arms), total, False, True)
        open_arms = [s for s in arms if s.estimate.count < arm_budget]
        if not open_arms:
            return Top1Result(best.entry, tuple(arms), total, False, True)
        means = np.array([s.estimate.mean for s in arms])
        scales = np.array(
            [math.sqrt(s.estimate.variance / s.estimate.count) if s.estimate.count else 1.0 for s in arms]
        )
        draws = rng.normal(means, scales, size=(int(posterior_draws), len(arms)))
        best_idx = arms.index(best)
        p_win = float((draws.argmax(axis=1) == best_idx).mean())
        if rng.random() < p_win:
            chosen = best
        else:
            rest = [s for s in arms if s is not best]
            chosen = rest[int(rng.integers(len(rest)))] if rest else best
        if chosen.estimate.count >= arm_budget:
            chosen = open_arms[int(rng.integers(len(open_arms)))]
        room = arm_budget - chosen.estimate.count
        if total_budget is not None:
            room = min(room, total_budget - total)
        feed(chosen, max(1, min(int(batch), room)))


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
