"""Owner valuation: exact Shapley values, differentials, and their estimators.

The value of an owner is its average marginal utility contribution over owner
orderings. The pairwise differential (value of a minus value of b) collapses
into a single sum over coalitions that contain neither owner, which halves the
work and is what flip checks actually need: a's value is below b's exactly
when the differential is negative.

Every value, differential and power is a weighted sum of one gap,
U(base + x) - U(base + y), over the coalitions placed before a pair, and
one oracle method (UtilityOracle.gaps) scores it on both routes, every
pair (x, y) of entry sets over every base of a job, in one call.
Exact routines take their bases and weights from one builder
(coalition_plan), which enforces EXACT_OWNER_LIMIT, and differentials folds
the gaps with math.fsum, so owners with identical entry sets get
bitwise-equal values regardless of enumeration order. The Monte Carlo
routines draw owner permutations in batches (core.draw_prefixes holds the
draws and groups them by prefix); sampled_terms scores each distinct
prefix's gap once per call (or per flip check or race arm) with the weight
n / (2(n - |P| - 1)). shapley_mc walks the same batched draws and computes
each distinct coalition's value once per call. They are unbiased for any
utility.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DeltaNotOwned,
    OwnerId,
    OwnerPartition,
    SameOwner,
    TooManyOwners,
    draw_chunks,
    draw_prefixes,
)
from .utility import UtilityOracle

EXACT_OWNER_LIMIT = 12

# Orderings a sequential flip check draws between two looks at its interval.
FLIP_BATCH = 64


@lru_cache(maxsize=64)
def z_quantile(delta: float) -> float:
    """Two-sided normal quantile: z such that P(|Z| <= z) = delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    # Imported here, not at load: it brings decimal and fractions, and only sampled intervals need it.
    from statistics import NormalDist

    return NormalDist().inv_cdf((1.0 + delta) / 2.0)


@dataclass
class Estimate:
    """Online mean/variance accumulator with a normal confidence interval.

    Uses Welford updates; merge() combines two accumulators exactly as if all
    samples had been fed to one, so runs can be sharded and recombined. The
    half-width uses the population variance m2/count and is infinite below
    two samples.
    """

    delta: float = 0.95
    mean: float = 0.0
    count: int = 0
    m2: float = 0.0

    def update(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError(f"estimate term must be finite, got {x}")
        self.count += 1
        d = x - self.mean
        self.mean += d / self.count
        self.m2 += d * (x - self.mean)

    def update_many(self, xs) -> None:
        """update() for each term in order; the same bits, one finiteness check."""
        xs = np.asarray(xs, dtype=np.float64)
        if not np.isfinite(xs).all():
            raise ValueError("estimate terms must be finite")
        count, mean, m2 = self.count, self.mean, self.m2
        for x in xs.tolist():
            count += 1
            d = x - mean
            mean += d / count
            m2 += d * (x - mean)
        self.count, self.mean, self.m2 = count, mean, m2

    def merge(self, other: "Estimate") -> "Estimate":
        if other.count == 0:
            return Estimate(self.delta, self.mean, self.count, self.m2)
        if self.count == 0:
            return Estimate(self.delta, other.mean, other.count, other.m2)
        n = self.count + other.count
        d = other.mean - self.mean
        mean = self.mean + d * other.count / n
        m2 = self.m2 + other.m2 + d * d * self.count * other.count / n
        return Estimate(self.delta, mean, n, m2)

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else math.inf

    @property
    def half_width(self) -> float:
        if self.count < 2:
            return math.inf
        return z_quantile(self.delta) * math.sqrt(self.m2 / self.count) / math.sqrt(self.count)

    def ci(self) -> tuple[float, float]:
        hw = self.half_width
        return self.mean - hw, self.mean + hw


def coalition_plan(
    partition: OwnerPartition, *excluded: OwnerId
) -> tuple[list[frozenset[int]], list[float]]:
    """Every coalition S of the owners not in `excluded`: its entry union and Shapley weight.

    S (by size, then combinations order) has weight 1 / (m * C(m-1, |S|)),
    where m = |others| + 1. Excluding one owner gives the terms of its
    Shapley value (m = n); excluding a and b gives the terms of their
    differential (m = n - 1, the weight 1 / ((|S|+1) * C(n-1, |S|+1)) as an
    integer identity). A transfer between a and b changes none of the
    latter: one plan serves them all.

    Each union is built once, here: the union of S without its last owner
    (listed before S) joined with that owner's entries.
    """
    n = partition.n
    if n > EXACT_OWNER_LIMIT:
        what = "Shapley" if len(excluded) == 1 else "differential"
        raise TooManyOwners(f"exact {what} over {n} owners exceeds the limit {EXACT_OWNER_LIMIT}")
    others = [o for o in partition.owner_ids() if o not in excluded]
    m = len(others) + 1
    unions: dict[tuple[OwnerId, ...], frozenset[int]] = {(): frozenset()}
    weights = []
    for r in range(m):
        w = 1.0 / (m * math.comb(m - 1, r))
        for combo in itertools.combinations(others, r):
            if r:
                unions[combo] = unions[combo[:-1]] | partition.owners[combo[-1]]
            weights.append(w)
    return list(unions.values()), weights


def shapley_exact(partition: OwnerPartition, oracle: UtilityOracle, owner: OwnerId) -> float:
    """Exact Shapley value: the plan's weighted gaps U(S + owner) - U(S) (2^(n-1) coalitions)."""
    ents = partition.entries(owner)  # an unknown owner raises before any union is built
    return differentials(oracle, [(coalition_plan(partition, owner), [(ents, frozenset())])])[0]


def shapley_exact_all(partition: OwnerPartition, oracle: UtilityOracle) -> dict[OwnerId, float]:
    return {o: shapley_exact(partition, oracle, o) for o in partition.owner_ids()}


def differentials(
    oracle: UtilityOracle,
    jobs: list[tuple[tuple[list[frozenset[int]], list[float]], list[tuple[frozenset[int], frozenset[int]]]]],
) -> list[float]:
    """The exact differential of x over y on a coalition plan, for each job's entry-set pairs (x, y).

    A job is (plan, pairs); the result lists every job's differentials in
    turn. Each is the fsum of the pair's gaps times its plan's weights, and
    every job goes to the oracle in one gaps() call: plans of several
    partitions share it, and a single plan is the one-job case.
    """
    found = iter(oracle.gaps([(plan[0], pairs) for plan, pairs in jobs]))
    # weights first: map stops at their end and takes no extra gap
    return [math.fsum(map(operator.mul, weights, found)) for (_, weights), pairs in jobs for _ in pairs]


def diff_shapley_exact(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
) -> float:
    """Exact differential (value of a minus value of b) by coalition enumeration.

    Sums [U(S + a) - U(S + b)] / ((|S|+1) * C(n-1, |S|+1)) over coalitions S
    drawn from the other n-2 owners. Equals shapley_exact(a) - shapley_exact(b).
    """
    ents = (partition.entries(a), partition.entries(b))  # an unknown owner raises even when a == b
    plan = coalition_plan(partition, a, b)
    return differentials(oracle, [(plan, [ents])])[0] if a != b else 0.0


def sampled_terms(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    targets: tuple[OwnerId, OwnerId],
    pair: tuple[frozenset[int], frozenset[int]],
    memo: dict[bytes, float],
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Single-permutation differential terms of k drawn orderings, in draw order.

    With P the owners placed before both targets and (x, y) the entry-set
    pair, the term is (n/2) * [U(P + x) - U(P + y)] / (n - |P| - 1);
    averaging over uniform orderings recovers the exact differential. Each
    chunk's distinct prefixes not yet in memo (prefix key to term) have
    their gaps scored in one gaps() call, and memo keeps their terms.
    """
    ids, n = partition.owner_ids(), partition.n
    chunks = []
    for keys, masks, inverse in draw_prefixes(partition, targets, int(k), rng):
        terms = [memo.get(key) for key in keys]
        todo = [i for i, term in enumerate(terms) if term is None]
        if todo:
            prefixes = [[o for o, inside in zip(ids, row) if inside] for row in masks[todo].tolist()]
            found = oracle.gaps([([partition.composed(prefix) for prefix in prefixes], [pair])])
            for i, prefix, gap in zip(todo, prefixes, found):
                terms[i] = memo[keys[i]] = n / (2.0 * (n - len(prefix) - 1)) * gap
        chunks.append(np.array(terms, dtype=np.float64)[inverse])
    return np.concatenate(chunks) if chunks else np.empty(0)


def diff_shapley_mc(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator,
    *,
    delta: float = 0.95,
    budget: int = 1000,
) -> Estimate:
    """Monte Carlo differential estimate from `budget` permutation draws.

    With a == b every term is identically zero, so the estimate is returned
    directly without touching the oracle.
    """
    ents_a = partition.entries(a)
    ents_b = partition.entries(b)
    est = Estimate(delta=delta)
    if a == b:
        est.count = int(budget)
        return est
    est.update_many(sampled_terms(partition, oracle, (a, b), (ents_a, ents_b), {}, budget, rng))
    return est


def shapley_mc(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    rng: np.random.Generator,
    *,
    delta: float = 0.95,
    budget: int = 1000,
) -> dict[OwnerId, Estimate]:
    """Per-owner Shapley estimates from shared permutation draws.

    Each ordering is walked once, crediting every owner its marginal
    contribution to the owners before it, so one draw advances all owners
    together. Coalition values are memoised by owner bitmask for the call: a
    coalition seen before costs one dict lookup, a new one one set union (the
    running union is rebuilt only after a run of memo hits) and one oracle call.
    The oracle's own memo would hold a second copy of every value under a
    frozenset key, hit only where two coalitions compose the same entries,
    so build the oracle with cache=False for this call (as `shapcf shapley
    --mc` does).
    """
    ids = partition.owner_ids()
    ents = [partition.entries(o) for o in ids]
    bits = [1 << i for i in range(len(ids))]
    ests = [Estimate(delta=delta) for _ in ids]
    values: dict[int, float] = {}
    for orders in draw_chunks(len(ids), int(budget), rng):
        terms: list[list[float]] = [[] for _ in ids]
        for row in orders.tolist():
            mask, prev, composed = 0, 0.0, frozenset()
            for j, o in enumerate(row):
                mask |= bits[o]
                cur = values.get(mask)
                if cur is None:
                    if composed is None:
                        composed = frozenset().union(*(ents[p] for p in row[:j]))
                    composed = composed | ents[o]
                    cur = values[mask] = oracle.value(composed)
                else:
                    composed = None
                terms[o].append(cur - prev)
                prev = cur
        for est, xs in zip(ests, terms):
            est.update_many(xs)
    return dict(zip(ids, ests))


@dataclass(frozen=True)
class FlipResult:
    """Outcome of a sequential flip check between two owners.

    verdict "flipped" means the differential is decisively negative (a is
    worth less than b), "not_flipped" decisively positive, "undecided" means
    the interval still straddles zero when sampling stopped.
    """

    verdict: str
    estimate: Estimate
    budget_exhausted: bool = False

    def swapped(self) -> "FlipResult":
        """The same evidence read for the pair in the opposite order."""
        est = Estimate(self.estimate.delta, -self.estimate.mean, self.estimate.count, self.estimate.m2)
        flip = {"flipped": "not_flipped", "not_flipped": "flipped"}
        return FlipResult(flip.get(self.verdict, self.verdict), est, self.budget_exhausted)


def shift_sets(
    partition: OwnerPartition, a: OwnerId, b: OwnerId, moved: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """The entry sets (A - moved, B + moved) of owners a and b once a gives `moved` to b.

    Raises SameOwner for a == b and DeltaNotOwned for entries of `moved` that a does not hold.
    """
    if a == b:
        raise SameOwner(f"a shift needs two distinct owners, got {a!r} twice")
    ents_a = partition.entries(a)
    if not moved <= ents_a:
        raise DeltaNotOwned(f"entries {sorted(moved - ents_a)} are not held by owner {a!r}")
    return ents_a - moved, partition.entries(b) | moved


def is_flipped(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator,
    *,
    delta: float = 0.95,
    budget: int = 100_000,
    width_stop: float | None = None,
    moved: frozenset[int] = frozenset(),
) -> FlipResult:
    """Sequential test of whether owner a has fallen below owner b once a gives `moved` to b.

    Samples differential terms, FLIP_BATCH orderings at a time, until the
    delta-confidence interval excludes zero, the optional width_stop
    half-width is reached, or the permutation budget runs out (verdict
    "undecided", budget_exhausted set). A prefix never holds a or b, so the
    check is bit for bit the one on the partition after the transfer.
    """
    pair = shift_sets(partition, a, b, moved)
    memo: dict[bytes, float] = {}
    est = Estimate(delta=delta)
    budget = int(budget)
    while est.count < budget:
        n_draw = min(FLIP_BATCH, budget - est.count)
        est.update_many(sampled_terms(partition, oracle, (a, b), pair, memo, n_draw, rng))
        lo, hi = est.ci()
        if hi < 0.0:
            return FlipResult("flipped", est)
        if lo > 0.0:
            return FlipResult("not_flipped", est)
        if width_stop is not None and est.half_width <= width_stop:
            return FlipResult("undecided", est)
    return FlipResult("undecided", est, budget_exhausted=True)
