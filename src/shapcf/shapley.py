"""Owner valuation: exact Shapley values, differentials, and their estimators.

The value of an owner is its average marginal utility contribution over owner
orderings. The pairwise differential (value of a minus value of b) collapses
into a single sum over coalitions that contain neither owner, which halves the
work and is what flip checks actually need: a's value is below b's exactly
when the differential is negative.

Exact routines take their coalitions from one builder (coalition_plan),
which enforces EXACT_OWNER_LIMIT, and score them in one batched oracle call.
The Monte Carlo routines draw owner permutations in batches through the core
kernel, which computes each distinct prefix's term once per call (or per flip
check); shapley_mc walks the same batched draws and computes each distinct
coalition's value once per call. They are unbiased for any utility. Sums in
the exact routines use math.fsum, so owners with identical entry sets get
bitwise-equal values regardless of enumeration order.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .core import (
    OwnerId,
    OwnerPartition,
    SameOwner,
    TooManyOwners,
    draw_chunks,
    sample_terms,
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


def fold_gaps(values: list[float], weights: list[float]) -> float:
    """fsum of (values[2i] - values[2i+1]) * weights[i]: an exact routine's weighted gaps."""
    return math.fsum((va - vb) * w for va, vb, w in zip(values[::2], values[1::2], weights))


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
    """
    n = partition.n
    if n > EXACT_OWNER_LIMIT:
        what = "Shapley" if len(excluded) == 1 else "differential"
        raise TooManyOwners(f"exact {what} over {n} owners exceeds the limit {EXACT_OWNER_LIMIT}")
    others = [o for o in partition.owner_ids() if o not in excluded]
    m = len(others) + 1
    bases, weights = [], []
    for r in range(m):
        w = 1.0 / (m * math.comb(m - 1, r))
        for combo in itertools.combinations(others, r):
            bases.append(partition.composed(combo))
            weights.append(w)
    return bases, weights


def shapley_exact(partition: OwnerPartition, oracle: UtilityOracle, owner: OwnerId) -> float:
    """Exact Shapley value: the plan's weighted gaps U(S + owner) - U(S) (2^(n-1) coalitions)."""
    ents = partition.entries(owner)  # an unknown owner raises before any union is built
    bases, weights = coalition_plan(partition, owner)
    return fold_gaps(oracle.values([s for base in bases for s in (base | ents, base)]), weights)


def shapley_exact_all(partition: OwnerPartition, oracle: UtilityOracle) -> dict[OwnerId, float]:
    return {o: shapley_exact(partition, oracle, o) for o in partition.owner_ids()}


def differentials(
    oracle: UtilityOracle,
    plan: tuple[list[frozenset[int]], list[float]],
    pairs: list[tuple[frozenset[int], frozenset[int]]],
) -> list[float]:
    """The exact differential of x over y on a coalition plan, for each entry-set pair (x, y).

    Each is fold_gaps of the values of base + x and base + y for each base,
    in that order; every pair's sets go to the oracle in one values() call.
    """
    bases, weights = plan
    vals = oracle.values([s for x, y in pairs for base in bases for s in (base | x, base | y)])
    k = 2 * len(bases)
    return [fold_gaps(vals[i : i + k], weights) for i in range(0, len(vals), k)]


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
    return differentials(oracle, plan, [ents])[0] if a != b else 0.0


def differential_term(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    ents_a: frozenset[int],
    ents_b: frozenset[int],
) -> Callable[[list[list[OwnerId]]], list[float]]:
    """Single-permutation differential terms, as a function of a list of prefixes.

    With P the owners preceding both members of the pair, whose entry sets
    are ents_a and ents_b, the term is
    (n/2) * [U(P + ents_a) - U(P + ents_b)] / (n - |P| - 1); averaging over
    uniform orderings recovers the exact differential. The composed sets of
    all the prefixes go to the oracle in one values() call.
    """
    n = partition.n

    def term(prefixes: list[list[OwnerId]]) -> list[float]:
        sets = []
        for prefix in prefixes:
            base = partition.composed(prefix)
            sets += (base | ents_a, base | ents_b)
        vals = oracle.values(sets)
        return [
            n / (2.0 * (n - len(prefix) - 1)) * (va - vb)
            for prefix, va, vb in zip(prefixes, vals[::2], vals[1::2])
        ]

    return term


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
    term = differential_term(partition, oracle, ents_a, ents_b)
    est.update_many(sample_terms(partition, (a, b), term, {}, int(budget), rng))
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
) -> FlipResult:
    """Sequential test of whether owner a has fallen below owner b.

    Samples differential terms, FLIP_BATCH orderings at a time, until the
    delta-confidence interval excludes zero, the optional width_stop
    half-width is reached, or the permutation budget runs out (verdict
    "undecided", budget_exhausted set).
    """
    if a == b:
        raise SameOwner(f"flip check needs two distinct owners, got {a!r} twice")
    term = differential_term(partition, oracle, partition.entries(a), partition.entries(b))
    memo: dict[bytes, float] = {}
    est = Estimate(delta=delta)
    budget = int(budget)
    while est.count < budget:
        n_draw = min(FLIP_BATCH, budget - est.count)
        est.update_many(sample_terms(partition, (a, b), term, memo, n_draw, rng))
        lo, hi = est.ci()
        if hi < 0.0:
            return FlipResult("flipped", est)
        if lo > 0.0:
            return FlipResult("not_flipped", est)
        if width_stop is not None and est.half_width <= width_stop:
            return FlipResult("undecided", est)
    return FlipResult("undecided", est, budget_exhausted=True)
