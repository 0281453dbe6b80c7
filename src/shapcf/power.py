"""Power of an entry: how much moving it from owner a to owner b closes the gap.

The power of entry x (held by a) against the pair (a, b) is the differential
value of b over a AFTER x is transferred: positive power means the move pushes
the pair toward a flip. It equals an exact differential on the transferred
partition, and it admits the same single-permutation unbiased sampling as the
plain differential.

thompson_top1 races the candidate entries as bandit arms with normal posterior
sampling to find the highest-power entry without exhausting samples on
obviously weak candidates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    DeltaNotOwned,
    EntryId,
    OwnerId,
    OwnerPartition,
    SameOwner,
    SingletonOwner,
    Transfer,
    apply_transfer,
    sample_terms,
)
from .shapley import Estimate, diff_shapley_exact, differential_term
from .utility import UtilityOracle

Sampler = Callable[[EntryId, int, np.random.Generator], Sequence[float]]

# The Thompson race: samples that seed every arm, samples per later batch, and
# joint posterior draws that estimate the leader's win rate before each batch.
RACE_SEED_BATCH = 8
RACE_BATCH = 32
RACE_POSTERIOR_DRAWS = 256


def _check_power_args(
    partition: OwnerPartition, a: OwnerId, b: OwnerId, x: EntryId
) -> tuple[frozenset[EntryId], frozenset[EntryId]]:
    if a == b:
        raise SameOwner(f"power needs two distinct owners, got {a!r} twice")
    ents_a = partition.entries(a)
    ents_b = partition.entries(b)
    if x not in ents_a:
        raise DeltaNotOwned(f"entry {x} is not held by owner {a!r}")
    if len(ents_a) < 2:
        raise SingletonOwner(f"owner {a!r} holds only entry {x}; its power is undefined")
    return ents_a, ents_b


def make_power_sampler(
    partition: OwnerPartition, oracle: UtilityOracle, a: OwnerId, b: OwnerId
) -> Sampler:
    """Sampler of k power terms of an entry, from k fresh permutations per request.

    With P the owners preceding both a and b, an entry x's term compares b
    holding x against a stripped of x:
    (n/2) * [U(P + (B+x)) - U(P + (A-x))] / (n - |P| - 1).
    The arguments are checked before any draw. Each entry's terms are
    memoised by prefix for the sampler's life (one race), since a term
    depends only on the entry and the prefix.
    """
    memos: dict[EntryId, dict[bytes, float]] = {}

    def sampler(entry: EntryId, k: int, rng: np.random.Generator) -> np.ndarray:
        ents_a, ents_b = _check_power_args(partition, a, b, entry)
        gain = ents_b if entry in ents_b else ents_b | {entry}
        term = differential_term(partition, oracle, gain, ents_a - {entry})
        return sample_terms(partition, (a, b), term, memos.setdefault(entry, {}), int(k), rng)

    return sampler


def power_mc(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    x: EntryId,
    rng: np.random.Generator,
    *,
    delta: float = 0.95,
    budget: int = 1000,
) -> Estimate:
    """Monte Carlo power estimate from `budget` permutation draws."""
    est = Estimate(delta=delta)
    est.update_many(make_power_sampler(partition, oracle, a, b)(x, int(budget), rng))
    return est


def power_exact(
    partition: OwnerPartition, oracle: UtilityOracle, a: OwnerId, b: OwnerId, x: EntryId
) -> float:
    """Exact power: the differential of b over a on the transferred partition."""
    _check_power_args(partition, a, b, x)
    moved = apply_transfer(partition, Transfer(a, b, frozenset({x})))
    return diff_shapley_exact(moved, oracle, b, a)


@dataclass
class ArmState:
    """One candidate entry in the top-1 race."""

    entry: EntryId
    estimate: Estimate


@dataclass(frozen=True)
class Top1Result:
    """Winner of a top-1 race plus the evidence behind it.

    converged means the leader's half-width reached epsilon;
    budget_exhausted means sampling stopped on a cap instead.
    """

    entry: EntryId
    arms: tuple[ArmState, ...]
    samples: int
    converged: bool
    budget_exhausted: bool


def thompson_top1(
    entries: Sequence[EntryId],
    sampler: Sampler,
    rng: np.random.Generator,
    *,
    delta: float = 0.95,
    epsilon: float = 0.01,
    arm_budget: int = 20_000,
    total_budget: int | None = None,
) -> Top1Result:
    """Race the entries and return the one with the highest estimated value.

    Every arm is seeded with RACE_SEED_BATCH samples, then batches go to the
    empirical leader with probability equal to its posterior win rate (normal
    posteriors, joint draws) and to a uniformly random challenger otherwise.
    The race ends when the leader's interval half-width is at most epsilon, or
    when per-arm/total budgets run out (best-so-far returned, flagged).
    """
    if not entries:
        raise ValueError("thompson_top1 needs at least one candidate entry")
    arms = [ArmState(entry=e, estimate=Estimate(delta=delta)) for e in sorted(entries)]
    total = 0

    def feed(arm: ArmState, k: int) -> None:
        nonlocal total
        arm.estimate.update_many(sampler(arm.entry, k, rng))
        total += k

    for arm in arms:
        feed(arm, RACE_SEED_BATCH)

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
        # The draws and final generator state of rng.normal(means, scales, size),
        # bit for bit, without its per-call broadcasting overhead.
        draws = rng.standard_normal((RACE_POSTERIOR_DRAWS, len(arms))) * scales + means
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
        feed(chosen, max(1, min(RACE_BATCH, room)))
