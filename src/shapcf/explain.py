"""Counterfactual transfer sets: which entries must a give b to flip their rank.

Given owners a and b with a currently valued above b, an explanation is a
subset of a's entries whose transfer to b makes b's Shapley value exceed a's.
Three engines trade optimality for speed:

- bruteforce: exact differentials, subsets enumerated in ascending size, so
  the first hit is minimum-cardinality. Exponential; guarded by size limits.
- mc: the same ascending enumeration, but each subset is judged by a
  sequential Monte Carlo flip check. Near-minimal answers at a fraction of
  the evaluations.
- svexp: greedy growth guided by a Thompson-sampling race over per-entry
  powers; each round transfers the entry currently most able to close the
  gap, then re-checks the pair. Scales to owner sizes where enumeration is
  hopeless, possibly overshooting the minimal size.

All engines verify their answer with a fresh flip check before reporting
success, report partial progress on wall-clock timeout, and never raise for
soft outcomes (statuses cover those); malformed requests raise.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    EntryId,
    OwnerId,
    OwnerPartition,
    SameOwner,
    TooLarge,
    Transfer,
    apply_transfer,
)
from .power import Top1Result, make_power_sampler, thompson_top1
from .shapley import Estimate, FlipResult, diff_shapley_exact, is_flipped
from .utility import UtilityOracle

STATUS_OK = "ok"
STATUS_NOT_MET = "precondition_not_met"
STATUS_UNDECIDED = "precondition_undecided"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs shared by the engines; defaults suit desk-scale runs."""

    delta: float = 0.95
    epsilon: float = 0.01
    check_budget: int = 20_000
    verify_budget: int | None = None
    batch: int = 64
    width_stop: float = 0.01
    seed_batch: int = 8
    bandit_batch: int = 32
    arm_budget: int = 20_000
    bandit_budget: int | None = None
    posterior_draws: int = 256
    timeout: float = 7200.0
    owner_limit: int = 12
    bf_entry_limit: int = 20

    def verify(self) -> int:
        return self.verify_budget if self.verify_budget is not None else 2 * self.check_budget


@dataclass(frozen=True)
class TransferStep:
    """One greedy round: the entry moved and the evidence behind the move."""

    entry: EntryId
    power_mean: float
    power_half_width: float
    bandit_samples: int
    bandit_converged: bool
    check_verdict: str
    check_mean: float
    check_half_width: float
    check_samples: int


@dataclass(frozen=True)
class CounterfactualResult:
    """Outcome of one explanation request.

    status "ok" means the search ran to completion (the transfer set may still
    fail to flip when even moving everything does not help: success is False
    then). delta is the transferred entry set in ascending order. Estimated
    quantities carry half-widths; exact engines report 0.0 there.
    """

    engine: str
    a: OwnerId
    b: OwnerId
    status: str
    delta: tuple[EntryId, ...]
    success: bool
    initial_diff: float
    initial_half_width: float
    final_diff: float | None
    final_half_width: float | None
    samples_used: int
    subsets_tested: int
    steps: tuple[TransferStep, ...] = ()
    timed_out: bool = False
    budget_exhausted: bool = False
    wall_time: float = 0.0

    @property
    def size(self) -> int:
        return len(self.delta)

    def to_dict(self, *, include_timing: bool = False) -> dict:
        out = asdict(self)
        out["delta"] = [int(e) for e in self.delta]
        out["size"] = self.size
        out["steps"] = [dict(step, entry=int(step["entry"])) for step in out["steps"]]
        if not include_timing:
            del out["wall_time"]
        return out


def _subsets(entries: list[EntryId]):
    """Non-empty subsets in ascending size, lexicographic within a size."""
    return itertools.chain.from_iterable(
        itertools.combinations(entries, size) for size in range(1, len(entries) + 1)
    )


class _Request:
    """One explanation request: its pair, rng, config, clock and sample counters.

    Every flip check of an engine goes through `check`, and every result is
    built by `done`, so the counters and the deadline live in one place.
    """

    def __init__(
        self,
        engine: str,
        partition: OwnerPartition,
        oracle: UtilityOracle,
        a: OwnerId,
        b: OwnerId,
        rng: np.random.Generator | None,
        config: ExplainConfig | None,
    ) -> None:
        if a == b:
            raise SameOwner(f"explanation needs two distinct owners, got {a!r} twice")
        partition.entries(a)
        partition.entries(b)
        self.engine, self.partition, self.oracle = engine, partition, oracle
        self.a, self.b, self.rng = a, b, rng
        self.cfg = config or ExplainConfig()
        self.start = time.monotonic()
        self.samples = 0
        self.exhausted = False
        self.initial_diff = self.initial_half_width = 0.0

    def expired(self) -> bool:
        return time.monotonic() - self.start > self.cfg.timeout

    def moved(self, delta: Iterable[EntryId]) -> OwnerPartition:
        """The request's partition after a gives `delta` to b."""
        return apply_transfer(self.partition, Transfer(self.a, self.b, frozenset(delta)))

    def check(self, partition: OwnerPartition, budget: int) -> FlipResult:
        """Sequential flip check of the pair on `partition`, counted."""
        cfg = self.cfg
        res = is_flipped(
            partition, self.oracle, self.a, self.b, self.rng,
            delta=cfg.delta, budget=budget, batch=cfg.batch, width_stop=cfg.width_stop,
        )
        self.samples += res.estimate.count
        self.exhausted |= res.budget_exhausted
        return res

    def precheck(self, initial: FlipResult | None) -> str | None:
        """Check that a is above b; return the failed-precondition status, if any.

        A supplied `initial` check is reused without counting its samples.
        A width stop of cfg.width_stop is exactly the adaptive
        eps = width_stop * max(1, |mean|) rule here: with the interval still
        straddling zero the half-width exceeds |mean|, so the adaptive branch
        with |mean| > 1 can never fire first.
        """
        if initial is None:
            pre = self.check(self.partition, self.cfg.check_budget)
        else:
            pre = initial
            self.exhausted |= pre.budget_exhausted
        self.initial_diff = pre.estimate.mean
        self.initial_half_width = pre.estimate.half_width if pre.estimate.count >= 2 else 0.0
        return {"flipped": STATUS_NOT_MET, "undecided": STATUS_UNDECIDED}.get(pre.verdict)

    def done(
        self,
        status: str,
        delta: Iterable[EntryId] = (),
        success: bool = False,
        final: Estimate | float | None = None,
        tested: int = 0,
        steps: Iterable[TransferStep] = (),
    ) -> CounterfactualResult:
        """The result; a float `final` is an exact differential (half-width 0)."""
        if isinstance(final, Estimate):
            final_diff, final_half_width = final.mean, final.half_width
        else:
            final_diff, final_half_width = final, None if final is None else 0.0
        return CounterfactualResult(
            engine=self.engine,
            a=self.a,
            b=self.b,
            status=status,
            delta=tuple(sorted(delta)),
            success=success,
            initial_diff=self.initial_diff,
            initial_half_width=self.initial_half_width,
            final_diff=final_diff,
            final_half_width=final_half_width,
            samples_used=self.samples,
            subsets_tested=tested,
            steps=tuple(steps),
            timed_out=status == STATUS_TIMEOUT,
            budget_exhausted=self.exhausted,
            wall_time=time.monotonic() - self.start,
        )


def explain_bruteforce(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    *,
    config: ExplainConfig | None = None,
    initial: FlipResult | None = None,
) -> CounterfactualResult:
    """Minimum-cardinality transfer set by exact ascending-size enumeration.

    Subsets of equal size are tried in lexicographic entry order, so ties
    break deterministically toward the smallest entry ids. `initial` is
    ignored: this engine decides the precondition exactly.
    """
    req = _Request("bf", partition, oracle, a, b, None, config)
    cfg = req.cfg
    del initial
    ents = sorted(partition.entries(a))
    if len(ents) > cfg.bf_entry_limit:
        raise TooLarge(
            f"brute force over {len(ents)} entries exceeds the limit {cfg.bf_entry_limit}"
        )

    def diff(delta) -> float:
        return diff_shapley_exact(req.moved(delta), oracle, a, b, owner_limit=cfg.owner_limit)

    req.initial_diff = diff(())
    if req.initial_diff <= 0.0:
        return req.done(STATUS_NOT_MET)
    tested = 0
    for combo in _subsets(ents):
        if req.expired():
            return req.done(STATUS_TIMEOUT, tested=tested)
        d = diff(combo)
        tested += 1
        if d < 0.0:
            return req.done(STATUS_OK, combo, True, d, tested)
    # Even the full transfer does not flip; hand back everything as the
    # best-effort answer.
    return req.done(STATUS_OK, ents, False, diff(ents), tested)


def explain_mc(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator,
    *,
    config: ExplainConfig | None = None,
    initial: FlipResult | None = None,
) -> CounterfactualResult:
    """Ascending-size search with Monte Carlo flip checks.

    Each candidate subset gets a fresh sequential check with check_budget
    permutations; undecided checks count as not flipped. The first flipped
    subset (or, failing that, all of a's entries) is re-verified with
    verify_budget permutations before reporting success.
    """
    req = _Request("mc", partition, oracle, a, b, rng, config)
    cfg = req.cfg
    ents = sorted(partition.entries(a))
    status = req.precheck(initial)
    if status is not None:
        return req.done(status)
    tested = 0
    for combo in _subsets(ents):
        if req.expired():
            return req.done(STATUS_TIMEOUT, tested=tested)
        check = req.check(req.moved(combo), cfg.check_budget)
        tested += 1
        if check.verdict == "flipped":
            break
    else:
        combo = ents
    final = req.check(req.moved(combo), cfg.verify())
    return req.done(STATUS_OK, combo, final.verdict == "flipped", final.estimate, tested)


def explain_svexp(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator,
    *,
    config: ExplainConfig | None = None,
    initial: FlipResult | None = None,
) -> CounterfactualResult:
    """Greedy transfer loop guided by a Thompson top-1 race over entry powers.

    Each round races a's remaining entries (a forced pick when only one is
    left), transfers the winner, and re-checks the pair. Stops on a flip, on
    timeout, or when a has nothing left to give.
    """
    req = _Request("svexp", partition, oracle, a, b, rng, config)
    cfg = req.cfg
    status = req.precheck(initial)
    if status is not None:
        return req.done(status)

    steps: list[TransferStep] = []
    transferred: list[EntryId] = []
    current = partition
    while remaining := sorted(current.entries(a)):
        if req.expired():
            return req.done(STATUS_TIMEOUT, transferred, tested=len(steps), steps=steps)

        if len(remaining) == 1:
            # Power of a lone entry is undefined; the pick is forced anyway.
            pick: Top1Result | None = None
            entry = remaining[0]
        else:
            pick = thompson_top1(
                remaining,
                make_power_sampler(current, oracle, a, b),
                rng,
                delta=cfg.delta,
                epsilon=cfg.epsilon,
                seed_batch=cfg.seed_batch,
                batch=cfg.bandit_batch,
                arm_budget=cfg.arm_budget,
                total_budget=cfg.bandit_budget,
                posterior_draws=cfg.posterior_draws,
            )
            req.samples += pick.samples
            req.exhausted |= pick.budget_exhausted
            entry = pick.entry

        current = apply_transfer(current, Transfer(a, b, frozenset({entry})))
        transferred.append(entry)
        check = req.check(current, cfg.check_budget)
        if pick is None:
            power_mean, power_hw, bandit_n, bandit_ok = 0.0, 0.0, 0, True
        else:
            arm = next(s for s in pick.arms if s.entry == entry)
            power_mean = arm.estimate.mean
            power_hw = arm.estimate.half_width
            bandit_n, bandit_ok = pick.samples, pick.converged
        steps.append(
            TransferStep(
                entry=entry,
                power_mean=power_mean,
                power_half_width=power_hw,
                bandit_samples=bandit_n,
                bandit_converged=bandit_ok,
                check_verdict=check.verdict,
                check_mean=check.estimate.mean,
                check_half_width=check.estimate.half_width,
                check_samples=check.estimate.count,
            )
        )
        if check.verdict == "flipped":
            break

    final = req.check(current, cfg.verify())
    return req.done(
        STATUS_OK, transferred, final.verdict == "flipped", final.estimate, len(steps), steps
    )


ENGINES = {
    "bf": explain_bruteforce,
    "mc": explain_mc,
    "svexp": explain_svexp,
}


def explain(
    engine: str,
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator | None = None,
    *,
    config: ExplainConfig | None = None,
    initial: FlipResult | None = None,
) -> CounterfactualResult:
    """Dispatch to an engine by name ("bf", "mc", "svexp")."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}")
    if engine == "bf":
        return explain_bruteforce(partition, oracle, a, b, config=config, initial=initial)
    if rng is None:
        raise ValueError(f"engine {engine!r} needs an rng")
    return ENGINES[engine](partition, oracle, a, b, rng, config=config, initial=initial)
