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

All engines verify their answer before reporting success (a fresh sampled
check, or the last exact one), report partial progress on wall-clock timeout,
and never raise for soft outcomes (statuses cover those); malformed requests raise.

A pair's differential and an entry's power depend on an ordering only
through the prefix of owners placed before both members of the pair, and n
owners leave 2^(n-2) such prefixes. While that is at most EXACT_PREFIXES,
flip checks and svexp's race enumerate the prefixes instead of sampling
orderings: exact answers that draw nothing from the rng. A request scores
each shift X as the entry sets (A - X, B | X) on its own partition (on one
shapley.coalition_plan when exact). Pair selection's checked request is
explain's `pair`: one plan and one precondition check for every engine.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    COUNT_RULE,
    EntryId,
    MalformedInput,
    OwnerId,
    OwnerPartition,
    Rule,
    SameOwner,
    TooLarge,
    check_values,
    is_number,
)
from .power import ArmState, Top1Result, make_power_sampler, thompson_top1
from .shapley import Estimate, FlipResult, coalition_plan, differentials, is_flipped
from .shapley import diff_shapley_exact  # unused here; perfbench/tracing.py wraps this name
from .utility import UtilityOracle

STATUS_OK = "ok"
STATUS_NOT_MET = "precondition_not_met"
STATUS_UNDECIDED = "precondition_undecided"
STATUS_TIMEOUT = "timeout"

# Largest prefix count 2^(n-2) at which checks and races are exact: n <= 9
# owners. Timed against the sampled path (README, "How sampling works"), the
# exact one is faster on a KDE utility up to 9 owners, even at 10 and slower
# from 11; on an additive utility it is 2x slower at 9 and 4x at 10.
EXACT_PREFIXES = 2**7


# ExplainConfig fields and the values they accept; every other field is a
# count (a budget or a limit) and takes an integer >= 1.
_SAMPLING_RULES: dict[str, Rule] = {
    "delta": ("0 < delta < 1", lambda v: is_number(v) and 0.0 < v < 1.0),
    "epsilon": ("a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf),
    "width_stop": ("a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf),
    "timeout": ("a number of seconds >= 0", lambda v: is_number(v) and v >= 0.0),
}


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs shared by the engines; defaults suit desk-scale runs.

    verify_budget, width_stop and bandit_budget may be None (twice
    check_budget, no width stop, no total cap); a value out of range raises
    MalformedInput.
    """

    delta: float = 0.95
    epsilon: float = 0.01
    check_budget: int = 20_000
    verify_budget: int | None = None
    width_stop: float | None = 0.01
    arm_budget: int = 20_000
    bandit_budget: int | None = None
    timeout: float = 7200.0
    bf_entry_limit: int = 20

    def __post_init__(self) -> None:
        check_values(
            "sampling values",
            (
                (f.name, getattr(self, f.name), _SAMPLING_RULES.get(f.name, COUNT_RULE))
                for f in fields(self)
                if getattr(self, f.name) is not None
                or f.name not in ("verify_budget", "width_stop", "bandit_budget")
            ),
        )

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

    def to_dict(self) -> dict:
        """The result as JSON-ready data, without the non-deterministic wall_time."""
        out = asdict(self)
        del out["wall_time"]
        out["delta"] = [int(e) for e in self.delta]
        out["size"] = self.size
        out["steps"] = [dict(step, entry=int(step["entry"])) for step in out["steps"]]
        return out


def _is_small(partition: OwnerPartition) -> bool:
    """Whether the pairs of `partition` have at most EXACT_PREFIXES prefixes."""
    return 2 ** (partition.n - 2) <= EXACT_PREFIXES


def _exact_check(d: float, delta: float) -> FlipResult:
    """The check read off an exact differential d: no samples, never budget_exhausted."""
    verdict = "flipped" if d < 0.0 else "not_flipped" if d > 0.0 else "undecided"
    return FlipResult(verdict, Estimate(delta, d))


def _width(est: Estimate) -> float:
    """A check's half-width; an exact check (no samples) has 0.0."""
    return est.half_width if est.count else 0.0


def _subsets(entries: list[EntryId]):
    """Non-empty subsets in ascending size, lexicographic within a size."""
    return itertools.chain.from_iterable(
        itertools.combinations(entries, size) for size in range(1, len(entries) + 1)
    )


class _Request:
    """One explanation request: its pair, rng, config, clock and sample counters.

    Engines judge shifts: `moved` is the set of a's entries that a gives b.
    Every flip check goes through `checks` (`check` is a chunk of one), and
    every result is built by `done`, so the counters and the deadline live
    in one place. A shift is
    scored as the entry-set pair (A - moved, B | moved) on the request's own
    partition: on the exact route (bf always, any other engine with few
    prefixes) over the pair's one coalition plan, on the sampled route over
    drawn prefixes. No partition is built.

    `pair`, pair selection's prechecked request (engine "pair"), lends its
    plan and its check as the precheck when checked on this engine's route.
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
        pair: _Request | None = None,
    ) -> None:
        if a == b:
            raise SameOwner(f"explanation needs two distinct owners, got {a!r} twice")
        self.ents_a, self.ents_b = partition.entries(a), partition.entries(b)
        self.engine, self.partition, self.oracle = engine, partition, oracle
        self.a, self.b, self.rng = a, b, rng
        self.cfg = config or ExplainConfig()
        self.start = time.monotonic()
        self.samples = 0
        self.exhausted = False
        self.initial_diff = self.initial_half_width = 0.0
        exact = engine == "bf" or _is_small(partition)
        lent = pair is not None and (pair.plan is not None) == exact
        self.plan = pair.plan if lent else coalition_plan(partition, a, b) if exact else None
        self.last: FlipResult | None = pair.last if lent else None  # the latest check, or the precheck

    def swapped(self) -> _Request:
        """The prechecked request for (b, a); its plan is this one, as it leaves out both owners."""
        twin = copy.copy(self)
        twin.a, twin.b, twin.ents_a, twin.ents_b = self.b, self.a, self.ents_b, self.ents_a
        twin.last, twin.initial_diff = self.last.swapped(), -self.initial_diff
        return twin

    def expired(self) -> bool:
        return time.monotonic() - self.start > self.cfg.timeout

    def check(self, budget: int, moved: Iterable[EntryId] = ()) -> FlipResult:
        """Flip check of the pair once a gives `moved` to b, counted."""
        return next(self.checks(budget, [moved]))

    def checks(self, budget: int, shifts: Iterable[Iterable[EntryId]]) -> Iterator[FlipResult]:
        """check() of each shift in turn, each counted (and the latest) as it is read.

        On the exact route one values() call scores every shift's sets, here
        and now; on the sampled route each shift's check runs as it is read.
        """
        shifts = [frozenset(moved) for moved in shifts]
        if self.plan is not None:
            pairs = [(self.ents_a - moved, self.ents_b | moved) for moved in shifts]
            delta = self.cfg.delta
            results = [_exact_check(d, delta) for d in differentials(self.oracle, self.plan, pairs)]
        else:
            results = (
                is_flipped(
                    self.partition, self.oracle, self.a, self.b, self.rng,
                    delta=self.cfg.delta, budget=budget, width_stop=self.cfg.width_stop, moved=moved,
                )
                for moved in shifts
            )
        return map(self._counted, results)

    def _counted(self, res: FlipResult) -> FlipResult:
        self.samples += res.estimate.count
        self.exhausted |= res.budget_exhausted
        self.last = res
        return res

    def span(self, moved: Iterable[EntryId]) -> int:
        """How many shifts like `moved` one check call takes: 1 on the sampled route.

        On the exact route it is the oracle's room for sets like moved's,
        over the 2^(n-1) sets a shift scores, at least 1. The room is judged
        on moved's two largest sets, the union of all the other owners with
        A - moved and with B | moved.
        """
        if self.plan is None:
            return 1
        bases, moved = self.plan[0], frozenset(moved)
        largest = [bases[-1] | (self.ents_a - moved), bases[-1] | self.ents_b | moved]
        return max(1, self.oracle.room(largest) // (2 * len(bases)))

    def verify(self, moved: Iterable[EntryId] = ()) -> FlipResult:
        """The answer's final check; an exact one is the latest check, of the same shift."""
        return self.last if self.plan is not None else self.check(self.cfg.verify(), moved)

    def race(self, moved: Iterable[EntryId]) -> Top1Result:
        """The entry of a with the highest power once a gives `moved` to b, counted.

        The arms are a's remaining entries; a lone one is a forced pick with
        an empty estimate. On the exact route every entry's power is exact
        (the differential of b over a once the entry moves too, as
        power_exact) and the argmax wins, ties going to the smallest entry
        id; no samples are drawn. All the entries' sets go to the oracle in
        one values() call. Otherwise the entries run a Thompson race.
        """
        cfg, moved = self.cfg, frozenset(moved)
        left, got = self.ents_a - moved, self.ents_b | moved
        ents = sorted(left)
        if len(ents) == 1:
            return Top1Result(ents[0], (ArmState(ents[0], Estimate(cfg.delta)),), 0, True, False)
        if self.plan is not None:
            powers = differentials(self.oracle, self.plan, [(got | {e}, left - {e}) for e in ents])
            arms = [ArmState(e, Estimate(cfg.delta, power)) for e, power in zip(ents, powers)]
            best = max(arms, key=lambda s: s.estimate.mean)  # the first of equal maxima
            return Top1Result(best.entry, tuple(arms), 0, True, False)
        pick = thompson_top1(
            ents,
            make_power_sampler(self.partition, self.oracle, self.a, self.b, moved),
            self.rng,
            delta=cfg.delta,
            epsilon=cfg.epsilon,
            arm_budget=cfg.arm_budget,
            total_budget=cfg.bandit_budget,
        )
        self.samples += pick.samples
        self.exhausted |= pick.budget_exhausted
        return pick

    def precheck(self, budget: int) -> str | None:
        """Check that a is above b; return the failed-precondition status, if any.

        A check lent by the pair stands as the precheck, its samples not counted.
        """
        pre = self.check(budget) if self.last is None else self.last
        self.exhausted |= pre.budget_exhausted
        self.initial_diff = pre.estimate.mean
        self.initial_half_width = pre.estimate.half_width if pre.estimate.count >= 2 else 0.0
        return {"flipped": STATUS_NOT_MET, "undecided": STATUS_UNDECIDED}.get(pre.verdict)

    def done(
        self,
        status: str,
        moved: Iterable[EntryId] = (),
        success: bool = False,
        final: Estimate | None = None,
        tested: int = 0,
        steps: Iterable[TransferStep] = (),
    ) -> CounterfactualResult:
        """The result; `final` is the answer's final check, if one ran."""
        return CounterfactualResult(
            engine=self.engine,
            a=self.a,
            b=self.b,
            status=status,
            delta=tuple(sorted(moved)),
            success=success,
            initial_diff=self.initial_diff,
            initial_half_width=self.initial_half_width,
            final_diff=None if final is None else final.mean,
            final_half_width=None if final is None else _width(final),
            samples_used=self.samples,
            subsets_tested=tested,
            steps=tuple(steps),
            timed_out=status == STATUS_TIMEOUT,
            budget_exhausted=self.exhausted,
            wall_time=time.monotonic() - self.start,
        )


def _first_flip(req: _Request, ents: list[EntryId]) -> CounterfactualResult:
    """The first subset of `ents` whose shift flips the pair (else all of them), verified.

    Subsets go in ascending size, lexicographic within a size, in chunks
    with one check call (on the exact route one values() call) each. A
    chunk holds req.span subsets, judged once per size on the first subset
    of that size to start a chunk, and is filled across a size boundary.
    The deadline is read before each chunk, and only the subsets up to the
    first flip count as tested.
    """

    def verified(moved, tested: int) -> CounterfactualResult:
        final = req.verify(moved)
        return req.done(STATUS_OK, moved, final.verdict == "flipped", final.estimate, tested)

    tested, spans = 0, {}
    subsets = _subsets(ents)
    for first in subsets:
        if req.expired():
            return req.done(STATUS_TIMEOUT, tested=tested)
        if len(first) not in spans:
            spans[len(first)] = req.span(first)
        chunk = [first, *itertools.islice(subsets, spans[len(first)] - 1)]
        for combo, res in zip(chunk, req.checks(req.cfg.check_budget, chunk)):
            tested += 1
            if res.verdict == "flipped":
                return verified(combo, tested)
    return verified(ents, tested)


def _bruteforce(req: _Request) -> CounterfactualResult:
    ents = sorted(req.ents_a)
    if len(ents) > req.cfg.bf_entry_limit:
        raise TooLarge(
            f"brute force over {len(ents)} entries exceeds the limit {req.cfg.bf_entry_limit}"
        )
    if req.precheck(req.cfg.check_budget) is not None:
        return req.done(STATUS_NOT_MET)
    return _first_flip(req, ents)


def _mc(req: _Request) -> CounterfactualResult:
    status = req.precheck(req.cfg.check_budget)
    if status is not None:
        return req.done(status)
    return _first_flip(req, sorted(req.ents_a))


def _svexp(req: _Request) -> CounterfactualResult:
    status = req.precheck(req.cfg.check_budget)
    if status is not None:
        return req.done(status)

    steps: list[TransferStep] = []
    moved: list[EntryId] = []
    while req.ents_a.difference(moved):
        if req.expired():
            return req.done(STATUS_TIMEOUT, moved, tested=len(steps), steps=steps)

        pick = req.race(moved)
        moved.append(pick.entry)
        check = req.check(req.cfg.check_budget, moved)
        arm = next(s for s in pick.arms if s.entry == pick.entry)
        steps.append(
            TransferStep(
                entry=pick.entry,
                power_mean=arm.estimate.mean,
                power_half_width=_width(arm.estimate),
                bandit_samples=pick.samples,
                bandit_converged=pick.converged,
                check_verdict=check.verdict,
                check_mean=check.estimate.mean,
                check_half_width=_width(check.estimate),
                check_samples=check.estimate.count,
            )
        )
        if check.verdict == "flipped":
            break

    final = req.verify(moved)
    return req.done(STATUS_OK, moved, final.verdict == "flipped", final.estimate, len(steps), steps)


def explain_bruteforce(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    *,
    config: ExplainConfig | None = None,
) -> CounterfactualResult:
    """Minimum-cardinality transfer set by exact ascending-size enumeration.

    Subsets of equal size are tried in lexicographic entry order, so ties
    break deterministically toward the smallest entry ids. The engine
    decides the precondition exactly, and an exact tie counts as not met.
    """
    return _bruteforce(_Request("bf", partition, oracle, a, b, None, config))


def explain_mc(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator,
    *,
    config: ExplainConfig | None = None,
) -> CounterfactualResult:
    """Ascending-size search with Monte Carlo flip checks.

    Each candidate subset gets a fresh sequential check with check_budget
    permutations; undecided checks count as not flipped. The first flipped
    subset (or, failing that, all of a's entries) is re-verified with
    verify_budget permutations; an exact check stands as its own verification.
    """
    return _mc(_Request("mc", partition, oracle, a, b, rng, config))


def explain_svexp(
    partition: OwnerPartition,
    oracle: UtilityOracle,
    a: OwnerId,
    b: OwnerId,
    rng: np.random.Generator,
    *,
    config: ExplainConfig | None = None,
) -> CounterfactualResult:
    """Greedy transfer loop guided by a Thompson top-1 race over entry powers.

    Each round races a's remaining entries (a forced pick when only one is
    left), transfers the winner, and re-checks the pair. Stops on a flip, on
    timeout, or when a has nothing left to give.
    """
    return _svexp(_Request("svexp", partition, oracle, a, b, rng, config))


# The engine bodies by name; each takes its request.
ENGINES = {
    "bf": _bruteforce,
    "mc": _mc,
    "svexp": _svexp,
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
    pair: _Request | None = None,
) -> CounterfactualResult:
    """Dispatch to an engine by name ("bf", "mc", "svexp").

    `pair` is the checked request of pair selection for this partition,
    oracle and ordered pair; it lends the engine's request its coalition
    plan and its check as the precheck, when it was checked on the engine's
    route (bf is always exact).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}")
    if engine != "bf" and rng is None:
        raise ValueError(f"engine {engine!r} needs an rng")
    if pair is not None and (pair.partition, pair.oracle, pair.a, pair.b) != (partition, oracle, a, b):
        raise ValueError(f"the checked pair {pair.a!r} over {pair.b!r} is not this request's pair")
    return ENGINES[engine](_Request(engine, partition, oracle, a, b, rng, config, pair))
