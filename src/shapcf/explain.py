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
orderings: exact answers that draw nothing from the rng (draws tells a
request that samples, and so needs an rng, from one that does not). A request scores
each shift X as shapley.shift_sets's entry sets (A - X, B | X) on its own
partition, on the route chosen once when it is built: _Exact over one
shapley.coalition_plan, or _Sampled over drawn prefixes. Pair selection
(select_pairs) builds each trial's checked request, engine "pair": one plan
and one precondition check for every engine. An entry e's power is minus
the differential (or terms) of its shift X | {e}, so a race scores its
arms' shifts as checks would. A trial has one exact table, its pair's:
every engine's request shares the pair's _Exact route, which holds the
differential of each shift scored so far. An engine body is a generator
that yields the shifts of each read before it reads them off the table, so
svexp's round check reads the winning arm's shift, a verification its
answer's, and a trial's later engines what its earlier ones scored.
_drive runs bodies: explain runs one alone, scoring each yield; select_pairs
runs a window's bodies in lock step, each round one _score call, and each
engine then replays its run from the table.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from collections.abc import Generator, Iterable, Iterator
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np

from .core import (
    COUNT_RULE,
    EntryId,
    MalformedInput,
    OwnerId,
    OwnerPartition,
    Rule,
    TooLarge,
    check_values,
    is_number,
)
from .power import ArmState, Top1Result, make_power_sampler, minus, thompson_top1
from .shapley import Estimate, FlipResult, coalition_plan, differentials, is_flipped, shift_sets
from .shapley import diff_shapley_exact  # unused here; perfbench/tracing.py wraps this name
from .utility import UtilityOracle

STATUS_OK = "ok"
STATUS_NOT_MET = "precondition_not_met"
STATUS_UNDECIDED = "precondition_undecided"
STATUS_TIMEOUT = "timeout"

# Largest prefix count 2^(n-2) at which checks and races are exact: n <= 9
# owners. Set by timing whole requests both ways on the benchmark's inputs
# with n_owners raised (same partitions and pairs, the oracle's memo emptied
# before each request, routes alternating; uncalibrated wall time), as the
# exact route's time over the sampled one's:
#
#   owners   kde-svexp inputs, svexp   additive-mc inputs, mc
#        8   0.77 (6 requests)         1.15 (30 requests)
#        9   0.80 (12)                 1.97 (30)
#       10   1.05 (12)                 3.86 (30)
#       11   1.66 (6)                  7.2 (30)
#       12   2.60 (6)                  9.6 (10)
#
# With a costly oracle (KDE) the exact route is faster up to 9 owners and
# breaks even at 10; with a cheap one (additive) it is about even at 8 owners
# and 2x slower at 9. At the benchmark's 5-6 owners it is faster on both.
EXACT_PREFIXES = 2**7

# Half-width at which a sampled flip check whose interval still holds 0 stops,
# undecided: the pair is that close to a tie, and more samples rarely decide it.
WIDTH_STOP = 0.01

# Most entries of a that bf enumerates (2^20 subsets); above it bf raises TooLarge.
BF_ENTRY_LIMIT = 20

# Random pairs drawn at most while their checks stay undecided.
_PAIR_REDRAWS = 10

# Trials at most whose pair checks, and then each round of whose engine runs,
# share one values() call, where the oracle has room for that (see window).
_WINDOW = 16

# An engine body: it yields the shifts of each read before the read (see _drive), then returns its result.
_Body = Generator[list[frozenset[EntryId]], None, "CounterfactualResult"]


# ExplainConfig fields and the values they accept; every other field is a
# budget and takes an integer >= 1.
_SAMPLING_RULES: dict[str, Rule] = {
    "delta": ("0 < delta < 1", lambda v: is_number(v) and 0.0 < v < 1.0),
    "epsilon": ("a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf),
    "timeout": ("a number of seconds >= 0", lambda v: is_number(v) and v >= 0.0),
}


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs shared by the engines; defaults suit desk-scale runs. README's Sampling table lists them.

    verify_budget and bandit_budget may be None (twice check_budget, no
    total cap); a value out of range raises MalformedInput.
    """

    delta: float = 0.95
    epsilon: float = 0.01
    check_budget: int = 20_000
    verify_budget: int | None = None
    arm_budget: int = 20_000
    bandit_budget: int | None = None
    timeout: float = 7200.0

    def __post_init__(self) -> None:
        check_values(
            "sampling values",
            (
                (f.name, getattr(self, f.name), _SAMPLING_RULES.get(f.name, COUNT_RULE))
                for f in fields(self)
                if getattr(self, f.name) is not None
                or f.name not in ("verify_budget", "bandit_budget")
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


def draws(engine: str, partition: OwnerPartition) -> bool:
    """Whether a request of `engine` on `partition` reads its rng: whether it samples.

    It does unless it is exact: bf always is, and every other request (a
    pair check, engine "pair", included) while the pairs of `partition`
    have at most EXACT_PREFIXES prefixes.
    """
    return engine != "bf" and 2 ** (partition.n - 2) > EXACT_PREFIXES


def _exact_check(d: float, delta: float) -> FlipResult:
    """The check read off an exact differential d: no samples, never budget_exhausted."""
    verdict = "flipped" if d < 0.0 else "not_flipped" if d > 0.0 else "undecided"
    return FlipResult(verdict, Estimate(delta, d))


def _width(est: Estimate) -> float:
    """A check's half-width; an exact check (no samples) has 0.0."""
    return est.half_width if est.count else 0.0


class _Request:
    """One explanation request: its pair, rng, config, clock and sample counters.

    Engines judge shifts: `moved` is the set of a's entries that a gives b.
    Every flip check goes through `checks` (`check` is a chunk of one), and
    every result is built by `done`, so the counters and the deadline live
    in one place. The route, chosen here once, scores a shift as the
    entry-set pair (A - moved, B | moved) on the request's own partition:
    _Exact (bf always, any other engine with few prefixes) over the pair's
    one coalition plan, else _Sampled over drawn prefixes.

    `pair`, pair selection's prechecked request (engine "pair"), lends its
    check as the precheck, and its route itself, plan and table, when
    checked on this engine's route; never its rng.
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
        self.ents_a, self.ents_b = shift_sets(partition, a, b, frozenset())
        self.engine, self.partition, self.oracle = engine, partition, oracle
        self.a, self.b, self.rng = a, b, rng
        self.cfg = config or ExplainConfig()
        self.start = time.monotonic()
        self.samples = 0
        self.exhausted = False
        self.initial_diff = self.initial_half_width = 0.0
        exact = not draws(engine, partition)
        lent = pair is not None and isinstance(pair.route, _Exact) == exact
        self.route: _Exact | _Sampled = (
            pair.route if lent else _Exact(coalition_plan(partition, a, b)) if exact else _Sampled()
        )
        self.last: FlipResult | None = pair.last if lent else None  # the latest check, or the precheck

    def swapped(self) -> _Request:
        """The prechecked request for (b, a), on the route's twin."""
        twin = copy.copy(self)
        twin.a, twin.b, twin.ents_a, twin.ents_b = self.b, self.a, self.ents_b, self.ents_a
        twin.last, twin.initial_diff = self.last.swapped(), -self.initial_diff
        twin.route = self.route.swapped()
        return twin

    def expired(self) -> bool:
        return time.monotonic() - self.start > self.cfg.timeout

    def check(self, budget: int, moved: Iterable[EntryId] = ()) -> FlipResult:
        """Flip check of the pair once a gives `moved` to b, counted."""
        return next(self.checks(budget, [moved]))

    def checks(self, budget: int, shifts: Iterable[Iterable[EntryId]]) -> Iterator[FlipResult]:
        """The route's check of each shift in turn, each counted (and the latest) as it is read."""
        return map(self._counted, self.route.checks(self, budget, [frozenset(moved) for moved in shifts]))

    def _counted(self, res: FlipResult) -> FlipResult:
        self.samples += res.estimate.count
        self.exhausted |= res.budget_exhausted
        self.last = res
        return res

    def span(self, moved: Iterable[EntryId]) -> int:
        """How many shifts like `moved` one check call takes, at least 1."""
        return self.route.span(self, frozenset(moved))

    def verify(self, moved: Iterable[EntryId] = ()) -> FlipResult:
        """The answer's final check, to verify_budget; an exact route reads it off its table."""
        return self.check(self.cfg.verify(), moved)

    def race(self, moved: Iterable[EntryId]) -> Top1Result:
        """The entry of a with the highest power once a gives `moved` to b, counted.

        The arms are a's remaining entries; a lone one is a forced pick with
        an empty estimate, else the route races them.
        """
        moved = frozenset(moved)
        ents = sorted(self.ents_a - moved)
        if len(ents) == 1:
            return Top1Result(ents[0], (ArmState(ents[0], Estimate(self.cfg.delta)),), 0, True, False)
        pick = self.route.race(self, moved, ents)
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
        self.initial_half_width = _width(pre.estimate)
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


class _Exact:
    """The exact route: each shift's differential, folded over the pair's one coalition plan.

    `table` holds the differential of each shift scored so far, filled by
    _score only; checks and races read it, and a shift it lacks is a bug
    (KeyError): every read's shifts are yielded, and so scored, first.
    """

    def __init__(self, plan) -> None:
        self.plan, self.table = plan, {}

    def swapped(self) -> _Exact:
        """The reverse pair's route: this plan, as it leaves out both owners, and no shifts yet."""
        return _Exact(self.plan)

    def checks(self, req: _Request, budget: int, shifts: list[frozenset[EntryId]]) -> list[FlipResult]:
        """The shifts' checks, read off the table."""
        return [_exact_check(self.table[moved], req.cfg.delta) for moved in shifts]

    def span(self, req: _Request, moved: frozenset[EntryId]) -> int:
        """The oracle's room for moved's two largest sets, over the 2^(n-1) sets a shift scores."""
        bases = self.plan[0]
        largest = [bases[-1] | ents for ents in shift_sets(req.partition, req.a, req.b, moved)]
        return max(1, req.oracle.room(largest) // (2 * len(bases)))

    def race(self, req: _Request, moved: frozenset[EntryId], ents: list[EntryId]) -> Top1Result:
        """Every arm's exact power; the argmax wins, ties going to the smallest entry id.

        Entry e's power (as power_exact) is minus the table's differential of
        the shift moved + {e}, scored as its check would be.
        """
        arms = [ArmState(e, Estimate(req.cfg.delta, minus(self.table[moved | {e}]))) for e in ents]
        best = max(arms, key=lambda s: s.estimate.mean)  # the first of equal maxima
        return Top1Result(best.entry, tuple(arms), 0, True, False)


class _Sampled:
    """The sampled route: checks and races draw prefixes from the request's rng; it holds nothing."""

    table = MappingProxyType({})  # empty and read-only, so a search reads a table on either route

    def swapped(self) -> _Sampled:
        return self

    def checks(self, req: _Request, budget: int, shifts: list[frozenset[EntryId]]) -> Iterator[FlipResult]:
        """Each shift's sequential check, run as it is read."""
        args, delta = (req.partition, req.oracle, req.a, req.b, req.rng), req.cfg.delta
        return (is_flipped(*args, delta=delta, budget=budget, width_stop=WIDTH_STOP, moved=moved) for moved in shifts)

    def span(self, req: _Request, moved: frozenset[EntryId]) -> int:
        return 1

    def race(self, req: _Request, moved: frozenset[EntryId], ents: list[EntryId]) -> Top1Result:
        """A Thompson race over the entries' sampled powers."""
        cfg, sampler = req.cfg, make_power_sampler(req.partition, req.oracle, req.a, req.b, moved)
        return thompson_top1(
            ents, sampler, req.rng,
            delta=cfg.delta, epsilon=cfg.epsilon, arm_budget=cfg.arm_budget, total_budget=cfg.bandit_budget,
        )


def _score(jobs: Iterable[tuple[_Request, list[frozenset[EntryId]]]]) -> None:
    """Put each job's shifts that its exact route's table lacks there, in one values() call.

    A job is a request and shifts of its pair, each scored as its
    shapley.shift_sets pair; sampled-route requests are skipped. The
    requests share one oracle and may be of different partitions (one
    shapley.differentials call over their plans). Nothing is counted.
    """
    todo = [
        (req, [moved for moved in shifts if moved not in req.route.table])
        for req, shifts in jobs if isinstance(req.route, _Exact)
    ]
    if any(new for _, new in todo):
        plans = [(req.route.plan, [shift_sets(req.partition, req.a, req.b, m) for m in new]) for req, new in todo]
        found = iter(differentials(todo[0][0].oracle, plans))
        for req, new in todo:
            req.route.table.update(zip(new, found))


def window(oracle: UtilityOracle, partition: OwnerPartition) -> int:
    """Trials per window of a cell like `partition`: _WINDOW if pair checks can share calls, else 1.

    They can when the pair checks are exact and the oracle has room for
    more sets than one check's 2^(n-1), judged on sets as large as the
    partition's whole universe: oracle.room(sets) > len(sets).
    """
    if draws("pair", partition):
        return 1
    sets = [partition.universe()] * 2 ** (partition.n - 1)
    return _WINDOW if oracle.room(sets) > len(sets) else 1


def select_pairs(
    partitions: list[OwnerPartition],
    oracle: UtilityOracle,
    rngs: list[np.random.Generator | None],
    config: ExplainConfig,
    budget: int,
    fixed: tuple[OwnerId, OwnerId] | None,
    engines: Iterable[str],
) -> list[_Request]:
    """Each trial's ordered pair with a above b: its checked request, which every engine shares.

    The trials of a window are checked together, in rounds: a round builds
    the request (engine "pair") of each trial still open and checks them
    all to `budget`, the exact checks in one values() call and the sampled
    ones in turn. A `fixed` pair takes one round and is never swapped.
    Otherwise a pair is drawn from its trial's rng, and redrawn while its
    check is undecided, for _PAIR_REDRAWS rounds at most; then the last
    pair is kept (engines then report the undecided precondition), and one
    drawn the wrong way round is kept as the swapped twin of its request.
    Where the window holds more than one trial, the bodies of the cell's
    `engines` run on each exact pair, on requests that share the pair's
    table, in lock-step rounds of one values() call each (_drive); each
    engine then replays its run from that table. A lone trial's engines
    send those calls themselves, into the same table.
    A trial's rng is read only where its pair is drawn or its check
    samples (draws("pair", partition)); elsewhere it may be None.
    """

    def pair_of(t: int) -> tuple[OwnerId, OwnerId]:
        if fixed is not None:
            return fixed
        ids = partitions[t].owner_ids()
        i, j = rngs[t].choice(len(ids), size=2, replace=False)
        return ids[int(i)], ids[int(j)]

    drawn: dict[int, _Request] = {}  # by trial, in trial order
    todo = range(len(partitions))
    for _ in range(_PAIR_REDRAWS if fixed is None else 1):
        for t in todo:
            drawn[t] = _Request("pair", partitions[t], oracle, *pair_of(t), rngs[t], config)
        _score([(drawn[t], [frozenset()]) for t in todo])
        for t in todo:
            drawn[t].precheck(budget)
        todo = [t for t in todo if drawn[t].last.verdict == "undecided"]
        if not todo:
            break
    # A decided check's mean has its verdict's sign.
    chosen = [
        pair.swapped() if fixed is None and pair.last.estimate.mean < 0.0 else pair for pair in drawn.values()
    ]
    if len(partitions) > 1:
        runs = []
        for pair, engine in itertools.product(chosen, engines):
            if isinstance(pair.route, _Exact):
                req = _Request(engine, pair.partition, oracle, pair.a, pair.b, None, config, pair)
                runs.append((req, ENGINES[engine](req)))
        _drive(runs)
    return chosen


def _drive(runs: list[tuple[_Request, _Body]]) -> CounterfactualResult | None:
    """Run engine bodies, each on its request: a lone one to its result, several in lock-step rounds.

    A body yields the shifts that its next read needs, then reads them off
    its table. A lone body's yields are one _score call each. Several are
    run for their tables: each round merges, per table, the shifts that the
    bodies' yields need into one _score call, then resumes each body whose
    yield its table holds. A round holds pairs while their shifts fit in
    _WINDOW spans (judged on each pair's first shift), at least one pair.
    Where no body is svexp, the first round scores each body's first shift
    alone, and a body whose first subset flips stops there, its answer in
    the table; with svexp, the first race's arms go whole.
    """
    if len(runs) == 1:
        req, body = runs[0]
        try:
            while True:
                _score([(req, next(body))])
        except StopIteration as stop:
            return stop.value
    first = all(req.engine != "svexp" for req, _ in runs)
    waits = [(req, body, []) for req, body in runs]
    while True:
        going, waits = waits, []
        for req, body, wait in going:
            try:
                while not (wait := [moved for moved in wait if moved not in req.route.table]):
                    wait = next(body)
            except StopIteration:
                continue
            waits.append((req, body, wait))
        if not waits:
            return None
        merged: dict[_Exact, tuple[_Request, dict[frozenset[EntryId], None]]] = {}
        for req, _, wait in waits:
            merged.setdefault(req.route, (req, {}))[1].update(dict.fromkeys(wait[:1] if first else wait))
        room, jobs = float(_WINDOW), []
        for req, new in merged.values():
            room -= len(new) / req.span(next(iter(new)))
            if jobs and room < 0.0:
                break
            jobs.append((req, list(new)))
        _score(jobs)
        if first:
            first = False
            waits = [(req, body, wait) for req, body, wait in waits if req.route.table.get(wait[0], 0.0) >= 0.0]


def _chunks(req: _Request, ents: list[EntryId]) -> Iterator[list[frozenset[EntryId]]]:
    """The shifts of the subsets of `ents` in search order, in chunks of one check call each.

    Subsets go in ascending size, lexicographic within a size. A chunk holds
    req.span subsets, judged once per size on the first subset of that size
    to start a chunk, and is filled across a size boundary.
    """
    spans = {}
    subsets = (frozenset(s) for size in range(1, len(ents) + 1) for s in itertools.combinations(ents, size))
    for first in subsets:
        if len(first) not in spans:
            spans[len(first)] = req.span(first)
        yield [first, *itertools.islice(subsets, spans[len(first)] - 1)]


def _precheck(req: _Request) -> Generator[list[frozenset[EntryId]], None, str | None]:
    """The request's precheck (see _Request.precheck), its empty shift yielded first where no pair lent a check."""
    if req.last is None:
        yield [frozenset()]
    return req.precheck(req.cfg.check_budget)


def _first_flip(req: _Request, ents: list[EntryId]) -> _Body:
    """The first subset of `ents` whose shift flips the pair (else all of them), verified.

    The subsets go in _chunks, with one check call each, each chunk cut
    after the first shift that the table already holds flipped: a window's
    rounds, or the trial's earlier engines, may hold the answer, and nothing
    past it is scored. The verification reads a checked shift: the flip, or
    the last subset, all of `ents` (yielded again: with a empty, the
    precheck's shift, which a lent check may leave unscored). The deadline
    is read before each chunk, and only the subsets up to the first flip
    count as tested. So delta, subsets_tested, initial_diff, final_diff and
    success are those of checking one subset at a time, the loop that
    tests/oracles.py keeps as first_flip_reference.
    """

    def verified(moved, tested: int) -> CounterfactualResult:
        final = req.verify(moved)
        return req.done(STATUS_OK, moved, final.verdict == "flipped", final.estimate, tested)

    table, tested = req.route.table, 0
    for chunk in _chunks(req, ents):
        if req.expired():
            return req.done(STATUS_TIMEOUT, tested=tested)
        chunk = chunk[: next((i for i, moved in enumerate(chunk) if table.get(moved, 0.0) < 0.0), len(chunk)) + 1]
        yield chunk
        for moved, res in zip(chunk, req.checks(req.cfg.check_budget, chunk)):
            tested += 1
            if res.verdict == "flipped":
                return verified(moved, tested)
    yield [frozenset(ents)]
    return verified(ents, tested)


def _bruteforce(req: _Request) -> _Body:
    """Minimum-cardinality transfer set by exact ascending-size enumeration.

    Subsets of equal size are tried in lexicographic entry order, so ties
    break deterministically toward the smallest entry ids. The engine
    decides the precondition exactly, and an exact tie counts as not met.
    """
    ents = sorted(req.ents_a)
    if len(ents) > BF_ENTRY_LIMIT:
        raise TooLarge(f"brute force over {len(ents)} entries exceeds the limit {BF_ENTRY_LIMIT}")
    if (yield from _precheck(req)) is not None:
        return req.done(STATUS_NOT_MET)
    return (yield from _first_flip(req, ents))


def _mc(req: _Request) -> _Body:
    """Ascending-size search with Monte Carlo flip checks.

    Each candidate subset gets a fresh sequential check with check_budget
    permutations; undecided checks count as not flipped. The first flipped
    subset (or, failing that, all of a's entries) is re-verified with
    verify_budget permutations; an exact check stands as its own verification.
    """
    status = yield from _precheck(req)
    if status is not None:
        return req.done(status)
    return (yield from _first_flip(req, sorted(req.ents_a)))


def _svexp(req: _Request) -> _Body:
    """Greedy transfer loop guided by a Thompson top-1 race over entry powers.

    Each round races a's remaining entries (a forced pick when only one is
    left), transfers the winner, and re-checks the pair. A round check that
    says flipped is verified at once; the loop stops there unless the
    verification decisively refutes the flip. It also stops on timeout, or
    when a has nothing left to give. On the exact route a verification
    reads the round check's differential, so it never refutes one.
    """
    status = yield from _precheck(req)
    if status is not None:
        return req.done(status)

    steps: list[TransferStep] = []
    moved: list[EntryId] = []
    final: FlipResult | None = None  # the verification of the latest round's flip
    while req.ents_a.difference(moved):
        if req.expired():
            return req.done(STATUS_TIMEOUT, moved, tested=len(steps), steps=steps)

        base = frozenset(moved)
        if len(req.ents_a) - len(base) > 1:  # a lone arm is a forced pick: nothing to score
            yield [base | {e} for e in sorted(req.ents_a - base)]
        pick = req.race(moved)
        moved.append(pick.entry)
        yield [base | {pick.entry}]
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
        final = req.verify(moved) if check.verdict == "flipped" else None
        if final is not None and final.verdict != "not_flipped":
            break

    if final is None:
        yield [frozenset(moved)]  # the last round's check, or with a empty the precheck's shift
        final = req.verify(moved)
    return req.done(STATUS_OK, moved, final.verdict == "flipped", final.estimate, len(steps), steps)


# The engine bodies by name; each takes its request, and _drive runs it.
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

    `rng` may be None where the request draws nothing from it (see draws):
    for bf, and for mc and svexp while the partition's pairs have at most
    EXACT_PREFIXES prefixes. A sampling request without one raises
    ValueError.

    `pair` is the checked request of pair selection for this partition,
    oracle and ordered pair; it lends the engine's request its coalition
    plan and its check as the precheck, when it was checked on the engine's
    route (bf is always exact). A pair of another partition, oracle or
    ordered pair raises ValueError.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}")
    if rng is None and draws(engine, partition):
        raise ValueError(f"engine {engine!r} needs an rng on {partition.n} owners")
    if pair is not None and (pair.partition, pair.oracle, pair.a, pair.b) != (partition, oracle, a, b):
        raise ValueError(f"the checked pair {pair.a!r} over {pair.b!r} is not this request's pair")
    req = _Request(engine, partition, oracle, a, b, rng, config, pair)
    return _drive([(req, ENGINES[engine](req))])
