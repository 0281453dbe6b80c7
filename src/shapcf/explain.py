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
arms' shifts as checks would. _Exact keeps a table of the differentials it
scored, by shift, and reads it before it scores: svexp's round check reads
the winning arm's shift, a verification reads its answer's, and the pair's
table is copied into every engine's request. With windows that table holds
the pair's check and the search rounds: select_pairs runs the exact
searches of a window's trials (a's subsets in search order, and the arms
of svexp's first race) in lock step, each round one _score call, so an
engine replays its search from the table and scores only what no round
did.
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
# owners. Timed against the sampled path (README, "How sampling works"), the
# exact one is faster on a KDE utility up to 9 owners, even at 10 and slower
# from 11; on an additive utility it is 2x slower at 9 and 4x at 10.
EXACT_PREFIXES = 2**7

# Half-width at which a sampled flip check whose interval still holds 0 stops,
# undecided: the pair is that close to a tie, and more samples rarely decide it.
WIDTH_STOP = 0.01

# Most entries of a that bf enumerates (2^20 subsets); above it bf raises TooLarge.
BF_ENTRY_LIMIT = 20

# Random pairs drawn at most while their checks stay undecided.
_PAIR_REDRAWS = 10

# Trials at most whose pair checks, and then each round of whose searches,
# share one values() call, where the oracle has room for that (see window).
_WINDOW = 16


# ExplainConfig fields and the values they accept; every other field is a
# budget and takes an integer >= 1.
_SAMPLING_RULES: dict[str, Rule] = {
    "delta": ("0 < delta < 1", lambda v: is_number(v) and 0.0 < v < 1.0),
    "epsilon": ("a finite number >= 0", lambda v: is_number(v) and 0.0 <= v < math.inf),
    "timeout": ("a number of seconds >= 0", lambda v: is_number(v) and v >= 0.0),
}


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs shared by the engines; defaults suit desk-scale runs.

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
    in one place. The route, chosen here once, scores a shift as the
    entry-set pair (A - moved, B | moved) on the request's own partition:
    _Exact (bf always, any other engine with few prefixes) over the pair's
    one coalition plan, else _Sampled over drawn prefixes.

    `pair`, pair selection's prechecked request (engine "pair"), lends its
    check as the precheck, and its exact route (plan shared, table copied),
    when checked on this engine's route; never its rng.
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
            _Sampled() if not exact
            else _Exact(pair.route.plan, pair.route.table) if lent
            else _Exact(coalition_plan(partition, a, b))
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
        """The route's check of each shift in turn, each counted (and the latest) as it is read.

        The exact route checks the shifts up to the first that its table
        holds flipped, and none past it.
        """
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

    `table` holds the differential of each shift scored so far, read before
    anything is scored; _score fills it for checks, search rounds and races.
    """

    def __init__(self, plan, table: dict[frozenset[EntryId], float] | None = None) -> None:
        self.plan, self.table = plan, dict(table or {})

    def swapped(self) -> _Exact:
        """The reverse pair's route: this plan, as it leaves out both owners, and no shifts yet."""
        return _Exact(self.plan)

    def checks(self, req: _Request, budget: int, shifts: list[frozenset[EntryId]]) -> list[FlipResult]:
        """The shifts' checks, read off the table, up to the first shift it holds flipped.

        The shifts before that one that it lacks are scored in one values()
        call; a search stops at that flip, so nothing past it is scored.
        """
        end = next((i for i, moved in enumerate(shifts) if self.table.get(moved, 0.0) < 0.0), len(shifts))
        _score([(req, shifts[:end])])
        return [_exact_check(self.table[moved], req.cfg.delta) for moved in shifts[: end + 1]]

    def span(self, req: _Request, moved: frozenset[EntryId]) -> int:
        """The oracle's room for moved's two largest sets, over the 2^(n-1) sets a shift scores."""
        bases = self.plan[0]
        largest = [bases[-1] | ents for ents in shift_sets(req.partition, req.a, req.b, moved)]
        return max(1, req.oracle.room(largest) // (2 * len(bases)))

    def race(self, req: _Request, moved: frozenset[EntryId], ents: list[EntryId]) -> Top1Result:
        """Every arm's exact power; the argmax wins, ties going to the smallest entry id.

        Entry e's power (as power_exact) is minus the table's differential of
        the shift moved + {e}; the shifts the table lacks are scored in one
        values() call, as their checks would be.
        """
        shifts = [moved | {e} for e in ents]
        _score([(req, shifts)])
        arms = [ArmState(e, Estimate(req.cfg.delta, minus(self.table[shift]))) for e, shift in zip(ents, shifts)]
        best = max(arms, key=lambda s: s.estimate.mean)  # the first of equal maxima
        return Top1Result(best.entry, tuple(arms), 0, True, False)


class _Sampled:
    """The sampled route: checks and races draw prefixes from the request's rng; it holds nothing."""

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
    Where the window holds more than one trial, the searches that the
    cell's `engines` will run are scored ahead into the pairs' tables, in
    lock-step rounds of one values() call each (_search_rounds); a lone
    trial's search would spend those calls itself.
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
        _search_rounds(chosen, engines)
    return chosen


def _search_rounds(pairs: list[_Request], engines: Iterable[str]) -> None:
    """Score the exact searches of `pairs` ahead, in lock-step rounds of one values() call each.

    A trial searches where its pair's check is exact and a is above b. bf
    and mc read a's subsets in _subsets order, chunk by _chunks chunk, where
    a holds at most BF_ENTRY_LIMIT entries; svexp's first race reads the
    one-entry shifts, which come first in that order. Each round scores the
    next chunk of every open search (_Ascending): first its first subset;
    then, for bf and mc, the rest of each _chunks chunk in turn, so a
    search scores no subset that its engine alone would not. Where the
    cell runs svexp, the first chunk is instead the first _chunks chunk
    (the one-call opening that rounds replaced) and every one-entry shift,
    so a svexp-only cell sends no more than that opening did. The open
    searches share _WINDOW spans, so no round sends more than _WINDOW *
    span * 2^(n-1) sets. A search leaves once a chunk holds a flip, it has
    nothing left to score, or its pair request is past config.timeout.
    """
    engines = set(engines)
    searches = []
    for pair in pairs:
        if isinstance(pair.route, _Exact) and pair.last.verdict == "not_flipped":
            ents = sorted(pair.ents_a)
            more = not engines.isdisjoint({"bf", "mc"}) and len(ents) <= BF_ENTRY_LIMIT
            if more or "svexp" in engines:
                first = max(pair.span(ents[:1]), len(ents)) if "svexp" in engines else 1
                searches.append(_Ascending(pair, ents, first, more))
    while searches:
        searches = [search for search in searches if not search.req.expired()]
        chunks = [search.chunk(_WINDOW / len(searches)) for search in searches]
        _score(zip((search.req for search in searches), chunks))
        searches = [
            search for search, shifts in zip(searches, chunks)
            if shifts and min(search.req.route.table[moved] for moved in shifts) >= 0.0
        ]


class _Ascending:
    """One search ahead: the subsets of `ents` in _subsets order, a chunk of them each round.

    The first chunk holds `first` subsets; where the search goes on
    (`more`), each later one runs to the end of the _chunks chunk it starts
    in. A chunk holds at most `share` spans of its first subset.
    """

    def __init__(self, req: _Request, ents: list[EntryId], first: int, more: bool) -> None:
        self.req, self.first, self.more = req, first, more
        # Each subset, and whether it ends its _chunks chunk.
        self.subsets = ((frozenset(s), s is c[-1]) for c in _chunks(req, ents) for s in c)

    def chunk(self, share: float) -> list[frozenset[EntryId]]:
        first, self.first = self.first, 0
        chunk = []
        for moved, ends in self.subsets if first or self.more else ():
            if not chunk:
                cap = max(1, int(share * self.req.span(moved)))
            chunk.append(moved)
            if len(chunk) in (first, cap) or ends and not first:
                break
        return chunk


def _chunks(req: _Request, ents: list[EntryId]) -> Iterator[list[tuple[EntryId, ...]]]:
    """The subsets of `ents` in search order, in chunks of one check call each.

    Subsets go in ascending size, lexicographic within a size. A chunk holds
    req.span subsets, judged once per size on the first subset of that size
    to start a chunk, and is filled across a size boundary.
    """
    spans = {}
    subsets = _subsets(ents)
    for first in subsets:
        if len(first) not in spans:
            spans[len(first)] = req.span(first)
        yield [first, *itertools.islice(subsets, spans[len(first)] - 1)]


def _first_flip(req: _Request, ents: list[EntryId]) -> CounterfactualResult:
    """The first subset of `ents` whose shift flips the pair (else all of them), verified.

    The subsets go in _chunks, with one check call each. On the exact route
    that is at most one values() call, for the chunk's subsets that the
    table lacks, up to the first it holds flipped; where a window's search
    rounds ran to this search's flip (select_pairs), it replays the table
    and scores nothing. The deadline is read before each chunk, and only
    the subsets up to the first flip count as tested.
    """

    def verified(moved, tested: int) -> CounterfactualResult:
        final = req.verify(moved)
        return req.done(STATUS_OK, moved, final.verdict == "flipped", final.estimate, tested)

    tested = 0
    for chunk in _chunks(req, ents):
        if req.expired():
            return req.done(STATUS_TIMEOUT, tested=tested)
        for combo, res in zip(chunk, req.checks(req.cfg.check_budget, chunk)):
            tested += 1
            if res.verdict == "flipped":
                return verified(combo, tested)
    return verified(ents, tested)


def _bruteforce(req: _Request) -> CounterfactualResult:
    """Minimum-cardinality transfer set by exact ascending-size enumeration.

    Subsets of equal size are tried in lexicographic entry order, so ties
    break deterministically toward the smallest entry ids. The engine
    decides the precondition exactly, and an exact tie counts as not met.
    """
    ents = sorted(req.ents_a)
    if len(ents) > BF_ENTRY_LIMIT:
        raise TooLarge(f"brute force over {len(ents)} entries exceeds the limit {BF_ENTRY_LIMIT}")
    if req.precheck(req.cfg.check_budget) is not None:
        return req.done(STATUS_NOT_MET)
    return _first_flip(req, ents)


def _mc(req: _Request) -> CounterfactualResult:
    """Ascending-size search with Monte Carlo flip checks.

    Each candidate subset gets a fresh sequential check with check_budget
    permutations; undecided checks count as not flipped. The first flipped
    subset (or, failing that, all of a's entries) is re-verified with
    verify_budget permutations; an exact check stands as its own verification.
    """
    status = req.precheck(req.cfg.check_budget)
    if status is not None:
        return req.done(status)
    return _first_flip(req, sorted(req.ents_a))


def _svexp(req: _Request) -> CounterfactualResult:
    """Greedy transfer loop guided by a Thompson top-1 race over entry powers.

    Each round races a's remaining entries (a forced pick when only one is
    left), transfers the winner, and re-checks the pair. A round check that
    says flipped is verified at once; the loop stops there unless the
    verification decisively refutes the flip. It also stops on timeout, or
    when a has nothing left to give. On the exact route a verification
    reads the round check's differential, so it never refutes one.
    """
    status = req.precheck(req.cfg.check_budget)
    if status is not None:
        return req.done(status)

    steps: list[TransferStep] = []
    moved: list[EntryId] = []
    final: FlipResult | None = None  # the verification of the latest round's flip
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
        final = req.verify(moved) if check.verdict == "flipped" else None
        if final is not None and final.verdict != "not_flipped":
            break

    if final is None:
        final = req.verify(moved)
    return req.done(STATUS_OK, moved, final.verdict == "flipped", final.estimate, len(steps), steps)


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

    `rng` may be None where the request draws nothing from it (see draws):
    for bf, and for mc and svexp while the partition's pairs have at most
    EXACT_PREFIXES prefixes. A sampling request without one raises
    ValueError.

    `pair` is the checked request of pair selection for this partition,
    oracle and ordered pair; it lends the engine's request its coalition
    plan and its check as the precheck, when it was checked on the engine's
    route (bf is always exact).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}")
    if rng is None and draws(engine, partition):
        raise ValueError(f"engine {engine!r} needs an rng on {partition.n} owners")
    if pair is not None and (pair.partition, pair.oracle, pair.a, pair.b) != (partition, oracle, a, b):
        raise ValueError(f"the checked pair {pair.a!r} over {pair.b!r} is not this request's pair")
    return ENGINES[engine](_Request(engine, partition, oracle, a, b, rng, config, pair))
