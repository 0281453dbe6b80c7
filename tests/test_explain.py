"""Counterfactual engines: brute force, Monte Carlo, and greedy bandit search."""

from __future__ import annotations

import ast
import functools
import importlib
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from shapcf import harness
from shapcf.core import (
    OwnerPartition,
    SameOwner,
    TooLarge,
    TooManyOwners,
    Transfer,
    UnknownOwner,
    apply_transfer,
    spawn_rng,
)
from shapcf.datasets import Dataset
from shapcf.explain import (
    EXACT_PREFIXES,
    STATUS_NOT_MET,
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_UNDECIDED,
    CounterfactualResult,
    ExplainConfig,
    explain,
)
from shapcf.power import make_power_sampler, power_exact
from shapcf.shapley import (
    EXACT_OWNER_LIMIT,
    FLIP_BATCH,
    Estimate,
    FlipResult,
    coalition_plan,
    diff_shapley_exact,
    differentials,
    is_flipped,
    shapley_exact_all,
)
from shapcf.utility import AdditiveUtility, KdeUtility, LogRegUtility, SetCoverGame, SetCoverUtility, UtilityOracle

from conftest import make_blobs, on_memo_path, random_games
from oracles import first_flip_reference, shapley_by_definition
from test_quality_gate import CONFIG as GATE_CONFIG

# The module; `shapcf.explain` as an attribute is the dispatch function.
explain_module = importlib.import_module("shapcf.explain")


def part(**owners) -> OwnerPartition:
    return OwnerPartition({k: frozenset(v) for k, v in owners.items()})


def padded(p: OwnerPartition, n: int = 11) -> OwnerPartition:
    """`p` plus empty owners up to n owners, past the exact checks' threshold.

    Empty owners are null players: every Shapley value and differential
    stays the same, but the engines sample their flip checks and races.
    """
    owners = dict(p.owners)
    owners.update({f"Z{i}": frozenset() for i in range(n - p.n)})
    assert 2 ** (n - 2) > EXACT_PREFIXES
    return OwnerPartition(owners)


def checked_pair(p: OwnerPartition, oracle, check: FlipResult):
    """A request of pair selection for A over B on `p` whose check is `check`."""
    pair = explain_module._Request("pair", p, oracle, "A", "B", spawn_rng(0, 0), None)
    pair.last = check
    return pair


def heavy_game():
    """A's entry 0 alone closes the gap; 1 and 2 are decoys."""
    oracle = AdditiveUtility({0: 5.0, 1: 1.0, 2: 1.0, 3: 2.0})
    return part(A=[0, 1, 2], B=[3]), oracle


def two_step_game():
    """Equal weights: one transfer narrows the gap, two flip it."""
    oracle = AdditiveUtility({0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0})
    return part(A=[0, 1, 2], B=[3]), oracle


def tie_game():
    """Mirrored owners: the exact differential is zero with noisy terms."""
    oracle = AdditiveUtility({1: 1.0, 2: 1.0})
    return part(A=[1], B=[2], C=[1], D=[2]), oracle


def stubborn_pair():
    """A pair no transfer can flip.

    Three subsets are full covers and one is junk; Q already drowns in
    redundancy, so handing it P's cover only drops its value further while
    P's own value falls to zero. The exact differential stays positive for
    every candidate transfer.
    """
    game = SetCoverGame(
        universe=frozenset({1, 2, 3, 4}),
        subsets=(
            frozenset({1, 2, 3, 4}),
            frozenset({1, 2, 3, 4}),
            frozenset({1, 2, 3, 4}),
            frozenset({1}),
        ),
    )
    oracle = SetCoverUtility(game)
    return part(P=[3], Q=[1, 4], R=[2]), oracle, "P", "Q"


def integer_gap_games(count=10, seed=31):
    """Two-owner additive games with integer weights and an odd gap.

    Every post-transfer differential is an odd integer, so no check can sit
    on the boundary: all three engines face decisive margins.
    """
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        k = int(rng.integers(2, 6))
        w = {i: float(rng.integers(1, 4)) for i in range(k)}
        total = sum(w.values())
        gap = float(rng.choice([1.0, 3.0, 5.0]))
        if total - gap < 1.0:
            continue
        w[k] = total - gap
        games.append((part(A=list(range(k)), B=[k]), AdditiveUtility(w)))
    return games


class TestBruteforce:
    def test_moves_single_heavy_entry(self):
        p, oracle = heavy_game()
        res = explain("bf", p, oracle, "A", "B")
        assert res.engine == "bf"
        assert res.status == STATUS_OK and res.success
        assert res.delta == (0,) and res.size == 1
        assert res.initial_diff == pytest.approx(5.0, abs=1e-12)
        assert res.initial_half_width == 0.0
        assert res.final_diff is not None and res.final_diff < 0.0
        assert res.final_half_width == 0.0
        assert res.samples_used == 0
        assert res.subsets_tested == 1

    def test_lexicographic_tie_break(self):
        oracle = AdditiveUtility({0: 1.0, 1: 1.0, 2: 1.0, 3: 2.5})
        res = explain("bf", part(A=[0, 1, 2], B=[3]), oracle, "A", "B")
        assert res.delta == (0,)
        assert res.subsets_tested == 1

    def test_precondition_not_met_when_behind(self):
        p, oracle = heavy_game()
        res = explain("bf", p, oracle, "B", "A")
        assert res.status == STATUS_NOT_MET
        assert not res.success and res.delta == ()
        assert res.final_diff is None and res.subsets_tested == 0

    def test_precondition_not_met_on_exact_tie(self):
        oracle = AdditiveUtility({0: 1.0, 1: 1.0})
        res = explain("bf", part(A=[0], B=[1]), oracle, "A", "B")
        assert res.status == STATUS_NOT_MET

    def test_full_transfer_fallback_reports_failure(self):
        p, oracle, a, b = stubborn_pair()
        res = explain("bf", p, oracle, a, b)
        assert res.status == STATUS_OK
        assert not res.success
        assert res.delta == (3,)
        assert res.final_diff is not None and res.final_diff > 0.0

    def test_minimum_cardinality_against_exhaustive_search(self):
        checked = 0
        for partition, oracle in random_games(seed=21, count=30):
            values = shapley_exact_all(partition, oracle)
            owners = sorted(values, key=values.get)
            a, b = owners[-1], owners[0]
            ents = sorted(partition.entries(a))
            if values[a] - values[b] <= 1e-9 or not 0 < len(ents) <= 6:
                continue
            res = explain("bf", partition, oracle, a, b)
            assert res.status == STATUS_OK

            def flips(combo):
                moved = apply_transfer(partition, Transfer(a, b, frozenset(combo)))
                return diff_shapley_exact(moved, oracle, a, b) < 0.0

            if res.success:
                assert flips(res.delta)
                for size in range(1, res.size):
                    for combo in itertools.combinations(ents, size):
                        assert not flips(combo)
            else:
                for size in range(1, len(ents) + 1):
                    for combo in itertools.combinations(ents, size):
                        assert not flips(combo)
            checked += 1
        assert checked >= 8

    def test_too_many_entries_rejected(self, monkeypatch):
        weights = {i: 1.0 for i in range(22)}
        weights[0] = 50.0
        oracle = AdditiveUtility(weights)
        p = part(A=list(range(21)), B=[21])
        with pytest.raises(TooLarge, match="brute force over 21 entries exceeds the limit 20"):
            explain("bf", p, oracle, "A", "B")
        monkeypatch.setattr(explain_module, "BF_ENTRY_LIMIT", 21)
        res = explain("bf", p, oracle, "A", "B")
        assert res.status == STATUS_OK and res.delta == (0,)

    def test_timeout_reported(self):
        p, oracle = heavy_game()
        res = explain("bf", p, oracle, "A", "B", config=ExplainConfig(timeout=0.0))
        assert res.status == STATUS_TIMEOUT and res.timed_out
        assert res.delta == () and not res.success

    def test_same_owner_rejected(self):
        p, oracle = heavy_game()
        with pytest.raises(SameOwner):
            explain("bf", p, oracle, "A", "A")

    def test_unknown_owner_rejected(self):
        p, oracle = heavy_game()
        with pytest.raises(UnknownOwner):
            explain("bf", p, oracle, "A", "Z")

    def test_ignores_supplied_initial_check(self):
        # bf is always exact: a pair checked by sampling lends it nothing.
        p, oracle = heavy_game()
        p = padded(p)
        est = Estimate()
        est.update_many([-1.0, -1.1, -0.9])
        pair = checked_pair(p, oracle, FlipResult("flipped", est))
        res = explain("bf", p, oracle, "A", "B", pair=pair)
        assert res.status == STATUS_OK and res.delta == (0,)
        assert res.initial_diff == diff_shapley_exact(p, oracle, "A", "B")

    def test_result_dict_round_trip(self):
        p, oracle = heavy_game()
        res = explain("bf", p, oracle, "A", "B")
        d = res.to_dict()
        assert "wall_time" not in d
        assert d["delta"] == [0] and d["size"] == 1
        assert all(isinstance(e, int) for e in d["delta"])
        again = explain("bf", p, oracle, "A", "B").to_dict()
        assert again == d
        # The exact output fields of a result and of one greedy step.
        p, oracle = two_step_game()
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(5, 0))
        assert res.status == STATUS_OK and len(res.steps) == 2
        d = res.to_dict()
        assert set(d) == {
            "engine", "a", "b", "status", "delta", "size", "success",
            "initial_diff", "initial_half_width", "final_diff", "final_half_width",
            "samples_used", "subsets_tested", "timed_out", "budget_exhausted", "steps",
        }
        assert set(explain("bf", p, oracle, "A", "B").to_dict()) == set(d)
        assert set(d["steps"][0]) == {
            "entry", "power_mean", "power_half_width", "bandit_samples", "bandit_converged",
            "check_verdict", "check_mean", "check_half_width", "check_samples",
        }
        assert isinstance(d["steps"], list)
        assert d["steps"][0]["entry"] == res.steps[0].entry
        assert all(isinstance(s["entry"], int) for s in d["steps"])
        assert d == explain("svexp", p, oracle, "A", "B", spawn_rng(5, 0)).to_dict()


class TestMonteCarlo:
    def test_agrees_with_bruteforce_on_clear_margin(self):
        # Third owner so the sampled terms actually vary with the prefix.
        oracle = AdditiveUtility({0: 5.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 0.5})
        p = padded(part(A=[0, 1, 2], B=[3], C=[4]))
        bf = explain("bf", p, oracle, "A", "B")
        res = explain("mc", p, oracle, "A", "B", spawn_rng(1, 0))
        assert res.engine == "mc"
        assert res.status == STATUS_OK and res.success
        assert res.delta == bf.delta
        assert res.samples_used > 0
        assert res.final_diff is not None and res.final_diff < 0.0
        assert res.final_half_width is not None and res.final_half_width > 0.0

    def test_undecided_subsets_are_skipped_not_chosen(self):
        # One transfer lands exactly on the boundary; the pair only flips
        # once both of A's entries move.
        oracle = AdditiveUtility({0: 1.0, 1: 1.0, 2: 0.0})
        p = part(A=[0, 1], B=[2])
        res = explain("mc", p, oracle, "A", "B", spawn_rng(2, 0))
        assert res.status == STATUS_OK and res.success
        assert res.delta == (0, 1)
        assert res.subsets_tested == 3

    def test_precondition_not_met(self):
        p, oracle = heavy_game()
        res = explain("mc", p, oracle, "B", "A", spawn_rng(3, 0))
        assert res.status == STATUS_NOT_MET
        assert res.delta == () and not res.success
        assert res.initial_diff < 0.0

    def test_precondition_undecided_by_width_stop(self, monkeypatch):
        p, oracle = tie_game()
        monkeypatch.setattr(explain_module, "WIDTH_STOP", 0.5)
        res = explain("mc", p, oracle, "A", "B", spawn_rng(4, 0))
        assert res.status == STATUS_UNDECIDED
        assert not res.budget_exhausted

    def test_precondition_undecided_by_exhaustion(self, monkeypatch):
        p, oracle = tie_game()
        p = padded(p)
        monkeypatch.setattr(explain_module, "WIDTH_STOP", 0.0)
        cfg = ExplainConfig(check_budget=192)
        res = explain("mc", p, oracle, "A", "B", spawn_rng(5, 0), config=cfg)
        assert res.status == STATUS_UNDECIDED
        assert res.budget_exhausted

    def test_supplied_initial_check_is_trusted(self):
        p, oracle = heavy_game()
        est = Estimate()
        est.update_many([-1.0, -1.1, -0.9, -1.05])
        pair = checked_pair(p, oracle, FlipResult("flipped", est))
        res = explain("mc", p, oracle, "A", "B", spawn_rng(6, 0), pair=pair)
        assert res.status == STATUS_NOT_MET
        assert res.samples_used == 0
        assert res.initial_diff == est.mean

    def test_full_transfer_fallback_reports_failure(self):
        p, oracle, a, b = stubborn_pair()
        res = explain("mc", p, oracle, a, b, spawn_rng(7, 0))
        assert res.status == STATUS_OK
        assert not res.success
        assert res.delta == (3,)
        assert res.subsets_tested == 1

    def test_timeout_reported(self):
        p, oracle = heavy_game()
        res = explain("mc", p, oracle, "A", "B", spawn_rng(8, 0), config=ExplainConfig(timeout=0.0))
        assert res.status == STATUS_TIMEOUT and res.timed_out
        assert res.delta == ()

    def test_matches_bruteforce_on_integer_gap_games(self):
        for i, (p, oracle) in enumerate(integer_gap_games()):
            bf = explain("bf", p, oracle, "A", "B")
            mc = explain("mc", p, oracle, "A", "B", spawn_rng(9, i))
            assert mc.status == STATUS_OK and mc.success
            assert mc.delta == bf.delta


class TestGreedyBandit:
    def test_moves_dominant_entry_first(self):
        p, oracle = heavy_game()
        p = padded(p)
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(10, 0))
        assert res.engine == "svexp"
        assert res.status == STATUS_OK and res.success
        assert res.delta == (0,)
        assert len(res.steps) == 1
        step = res.steps[0]
        assert step.entry == 0
        assert step.check_verdict == "flipped"
        assert step.bandit_samples > 0
        assert step.power_mean > 0.0

    def test_grows_transfer_without_revisiting(self):
        p, oracle = two_step_game()
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(11, 0))
        assert res.status == STATUS_OK and res.success
        assert res.size == 2
        moved = [s.entry for s in res.steps]
        assert len(set(moved)) == len(moved)
        assert set(moved) <= {0, 1, 2}
        assert res.delta == tuple(sorted(moved))

    def test_forced_pick_when_one_entry_left(self):
        # The first transfer lands the pair on an exact tie, so the loop must
        # take the lone remaining entry without racing it.
        oracle = AdditiveUtility({0: 1.0, 1: 1.0, 2: 0.0})
        p = part(A=[0, 1], B=[2])
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(12, 0))
        assert res.status == STATUS_OK and res.success
        assert res.delta == (0, 1)
        assert len(res.steps) == 2
        assert res.steps[0].check_verdict == "undecided"
        assert res.steps[1].bandit_samples == 0
        assert res.steps[1].power_mean == 0.0

    def test_precondition_statuses(self, monkeypatch):
        p, oracle = heavy_game()
        behind = explain("svexp", p, oracle, "B", "A", spawn_rng(13, 0))
        assert behind.status == STATUS_NOT_MET and behind.delta == ()
        tie_p, tie_oracle = tie_game()
        monkeypatch.setattr(explain_module, "WIDTH_STOP", 0.5)
        tied = explain("svexp", tie_p, tie_oracle, "A", "B", spawn_rng(13, 1))
        assert tied.status == STATUS_UNDECIDED

    def test_exhausts_owner_and_reports_failure(self):
        p, oracle, a, b = stubborn_pair()
        res = explain("svexp", p, oracle, a, b, spawn_rng(14, 0))
        assert res.status == STATUS_OK
        assert not res.success
        assert res.delta == (3,)
        assert len(res.steps) == 1
        assert res.steps[0].bandit_samples == 0

    def test_timeout_reported(self):
        p, oracle = heavy_game()
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(15, 0), config=ExplainConfig(timeout=0.0))
        assert res.status == STATUS_TIMEOUT and res.timed_out
        assert res.delta == ()

    def test_deterministic_per_seed(self):
        p, oracle = two_step_game()

        def run():
            return explain("svexp", p, oracle, "A", "B", spawn_rng(16, 0))

        first, second = run(), run()
        assert first.delta == second.delta
        assert first.samples_used == second.samples_used
        assert [s.entry for s in first.steps] == [s.entry for s in second.steps]

    @pytest.mark.parametrize("seed, delta, success", [(124, (12, 45), True), (120, (11, 46), False)])
    def test_goes_on_past_a_flip_its_verification_refutes(self, seed, delta, success):
        # 10 owners over a 48-row KDE table, so svexp samples. With seed 124
        # the first round check says flipped once 45 moves, but the exact
        # differential after that shift is +0.566 and the verification
        # refutes the flip: the loop goes on to bf's answer. With seed 120
        # the verification of (11, 46) is undecided (exact -0.0127), and
        # that answer stands unverified.
        rng = np.random.default_rng([64, seed])
        labels = np.arange(60) % 2 * 1.0
        feats = rng.normal(size=(60, 2)) + 0.8 * labels[:, None]
        oracle = KdeUtility(Dataset(feats[:48], ("f0", "f1")), Dataset(feats[48:], ("f0", "f1")))
        p = harness.gen_zipfian(range(48), 10, rng, a=2, k1=3, k2=0, k_max=3)
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(seed, 1), config=GATE_CONFIG)
        assert res.status == STATUS_OK and (res.delta, res.success) == (delta, success)
        assert explain("bf", p, oracle, "A", "B").delta == delta
        assert res.steps[-1].check_verdict == "flipped"
        if success:
            assert [s.check_verdict for s in res.steps] == ["flipped", "flipped"]
            assert res.final_diff + res.final_half_width < 0.0
        else:
            assert abs(res.final_diff) < res.final_half_width

    def test_never_beats_bruteforce_size(self):
        for i, (p, oracle) in enumerate(integer_gap_games()):
            bf = explain("bf", p, oracle, "A", "B")
            sv = explain("svexp", p, oracle, "A", "B", spawn_rng(17, i))
            assert sv.status == STATUS_OK and sv.success
            assert sv.size >= bf.size


class TestDispatcher:
    def test_unknown_engine_rejected(self):
        p, oracle = heavy_game()
        with pytest.raises(ValueError):
            explain("newton", p, oracle, "A", "B", spawn_rng(0))

    def test_sampling_engines_need_rng(self):
        # From 10 owners mc and svexp sample; bf never does.
        p, oracle = heavy_game()
        p = padded(p, 10)
        assert explain_module.draws("mc", p) and not explain_module.draws("bf", p)
        with pytest.raises(ValueError, match="needs an rng"):
            explain("mc", p, oracle, "A", "B")
        with pytest.raises(ValueError, match="needs an rng"):
            explain("svexp", p, oracle, "A", "B")

    @pytest.mark.parametrize("engine", ["mc", "svexp"])
    def test_exact_route_needs_no_rng(self, engine):
        # Up to 9 owners every check and race is exact: no rng is read, and
        # none gives the result an rng would.
        heavy, oracle = heavy_game()
        nine = OwnerPartition({**heavy.owners, **{f"Z{i}": frozenset() for i in range(7)}})
        games = [(99, nine, oracle, "A", "B"), *TestCoalitionPlan.games()]
        for i, p, oracle, a, b in games:
            assert not explain_module.draws(engine, p)
            want = explain(engine, p, oracle, a, b, spawn_rng(20, i)).to_dict()
            assert explain(engine, p, oracle, a, b).to_dict() == want

    def test_bruteforce_runs_without_rng(self):
        p, oracle = heavy_game()
        res = explain("bf", p, oracle, "A", "B")
        assert isinstance(res, CounterfactualResult)
        assert res.delta == (0,)

    def test_initial_check_forwarded(self):
        p, oracle = heavy_game()
        est = Estimate()
        est.update_many([-1.0, -1.2])
        pair = checked_pair(p, oracle, FlipResult("flipped", est))
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(18, 0), pair=pair)
        assert res.status == STATUS_NOT_MET
        assert res.samples_used == 0

    @pytest.mark.parametrize("engine", ["mc", "svexp"])
    def test_one_sample_precheck_is_not_reported_exact(self, engine):
        # One drawn ordering leaves the interval unbounded; only an exact
        # check, with no samples, has half-width 0.0.
        p, oracle = heavy_game()
        cfg = ExplainConfig(check_budget=1)
        res = explain(engine, padded(p, 10), oracle, "A", "B", spawn_rng(19, 0), config=cfg)
        assert res.status == STATUS_UNDECIDED and res.samples_used == 1
        assert res.initial_half_width == math.inf


class TestExactRoute:
    """Flip checks and races below EXACT_PREFIXES: exact, and no draws."""

    MAX_OWNERS = 2 + EXACT_PREFIXES.bit_length() - 1  # largest n with 2^(n-2) <= EXACT_PREFIXES

    def test_mc_matches_bruteforce_up_to_the_threshold(self):
        seen = set()
        for i, (p, oracle) in enumerate(random_games(seed=41, count=40, n_hi=self.MAX_OWNERS)):
            a, b = p.owner_ids()[:2]
            bf = explain("bf", p, oracle, a, b)
            mc = explain("mc", p, oracle, a, b, spawn_rng(41, i))
            seen.add(p.n)
            assert mc.initial_diff == bf.initial_diff
            assert mc.initial_half_width == 0.0 and mc.samples_used == 0
            if bf.initial_diff <= 0.0:
                tied = bf.initial_diff == 0.0
                assert mc.status == (STATUS_UNDECIDED if tied else STATUS_NOT_MET)
                assert not mc.budget_exhausted
                continue
            assert (mc.status, mc.delta, mc.success) == (bf.status, bf.delta, bf.success)
            assert mc.final_diff == bf.final_diff and mc.final_half_width == 0.0
            assert mc.subsets_tested == bf.subsets_tested
        assert min(seen) == 2 and max(seen) == self.MAX_OWNERS

    def test_svexp_round_check_reads_the_winners_power(self, values_calls, monkeypatch):
        # Each round check is minus the winning arm's power, from the table: it
        # has the bits of a fresh check of the same shift and sends no call,
        # unless the pick was forced (a's last entry), which scores no power.
        check, rounds = explain_module._Request.check, []

        def spy(req, budget, moved=()):
            sent = len(values_calls)
            res = check(req, budget, moved)
            if moved:  # not the precheck
                rounds.append((req, budget, frozenset(moved), res, len(values_calls) - sent))
            return res

        monkeypatch.setattr(explain_module._Request, "check", spy)
        tie = (part(A=[0, 1, 2], B=[3], C=[4]), AdditiveUtility({e: 1.0 for e in range(5)}))  # 2 vs 2 after a move
        games = [*random_games(seed=91, count=40, n_lo=3, n_hi=self.MAX_OWNERS), tie]
        for i, (p, oracle) in enumerate(games):
            a, b = p.owner_ids()[:2]
            explain("svexp", p, oracle, a, b, spawn_rng(91, i))
        verdicts = set()
        for req, budget, moved, res, sent in rounds:
            fresh = explain_module._Request("svexp", req.partition, req.oracle, req.a, req.b, None, req.cfg)
            explain_module._score([(fresh, [moved])])
            assert TestPairSession.bits(res) == TestPairSession.bits(check(fresh, budget, moved))
            if req.ents_a - moved:
                assert sent == 0
                verdicts.add(res.verdict)
        assert verdicts == {"flipped", "not_flipped", "undecided"}  # ties included: +0.0, never -0.0

    def test_svexp_first_pick_is_the_exact_power_argmax(self):
        picked = 0
        for i, (p, oracle) in enumerate(random_games(seed=43, count=40, n_hi=self.MAX_OWNERS)):
            a, b = p.owner_ids()[:2]
            ents = sorted(p.entries(a))
            if len(ents) < 2 or diff_shapley_exact(p, oracle, a, b) <= 0.0:
                continue
            powers = [power_exact(p, oracle, a, b, x) for x in ents]
            best = max(powers)
            res = explain("svexp", p, oracle, a, b, spawn_rng(43, i))
            step = res.steps[0]
            assert step.entry == ents[powers.index(best)]
            assert step.power_mean == best
            assert (step.power_half_width, step.bandit_samples, step.bandit_converged) == (0.0, 0, True)
            picked += 1
        assert picked >= 10

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("kind", ["kde", "logistic-regression"])
    def test_race_scores_every_arm_in_one_values_call(self, kind, cache, monkeypatch):
        train = make_blobs(60, n_features=3, seed=47, sep=1.0)
        test = make_blobs(20, n_features=3, seed=48, sep=1.0)

        def build():
            if kind == "kde":
                return KdeUtility(train, test, cache=cache)
            return LogRegUtility(train, test, iters=20, cache=cache)

        rng = np.random.default_rng(47)
        rows = rng.permutation(60).tolist()
        sizes = [5, 3, 4, 2, 6, 3, 4]  # 7 owners: 32 prefixes per arm
        owners, at = {}, 0
        for name, size in zip("ABCDEFG", sizes):
            owners[name] = rows[at : at + size] + rows[:1]  # every owner shares row rows[0]
            at += size
        p = OwnerPartition(owners)
        ents = sorted(p.entries("A"))
        oracle, reference = build(), build()
        calls = []
        values = oracle.values
        monkeypatch.setattr(oracle, "values", lambda sets: calls.append(len(sets)) or values(sets))
        req = explain_module._Request("svexp", p, oracle, "A", "B", None, None)
        explain_module._score([(req, [frozenset({e}) for e in ents])])
        pick = req.race(())
        powers = [
            diff_shapley_exact(apply_transfer(p, Transfer("A", "B", frozenset({e}))), reference, "B", "A")
            for e in ents
        ]
        assert calls == [len(ents) * 2 * 2 ** 5]
        assert [arm.entry for arm in pick.arms] == ents
        assert [arm.estimate.mean for arm in pick.arms] == powers
        assert pick.entry == ents[powers.index(max(powers))]
        assert (oracle.calls, oracle.evals) == (reference.calls, reference.evals)

    def test_power_ties_go_to_the_smallest_entry(self):
        oracle = AdditiveUtility({5: 2.0, 3: 2.0, 8: 2.0, 1: 1.0})
        p = part(A=[8, 3, 5], B=[1], C=[])
        res = explain("svexp", p, oracle, "A", "B", spawn_rng(44, 0))
        assert [s.entry for s in res.steps] == [3, 5]

    def test_exact_checks_draw_nothing_and_report_no_width(self):
        p, oracle = two_step_game()
        for engine in ("mc", "svexp"):
            rng = spawn_rng(45, 0)
            state = rng.bit_generator.state
            res = explain(engine, p, oracle, "A", "B", rng)
            assert rng.bit_generator.state == state
            assert res.status == STATUS_OK and res.success
            assert res.samples_used == 0 and not res.budget_exhausted
            assert res.initial_half_width == 0.0 and res.final_half_width == 0.0
            for step in res.steps:
                assert step.power_half_width == 0.0 and step.check_half_width == 0.0
                assert step.bandit_samples == 0 and step.check_samples == 0

    def test_flip_check_verdicts(self):
        cfg = ExplainConfig()
        p, oracle = heavy_game()
        tie_p, tie_oracle = tie_game()
        for (pp, o, a, b), verdict in [
            ((p, oracle, "A", "B"), "not_flipped"),
            ((p, oracle, "B", "A"), "flipped"),
            ((tie_p, tie_oracle, "A", "B"), "undecided"),
        ]:
            pair = explain_module._Request("pair", pp, o, a, b, None, cfg)
            explain_module._score([(pair, [frozenset()])])
            pair.precheck(10)
            res = pair.last
            assert res.verdict == verdict and not res.budget_exhausted
            assert res.estimate.count == 0
            assert res.estimate.mean == diff_shapley_exact(pp, o, a, b)
        with pytest.raises(SameOwner):
            explain_module._Request("pair", p, oracle, "A", "A", None, cfg)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_samplers_run_only_above_the_threshold(self, sampled, monkeypatch):
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("is_flipped", "thompson_top1"):
            spy(explain_module, name)
        p, oracle = heavy_game()
        if sampled:
            p = padded(p)
        explain("mc", p, oracle, "A", "B", spawn_rng(46, 0))
        explain("svexp", p, oracle, "A", "B", spawn_rng(46, 1))
        engines = set(calls)
        calls.clear()
        cfg = ExplainConfig()
        (pair,) = explain_module.select_pairs([p], oracle, [spawn_rng(46, 2)], cfg, cfg.check_budget, ("A", "B"), ["mc"])
        assert (pair.a, pair.b) == ("A", "B")
        expected = {"shapcf.explain.is_flipped", "shapcf.explain.thompson_top1"}
        assert engines == (expected if sampled else set())
        # the pair's own check samples through the engines' is_flipped
        assert set(calls) == ({"shapcf.explain.is_flipped"} if sampled else set())


@pytest.mark.parametrize("n", [7, 11])  # exact and sampled races
def test_race_sends_what_checking_its_shifts_sends(n, values_calls):
    # A power is minus its shift's differential: the race at X scores arm e
    # on the sets that checking the shift X + {e} sends, in the same order.
    owners = {"A": [0, 1, 2, 3, 4], "B": [5], **{f"C{i}": [6 + i, 7 + i] for i in range(n - 2)}}
    p = part(**owners)
    oracle = AdditiveUtility({e: 1.0 + (e * 7 % 5) for e in range(n + 6)})
    moved = frozenset({2})
    ents = [0, 1, 3, 4]
    shifts = [moved | {e} for e in ents]
    if n == 7:
        race = explain_module._Request("svexp", p, oracle, "A", "B", None, None)
        explain_module._score([(race, shifts)])
        race.race(moved)
        raced = values_calls[:]
        values_calls.clear()
        check = explain_module._Request("mc", p, oracle, "A", "B", spawn_rng(0), None)
        explain_module._score([(check, shifts)])
        list(check.checks(64, shifts))
    else:
        sampler = make_power_sampler(p, oracle, "A", "B", moved)
        for e in ents:
            sampler(e, FLIP_BATCH, spawn_rng(83, e))
        raced = values_calls[:]
        values_calls.clear()
        for e, shift in zip(ents, shifts):
            is_flipped(p, oracle, "A", "B", spawn_rng(83, e), budget=FLIP_BATCH, moved=shift)
    assert len(raced) == (1 if n == 7 else len(ents))
    assert values_calls == raced


class TestCoalitionPlan:
    """The exact route scores every shift on one coalition plan per request."""

    MAX_OWNERS = TestExactRoute.MAX_OWNERS

    @staticmethod
    def games():
        """40 games of 2-9 owners, with a above b where the game allows it."""
        games = random_games(seed=61, count=40, n_hi=TestCoalitionPlan.MAX_OWNERS, pool=6)
        for i, (p, oracle) in enumerate(games):
            a, b = p.owner_ids()[:2]
            if diff_shapley_exact(p, oracle, a, b) < 0.0:
                a, b = b, a
            yield i, p, oracle, a, b

    @classmethod
    def memo_games(cls):
        """games(), an additive game's oracle on the generic gap path, so that its evals count memo misses."""
        for i, p, oracle, a, b in cls.games():
            yield i, p, on_memo_path(oracle), a, b

    def test_shifts_and_powers_have_the_bits_of_moved_partitions(self, monkeypatch):
        shifts, races = [], []
        request = explain_module._Request
        checks, race = request.checks, request.race

        def spy_checks(req, budget, chunk):  # every check, single or chunked, goes through it
            chunk = [frozenset(moved) for moved in chunk]
            for moved, res in zip(chunk, checks(req, budget, chunk)):
                shifts.append((req, moved, res.estimate.mean))
                yield res

        def spy_race(req, moved):
            pick = race(req, moved)
            races.append((req, frozenset(moved), pick))
            return pick

        monkeypatch.setattr(request, "checks", spy_checks)
        monkeypatch.setattr(request, "race", spy_race)
        sizes, shared, empty = set(), 0, 0
        for i, p, oracle, a, b in self.games():
            sizes.add(p.n)
            shared += bool(p.entries(a) & p.entries(b))
            empty += any(not p.entries(o) for o in p.owner_ids())
            explain("bf", p, oracle, a, b)
            explain("mc", p, oracle, a, b, spawn_rng(61, i))
            explain("svexp", p, oracle, a, b, spawn_rng(62, i))
        assert sizes == set(range(2, self.MAX_OWNERS + 1)) and shared >= 5 and empty >= 5
        def shifted(req, moved):
            return apply_transfer(req.partition, Transfer(req.a, req.b, moved))

        for req, moved, d in shifts:
            assert d == diff_shapley_exact(shifted(req, moved), req.oracle, req.a, req.b)
        powers = [
            (arm.estimate.mean, power_exact(shifted(req, moved), req.oracle, req.a, req.b, arm.entry))
            for req, moved, pick in races
            if len(pick.arms) > 1  # a lone arm is a forced pick: it has no power
            for arm in pick.arms
        ]
        assert all(got == want for got, want in powers)
        assert len(shifts) > 300 and len(powers) > 100

    @staticmethod
    def count_calls(monkeypatch, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(explain_module, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(explain_module, name, wrapper)
        return counts

    @staticmethod
    def count_partitions(monkeypatch):
        """A counter of the OwnerPartitions built from now on, apply_transfer's included."""
        built = [0]
        post_init = OwnerPartition.__post_init__

        def counted(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(OwnerPartition, "__post_init__", counted)
        return built

    def test_no_moved_partition_per_subset_or_arm(self, monkeypatch):
        games = list(self.games())
        built = self.count_partitions(monkeypatch)
        counts = self.count_calls(monkeypatch, "diff_shapley_exact")
        rounds = 0
        for i, p, oracle, a, b in games:
            explain("bf", p, oracle, a, b)
            explain("mc", p, oracle, a, b, spawn_rng(63, i))
            res = explain("svexp", p, oracle, a, b, spawn_rng(64, i))
            rounds += len(res.steps)
        assert rounds > 20
        assert built == [0]  # every shift is scored on the plan
        assert counts["diff_shapley_exact"] == 0  # no request calls that name; a tracer wraps it

    def test_requests_build_no_partition_on_either_route(self, monkeypatch):
        base = [heavy_game(), two_step_game(), *integer_gap_games(count=4)]
        exact = [(OwnerPartition({**p.owners, **{f"Z{i}": () for i in range(6 - p.n)}}), o) for p, o in base]
        sampled = [(padded(p), oracle) for p, oracle in base]
        assert {p.n for p, _ in exact} == {6} and {p.n for p, _ in sampled} == {11}
        built = self.count_partitions(monkeypatch)
        rounds = tested = 0
        for i, (p, oracle) in enumerate(exact + sampled):
            res = explain("svexp", p, oracle, "A", "B", spawn_rng(68, i))
            assert res.status == STATUS_OK and res.steps
            rounds += len(res.steps)
            res = explain("mc", p, oracle, "A", "B", spawn_rng(69, i))
            assert res.status == STATUS_OK and res.subsets_tested
            tested += res.subsets_tested
        assert built == [0]  # no partition per round, subset, race or verification
        assert rounds > 12 and tested > 12

    def test_exact_verification_reuses_the_last_check(self):
        checked, failed = 0, 0
        for i, p, oracle, a, b in [*self.memo_games(), (40, *stubborn_pair())]:
            for engine in ("bf", "mc", "svexp"):
                oracle.clear_cache()
                calls = oracle.calls
                res = explain(engine, p, oracle, a, b, spawn_rng(65, i))
                if res.status != STATUS_OK:
                    continue
                if engine != "svexp":
                    # the precheck and one differential per subset: no recomputation
                    assert oracle.calls - calls == (1 + res.subsets_tested) * 2 ** (p.n - 1)
                evals = oracle.evals
                moved = apply_transfer(p, Transfer(a, b, frozenset(res.delta)))
                assert res.final_diff == diff_shapley_exact(moved, oracle, a, b)
                assert oracle.evals == evals  # the final check's sets were all scored already
                assert res.success == (res.final_diff < 0.0) and res.final_half_width == 0.0
                checked += 1
                failed += not res.success
        assert checked > 60 and failed >= 3

    def test_verification_reuse_leaves_evals_unchanged(self):
        def rescored(engine, p, oracle, a, b, rng):
            res = explain(engine, p, oracle, a, b, rng)
            if res.status == STATUS_OK:  # what a recomputed verification would add
                diff_shapley_exact(apply_transfer(p, Transfer(a, b, frozenset(res.delta))), oracle, a, b)
            return res

        for i, p, oracle, a, b in self.memo_games():
            for engine in ("bf", "mc", "svexp"):
                oracle.clear_cache()
                evals = oracle.evals
                explain(engine, p, oracle, a, b, spawn_rng(67, i))
                reused = oracle.evals - evals
                oracle.clear_cache()
                evals = oracle.evals
                rescored(engine, p, oracle, a, b, spawn_rng(67, i))
                assert oracle.evals - evals == reused

    def test_plan_differentials_match_the_definition(self):
        for p, oracle in random_games(seed=66, count=12, n_hi=5):
            values = shapley_by_definition(p.owners, oracle.value)
            for a, b in itertools.permutations(p.owner_ids(), 2):
                got = differentials(oracle, [(coalition_plan(p, a, b), [(p.entries(a), p.entries(b))])])
                assert got[0] == pytest.approx(values[a] - values[b], abs=1e-9)

    def test_bruteforce_owner_limit_is_unchanged(self):
        p = OwnerPartition({f"O{i}": frozenset({i}) for i in range(EXACT_OWNER_LIMIT + 1)})
        oracle = AdditiveUtility({i: 1.0 for i in range(EXACT_OWNER_LIMIT + 1)})
        limit = f"exact differential over {EXACT_OWNER_LIMIT + 1} owners exceeds the limit {EXACT_OWNER_LIMIT}"
        with pytest.raises(TooManyOwners, match=limit):
            explain("bf", p, oracle, "O0", "O1")


class TestPairSession:
    """Pair selection checks a pair with a request that every engine of the trial shares."""

    @staticmethod
    def bits(check: FlipResult):
        est = check.estimate
        return check.verdict, check.budget_exhausted, est.delta, est.count, est.mean.hex(), est.m2.hex()

    @pytest.mark.parametrize("n_owners", [6, 10])
    def test_one_coalition_plan_per_checked_pair(self, n_owners, monkeypatch):
        plans, pairs = [], []
        plan, request = explain_module.coalition_plan, explain_module._Request
        for module in (explain_module, importlib.import_module("shapcf.shapley")):
            monkeypatch.setattr(module, "coalition_plan", lambda *args: plans.append(args[1:]) or plan(*args))

        def spy(*args):  # counts pair selection's requests, not the engines'
            if args[0] == "pair":
                pairs.append(args[3:5])
            return request(*args)

        monkeypatch.setattr(explain_module, "_Request", spy)
        cfg = harness.ExperimentConfig.from_json({
            "utility": {"kind": "additive", "weights": {str(e): 1.0 for e in range(40)}},
            "engines": ["bf", "mc", "svexp"], "n_owners": n_owners,
            "allocation": {"kind": "uniform", "size_range": [2, 2]}, "trials": 5, "seed": 5,
            "sampling": {"check_budget": 640, "pair_budget": 320, "arm_budget": 320, "bandit_budget": 1280},
        })
        records = harness.run_experiment(cfg).records
        assert len(pairs) > cfg.trials  # ties: some trials redraw their pair
        assert {r.status for r in records} >= {STATUS_OK}
        if n_owners == 6:
            # every checked pair builds its one plan; no engine builds another
            assert plans == pairs
        else:
            # pairs are checked by sampling; bf, always exact, plans its own pair
            assert plans == [(r.a, r.b) for r in records if r.engine == "bf"]

    def test_swapped_twin_is_a_fresh_request_for_the_reverse_pair(self):
        cfg = ExplainConfig(check_budget=640)
        compared = set()
        for i, (p, oracle) in enumerate(random_games(seed=71, count=30, n_lo=3, n_hi=9)):
            a, b = p.owner_ids()[:2]
            for pp in (p, padded(p)):
                pair = explain_module._Request("pair", pp, oracle, a, b, spawn_rng(71, i), cfg)
                fresh = explain_module._Request("pair", pp, oracle, b, a, spawn_rng(71, i), cfg)
                explain_module._score([(pair, [frozenset()]), (fresh, [frozenset()])])  # the sampled route scores nothing
                pair.precheck(cfg.check_budget)
                fresh.precheck(cfg.check_budget)
                if pair.last.estimate.mean == 0.0:
                    continue  # a zero's sign is not negated evidence
                twin = pair.swapped()
                assert (twin.a, twin.b) == (b, a)
                assert (twin.ents_a, twin.ents_b) == (fresh.ents_a, fresh.ents_b)
                assert self.bits(twin.last) == self.bits(fresh.last)
                assert type(twin.route) is type(pair.route) is type(fresh.route)
                if isinstance(twin.route, explain_module._Exact):
                    assert twin.route.plan is pair.route.plan and twin.route.table == {}
                    assert twin.route.plan[0] == fresh.route.plan[0]
                    assert [w.hex() for w in twin.route.plan[1]] == [w.hex() for w in fresh.route.plan[1]]
                compared.add((pp.n > 9, twin.last.verdict))
        assert compared >= {(False, "flipped"), (False, "not_flipped"), (True, "flipped"), (True, "not_flipped")}

    def test_a_mismatched_pair_raises(self):
        p, oracle = heavy_game()
        pair = explain_module._Request("pair", p, oracle, "A", "B", None, None)
        explain_module._score([(pair, [frozenset()])])
        pair.precheck(10)
        for engine, args in [
            ("bf", (p, oracle, "B", "A")),
            ("mc", (part(A=[0, 1, 2], B=[3], C=[]), oracle, "A", "B")),
            ("svexp", (p, AdditiveUtility({0: 5.0, 1: 1.0, 2: 1.0, 3: 2.0}), "A", "B")),
        ]:
            with pytest.raises(ValueError, match="not this request's pair"):
                explain(engine, *args, spawn_rng(72, 0), pair=pair)
        assert explain("mc", p, oracle, "A", "B", spawn_rng(72, 0), pair=pair).delta == (0,)

    def test_a_trials_engines_share_the_pairs_one_table(self, values_calls):
        # Every engine of an exact trial reads and fills its pair's one table:
        # mc after bf reads only the shifts bf scored and sends no call, and an
        # engine run again sends none. Each result is the one on a fresh pair.
        cfg, scored = ExplainConfig(), 0

        def checked_pair(p, oracle, a, b):
            (pair,) = explain_module.select_pairs([p], oracle, [None], cfg, cfg.check_budget, (a, b), ["bf"])
            return pair

        for i, p, oracle, a, b in TestCoalitionPlan.games():
            pair, sent = checked_pair(p, oracle, a, b), []
            for engine in ("bf", "mc", "svexp", "bf", "mc", "svexp"):
                values_calls.clear()
                res = explain(engine, p, oracle, a, b, spawn_rng(74, i), pair=pair)
                sent.append(len(values_calls))
                fresh = explain(engine, p, oracle, a, b, spawn_rng(74, i), pair=checked_pair(p, oracle, a, b))
                assert res.to_dict() == fresh.to_dict()
            assert sent[1] == 0 and sent[3:] == [0, 0, 0]
            scored += sent[0] > 0
        assert scored >= 10

    def test_an_empty_owner_on_a_swapped_twin_verifies_its_empty_shift(self):
        # A has a negative value, so a pair drawn as (A, B) is kept as its twin
        # (B, A), whose table lacks the empty shift; with nothing to give, every
        # engine verifies that shift, which its body yields and so scores.
        class Shrinking(UtilityOracle):
            kind, pool = "shrinking", range(3)

            def _score(self, ids):
                return 3.0 - len(ids)

        p, cfg, twins = part(A=[0, 1], B=[], C=[2]), ExplainConfig(), 0
        assert diff_shapley_exact(p, Shrinking(), "A", "B") == -0.5
        for i in range(40):
            oracle = Shrinking()
            (pair,) = explain_module.select_pairs([p], oracle, [spawn_rng(75, i)], cfg, cfg.check_budget, None, ["bf"])
            if (pair.a, pair.b) != ("B", "A") or pair.route.table:
                continue  # not the twin of a pair drawn as (A, B)
            twins += 1
            for engine in ("bf", "mc", "svexp"):
                res = explain(engine, p, oracle, "B", "A", pair=pair)
                assert (res.status, res.delta, res.success, res.final_diff) == (STATUS_OK, (), False, 0.5)
                assert res.to_dict() == explain(engine, p, Shrinking(), "B", "A").to_dict()
        assert twins > 0

    @pytest.mark.parametrize("engine", ["mc", "svexp"])
    def test_a_sampled_pair_lends_its_check_not_its_rng(self, engine):
        p, oracle = heavy_game()
        p, cfg = padded(p), ExplainConfig(check_budget=640)
        pair = explain_module._Request("pair", p, oracle, "A", "B", spawn_rng(73, 0), cfg)
        pair.precheck(cfg.check_budget)
        assert pair.last.verdict == "not_flipped" and pair.last.estimate.count > 0
        pair_state, rng = pair.rng.bit_generator.state, spawn_rng(73, 1)
        engine_state = rng.bit_generator.state
        res = explain(engine, p, oracle, "A", "B", rng, config=cfg, pair=pair)
        assert res.status == STATUS_OK and res.initial_diff == pair.last.estimate.mean
        assert pair.rng.bit_generator.state == pair_state
        assert rng.bit_generator.state != engine_state


def logistic_games(count: int = 30, seed: int = 81):
    """Logistic games of 3-7 owners over 16 shared rows, with a above b where the game allows it.

    Rows 2k and 2k + 1 are twins (same features and label), so a set and its
    twin-swapped copy score the same bits. A third of the games give
    a = {2k, 2k + 1} | C and b = C: moving one twin ties exactly. Another
    third draw every owner from the label-0 rows, where a set's score
    depends on its size alone, and with eta = 1 every set of 5 rows or more
    scores 0: a moving everything to b may leave a on top. The rest draw
    owners freely. Owners overlap. Each game comes with a builder of fresh
    oracles.
    """
    train = make_blobs(40, n_features=2, seed=seed, sep=1.0)
    train.features[1::2] = train.features[::2]
    train.labels[1::2] = train.labels[::2]
    test = make_blobs(20, n_features=2, seed=seed + 1, sep=1.0)
    rng = np.random.default_rng(seed)
    zeros = [i for i in range(16) if train.labels[i] == 0.0]
    games = []
    for i in range(count):
        n = 3 + i % 5
        kind = ("twin", "pure", "free")[i // 5 % 3]
        pool = zeros if kind == "pure" else range(16)
        owners = {
            f"O{j}": frozenset(int(e) for e in rng.choice(pool, size=int(rng.integers(1, 5)), replace=False))
            for j in range(n)
        }
        if kind == "twin":
            k = int(rng.integers(8))
            shared = frozenset(int(e) for e in rng.choice(16, size=int(rng.integers(0, 3)), replace=False))
            shared -= {2 * k, 2 * k + 1}
            owners["O0"], owners["O1"] = shared | {2 * k, 2 * k + 1}, shared
        p = OwnerPartition(owners)
        build = functools.partial(LogRegUtility, train, test, iters=30, eta=1.0 if kind == "pure" else 20.0)
        a, b = "O0", "O1"
        if kind != "twin" and diff_shapley_exact(p, build(), a, b) < 0.0:
            a, b = b, a
        games.append((i, p, a, b, build))
    return games


class TestChunkedSearch:
    """Exact searches check as many subsets per oracle call as the oracle has room for."""

    def test_bf_and_mc_match_the_one_subset_reference(self, monkeypatch):
        spans = []
        span = explain_module._Request.span
        monkeypatch.setattr(
            explain_module._Request, "span", lambda req, moved: spans.append(span(req, moved)) or spans[-1]
        )
        sizes, ties, fallbacks, flips, shared, not_met = set(), 0, 0, 0, 0, 0
        for i, p, a, b, build in logistic_games():
            ref = first_flip_reference(p, build(), a, b)
            sizes.add(p.n)
            shared += bool(p.entries(a) & p.entries(b))
            for res in (explain("bf", p, build(), a, b), explain("mc", p, build(), a, b, spawn_rng(81, i))):
                assert res.initial_diff == ref.initial
                if ref.initial <= 0.0:
                    tied = res.engine == "mc" and ref.initial == 0.0
                    assert res.status == (STATUS_UNDECIDED if tied else STATUS_NOT_MET)
                    assert res.subsets_tested == 0
                    continue
                assert res.status == STATUS_OK and res.samples_used == 0
                assert res.delta == ref.delta and res.subsets_tested == ref.tested
                assert res.final_diff == ref.final and res.success == (ref.final < 0.0)
            not_met += ref.initial <= 0.0
            if ref.initial > 0.0:
                ties += 0.0 in ref.diffs
                fallbacks += ref.final >= 0.0
                flips += ref.final < 0.0
        assert sizes == set(range(3, 8)) and shared >= 5
        assert ties >= 2 and fallbacks >= 2 and flips >= 5 and not_met >= 2
        assert max(spans) > 1 and min(spans) == 1  # some checks share a call, the largest games do not

    def test_one_values_call_per_chunk(self, monkeypatch):
        request = explain_module._Request
        checks = request.checks
        chunks = []
        monkeypatch.setattr(
            request, "checks", lambda req, budget, shifts: chunks.append(len(shifts)) or checks(req, budget, shifts)
        )
        shared = 0
        for i, p, a, b, build in logistic_games():
            oracle = build()
            values = oracle.values
            calls = []
            monkeypatch.setattr(oracle, "values", lambda sets: calls.append(len(sets)) or values(sets))
            chunks.clear()
            res = explain("bf", p, oracle, a, b)
            if res.status != STATUS_OK:
                continue
            # the precheck, then one call per chunk; the verification is a
            # one-shift check of the answer, read off the table with no call
            assert chunks[-1] == 1 and calls == [k * 2 ** (p.n - 1) for k in chunks[:-1]]
            assert chunks[0] == 1 and sum(chunks[1:-1]) >= res.subsets_tested > sum(chunks[1:-2])
            shared += max(chunks) > 1
        assert shared >= 5

    def test_a_chunk_stops_at_a_flip_its_table_holds(self, monkeypatch):
        # A pair whose table already holds the answer's shift (as a window's
        # search rounds leave it) lends it to bf: bf scores the subsets before
        # the answer and nothing past it, however far its chunk reaches.
        served, past = 0, 0
        for i, p, a, b, build in logistic_games():
            shift = 2 ** (p.n - 1)
            alone, calls = build(), []
            values = alone.values
            monkeypatch.setattr(alone, "values", lambda sets: calls.append(len(sets)) or values(sets))
            res = explain("bf", p, alone, a, b)
            if res.status != STATUS_OK or not res.success:
                continue
            oracle, cfg = build(), ExplainConfig()
            pair = explain_module._Request("pair", p, oracle, a, b, None, cfg)
            explain_module._score([(pair, [frozenset()])])
            pair.precheck(cfg.check_budget)
            explain_module._score([(pair, [frozenset(res.delta)])])
            values, replayed = oracle.values, []
            monkeypatch.setattr(oracle, "values", lambda sets: replayed.append(len(sets)) or values(sets))
            assert explain("bf", p, oracle, a, b, pair=pair).to_dict() == res.to_dict()
            assert sum(replayed) == (res.subsets_tested - 1) * shift
            past += sum(calls) - shift > sum(replayed)  # alone, bf scored past its flip
            served += 1
        assert served >= 5 and past >= 2

    def test_timeout_before_the_first_chunk(self):
        for i, p, a, b, build in logistic_games(count=10):
            for engine in ("bf", "mc"):
                res = explain(engine, p, build(), a, b, spawn_rng(82, i), config=ExplainConfig(timeout=0.0))
                if res.initial_diff > 0.0:
                    assert res.status == STATUS_TIMEOUT and res.timed_out
                    assert res.subsets_tested == 0 and res.delta == ()


def _commented_value(comment: str):
    """The literal a README comment opens with: all of it, or up to one of its colons."""
    cuts = [len(comment)] + [i for i, ch in enumerate(comment) if ch == ":"]
    for cut in cuts:
        try:
            return ast.literal_eval(comment[:cut])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"no literal at the start of {comment!r}")


def test_readme_quick_start_values():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    pending: list[str] = []
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        assert eval(code.strip(), namespace) == _commented_value(comment.strip()), line
        checked += 1
    exec("\n".join(pending), namespace)
    assert checked == 3
