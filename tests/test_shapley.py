"""Valuation: Estimate accumulator, exact routes, MC estimators, flip checks."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from shapcf.core import OwnerPartition, SameOwner, TooManyOwners, UnknownOwner, spawn_rng
from shapcf.shapley import (
    EXACT_OWNER_LIMIT,
    Estimate,
    coalition_plan,
    diff_shapley_exact,
    diff_shapley_mc,
    is_flipped,
    shapley_exact,
    shapley_exact_all,
    shapley_mc,
    z_quantile,
)
from shapcf.utility import AdditiveUtility, SetCoverGame, SetCoverUtility

from conftest import random_games
from oracles import (
    coalition_weights,
    diff_shapley_exact_by_permutations,
    enumerated_diff_shapley_exact,
    enumerated_diff_weights,
    enumerated_shapley_exact,
    normal_ci_half_width,
    shapley_by_definition,
    shapley_exact_by_permutations,
)


def part(**owners) -> OwnerPartition:
    return OwnerPartition({k: frozenset(v) for k, v in owners.items()})


class TestEstimate:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(3.0, 2.0, 500)
        est = Estimate()
        est.update_many(xs)
        assert est.mean == pytest.approx(float(xs.mean()), rel=1e-12)
        assert est.variance == pytest.approx(float(xs.var()), rel=1e-10)

    def test_half_width_formula(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1, 4, 97).tolist()
        est = Estimate(delta=0.9)
        est.update_many(xs)
        assert est.half_width == pytest.approx(normal_ci_half_width(xs, 0.9), rel=1e-12)

    def test_infinite_below_two_samples(self):
        est = Estimate()
        assert est.half_width == math.inf
        est.update(1.0)
        assert est.half_width == math.inf
        est.update(2.0)
        assert math.isfinite(est.half_width)

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(0, 1, 300)
        whole = Estimate()
        whole.update_many(xs)
        a, b, c = Estimate(), Estimate(), Estimate()
        a.update_many(xs[:50])
        b.update_many(xs[50:180])
        c.update_many(xs[180:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        for merged in (left, right):
            assert merged.count == whole.count
            assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
            assert merged.m2 == pytest.approx(whole.m2, rel=1e-9)

    def test_merge_with_empty(self):
        a = Estimate()
        a.update_many([1.0, 2.0])
        merged = a.merge(Estimate())
        assert merged.count == 2 and merged.mean == 1.5

    def test_ci_brackets_mean(self):
        est = Estimate(delta=0.95)
        est.update_many([1.0, 2.0, 3.0])
        lo, hi = est.ci()
        assert lo < est.mean < hi

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_terms_rejected(self, bad):
        est = Estimate()
        est.update_many([1.0, 2.0])
        with pytest.raises(ValueError):
            est.update(bad)
        with pytest.raises(ValueError):
            est.update_many([3.0, bad, 4.0])
        with pytest.raises(ValueError):
            est.update_many(np.array([bad]))
        assert (est.mean, est.count, est.m2) == (1.5, 2, 0.5)

    def test_update_many_matches_update_bitwise(self):
        xs = np.random.default_rng(3).normal(1.0, 5.0, 257)
        one, many = Estimate(), Estimate()
        for x in xs:
            one.update(float(x))
        many.update_many(xs[:100])
        many.update_many(xs[100:].tolist())
        assert (many.mean, many.count, many.m2) == (one.mean, one.count, one.m2)

    def test_z_quantile(self):
        assert z_quantile(0.95) == pytest.approx(1.959963984540054, abs=1e-12)
        with pytest.raises(ValueError):
            z_quantile(1.5)


class TestExactShapley:
    def test_disjoint_additive_values_are_weights(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 3.0, 2: 1.0})
        assert shapley_exact(p, o, "A") == pytest.approx(3.0, abs=1e-12)
        assert shapley_exact(p, o, "B") == pytest.approx(1.0, abs=1e-12)

    def test_empty_owner_exactly_zero(self):
        p = part(A={1, 2}, B=set(), C={3})
        o = AdditiveUtility({1: 1.0, 2: 2.0, 3: 0.5})
        assert shapley_exact(p, o, "B") == 0.0

    def test_identical_owners_bitwise_equal(self):
        game = SetCoverGame(frozenset({1, 2, 3}), (frozenset({1, 2}), frozenset({3}), frozenset({1, 3})))
        p = part(A={1, 2}, B={1, 2}, C={3})
        o = SetCoverUtility(game)
        assert shapley_exact(p, o, "A") == shapley_exact(p, o, "B")

    def test_efficiency(self):
        for p, o in random_games(seed=10, count=20):
            values = shapley_exact_all(p, o)
            assert sum(values.values()) == pytest.approx(o.value(p.universe()), abs=1e-9)

    def test_matches_permutation_form(self):
        for p, o in random_games(seed=11, count=10, n_hi=5):
            for owner in p.owner_ids():
                subset_form = shapley_exact(p, o, owner)
                perm_form = shapley_exact_by_permutations(p, o, owner)
                assert subset_form == pytest.approx(perm_form, abs=1e-12)

    def test_matches_independent_definition(self):
        for p, o in random_games(seed=12, count=8, n_hi=4):
            mine = shapley_exact_all(p, o)
            ref = shapley_by_definition(p.owners, o.value)
            for owner, v in ref.items():
                assert mine[owner] == pytest.approx(v, abs=1e-10)

    def test_owner_limit(self):
        p = OwnerPartition({f"O{i}": frozenset({i}) for i in range(13)})
        o = AdditiveUtility({i: 1.0 for i in range(13)})
        with pytest.raises(TooManyOwners):
            shapley_exact(p, o, "O0")
        with pytest.raises(TooManyOwners):
            shapley_exact_by_permutations(p, o, "O0")


class TestExactDifferential:
    def test_equals_value_difference(self):
        for p, o in random_games(seed=13, count=15):
            ids = p.owner_ids()
            values = shapley_exact_all(p, o)
            a, b = ids[0], ids[-1]
            assert diff_shapley_exact(p, o, a, b) == pytest.approx(
                values[a] - values[b], abs=1e-12
            )

    def test_matches_permutation_form(self):
        for p, o in random_games(seed=14, count=8, n_hi=5):
            ids = p.owner_ids()
            a, b = ids[0], ids[1]
            assert diff_shapley_exact(p, o, a, b) == pytest.approx(
                diff_shapley_exact_by_permutations(p, o, a, b), abs=1e-12
            )

    def test_same_owner_is_zero(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 1.0, 2: 2.0})
        assert diff_shapley_exact(p, o, "A", "A") == 0.0

    def test_antisymmetric_bitwise(self):
        for p, o in random_games(seed=15, count=10):
            ids = p.owner_ids()
            a, b = ids[0], ids[-1]
            assert diff_shapley_exact(p, o, a, b) == -diff_shapley_exact(p, o, b, a)

    def test_disjoint_additive_closed_form(self):
        p = part(A={1, 2}, B={3})
        o = AdditiveUtility({1: 2.0, 2: 0.5, 3: 1.0})
        assert diff_shapley_exact(p, o, "A", "B") == pytest.approx(1.5, abs=1e-12)


class TestOnePlan:
    """coalition_plan serves values and differentials with the bits of their own loops."""

    def test_matches_the_enumerated_forms_bit_for_bit(self):
        for n in range(2, EXACT_OWNER_LIMIT + 1):
            # Two copies of one game: the package and the reference each count their own traffic.
            ((p, mine),) = random_games(seed=70 + n, count=1, n_lo=n, n_hi=n)
            ((_, ref),) = random_games(seed=70 + n, count=1, n_lo=n, n_hi=n)
            ids = p.owner_ids()
            for o in ids:
                assert shapley_exact(p, mine, o).hex() == enumerated_shapley_exact(p, ref, o).hex()
            for a, b in [(ids[0], ids[0]), *itertools.islice(itertools.permutations(ids, 2), 6)]:
                got = diff_shapley_exact(p, mine, a, b)
                assert got.hex() == enumerated_diff_shapley_exact(p, ref, a, b).hex()
            assert (mine.calls, mine.evals) == (ref.calls, ref.evals)

    def test_weights_match_the_enumerated_forms(self):
        for n in range(2, EXACT_OWNER_LIMIT + 1):
            p = OwnerPartition({f"O{i:02d}": frozenset({i}) for i in range(n)})
            per_size = coalition_weights(n)
            shapley_weights = [per_size[s] for s in range(n) for _ in range(math.comb(n - 1, s))]
            assert coalition_plan(p, "O00")[1] == shapley_weights
            assert coalition_plan(p, "O00", f"O{n - 1:02d}")[1] == enumerated_diff_weights(n)

    def test_limit_messages(self):
        n = EXACT_OWNER_LIMIT + 1
        p = OwnerPartition({f"O{i}": frozenset({i}) for i in range(n)})
        o = AdditiveUtility({i: 1.0 for i in range(n)})
        with pytest.raises(TooManyOwners, match=f"^exact Shapley over {n} owners exceeds the limit 12$"):
            shapley_exact(p, o, "O0")
        with pytest.raises(TooManyOwners, match=f"^exact differential over {n} owners exceeds the limit 12$"):
            diff_shapley_exact(p, o, "O0", "O1")
        # A differential of an owner with itself is 0.0, but is still checked.
        with pytest.raises(TooManyOwners, match="^exact differential over"):
            diff_shapley_exact(p, o, "O0", "O0")
        with pytest.raises(UnknownOwner):
            diff_shapley_exact(part(A={1}, B={2}), o, "Z", "Z")
        assert o.calls == 0


class TestMcDifferential:
    def test_unbiased_on_overlapping_game(self):
        p, o = random_games(seed=16, count=1, n_lo=5, n_hi=5)[0]
        ids = p.owner_ids()
        a, b = ids[0], ids[2]
        exact = diff_shapley_exact(p, o, a, b)
        merged = Estimate()
        for run in range(20):
            est = diff_shapley_mc(p, o, a, b, spawn_rng(100, run), budget=500)
            merged = merged.merge(est)
        se = math.sqrt(merged.variance / merged.count)
        assert abs(merged.mean - exact) <= 4.0 * se + 1e-12

    def test_same_owner_zero_without_oracle(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 1.0, 2: 2.0})
        est = diff_shapley_mc(p, o, "A", "A", spawn_rng(1), budget=50)
        assert est.mean == 0.0 and est.count == 50
        assert o.calls == 0

    def test_ci_coverage_loose(self):
        game = SetCoverGame(frozenset({1, 2, 3}), (frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})))
        p = part(A={1, 3}, B={2}, C={3}, D=set())
        o = SetCoverUtility(game)
        exact = diff_shapley_exact(p, o, "A", "B")
        covered = 0
        for run in range(30):
            est = diff_shapley_mc(p, o, "A", "B", spawn_rng(200, run), budget=800)
            lo, hi = est.ci()
            covered += lo <= exact <= hi
        assert covered >= 24

    def test_half_width_shrinks_as_root_count(self):
        p, o = random_games(seed=18, count=1, n_lo=4, n_hi=4)[0]
        ids = p.owner_ids()
        small = diff_shapley_mc(p, o, ids[0], ids[1], spawn_rng(3, 1), budget=1000)
        big = diff_shapley_mc(p, o, ids[0], ids[1], spawn_rng(3, 2), budget=4000)
        assert small.half_width > 0.0
        ratio = big.half_width / small.half_width
        assert 0.4 <= ratio <= 0.6


class TestMcShapley:
    def test_unbiased_per_owner(self):
        game = SetCoverGame(frozenset({1, 2}), (frozenset({1}), frozenset({2}), frozenset({1, 2})))
        p = part(A={1, 2}, B={3}, C={2})
        o = SetCoverUtility(game)
        exact = shapley_exact_all(p, o)
        ests = shapley_mc(p, o, spawn_rng(4), budget=4000)
        for owner, est in ests.items():
            se = math.sqrt(est.variance / est.count)
            assert abs(est.mean - exact[owner]) <= 4.0 * se + 1e-12
            assert est.count == 4000

    def test_empty_owner_estimates_zero(self):
        p = part(A={1}, B=set())
        o = AdditiveUtility({1: 1.0})
        ests = shapley_mc(p, o, spawn_rng(5), budget=200)
        assert ests["B"].mean == 0.0 and ests["B"].half_width == 0.0


class TestIsFlipped:
    def test_decisive_negative(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 1.0, 2: 3.0})
        res = is_flipped(p, o, "A", "B", spawn_rng(6))
        assert res.verdict == "flipped"
        assert not res.budget_exhausted
        assert res.estimate.mean < 0

    def test_decisive_positive(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 3.0, 2: 1.0})
        res = is_flipped(p, o, "A", "B", spawn_rng(7))
        assert res.verdict == "not_flipped"

    def test_tie_exhausts_budget(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 2.0, 2: 2.0})
        res = is_flipped(p, o, "A", "B", spawn_rng(8), budget=500)
        assert res.verdict == "undecided"
        assert res.budget_exhausted
        assert res.estimate.mean == 0.0
        assert res.estimate.half_width == 0.0
        assert res.estimate.count == 500

    def test_same_owner_rejected(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 1.0, 2: 2.0})
        with pytest.raises(SameOwner):
            is_flipped(p, o, "A", "A", spawn_rng(9))

    def test_width_stop_converges_early(self):
        # Symmetric game: the differential is exactly zero but single terms
        # vary, so only the width rule can end the check before the budget.
        p = part(A={1}, B={2}, C={1}, D={2})
        o = AdditiveUtility({1: 1.0, 2: 1.0})
        res = is_flipped(p, o, "A", "B", spawn_rng(10, 0), budget=100_000, width_stop=5.0)
        assert res.verdict == "undecided"
        assert not res.budget_exhausted
        assert res.estimate.count < 100_000

    def test_swapped_mirrors_evidence(self):
        p = part(A={1}, B={2})
        o = AdditiveUtility({1: 1.0, 2: 3.0})
        res = is_flipped(p, o, "A", "B", spawn_rng(11))
        sw = res.swapped()
        assert sw.verdict == "not_flipped"
        assert sw.estimate.mean == -res.estimate.mean
        assert sw.estimate.count == res.estimate.count
