"""Entry power: exact and sampled values, plus the top-1 bandit race."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shapcf.core import (
    DeltaNotOwned,
    OwnerPartition,
    SameOwner,
    SingletonOwner,
    Transfer,
    apply_transfer,
    spawn_rng,
)
from shapcf.power import (
    make_power_sampler,
    power_exact,
    power_mc,
    thompson_top1,
)
from shapcf.shapley import Estimate, diff_shapley_exact, shapley_exact_all
from shapcf.utility import AdditiveUtility, SetCoverGame, SetCoverUtility

from conftest import random_games
from oracles import diff_sample_term, power_sample, sample_permutation, thompson_top1_reference


def part(**owners) -> OwnerPartition:
    return OwnerPartition({k: frozenset(v) for k, v in owners.items()})


def eligible_triples(partition: OwnerPartition):
    """(a, b, x) with x held by a, a holding at least two entries, b distinct."""
    for a in partition.owner_ids():
        ents_a = partition.entries(a)
        if len(ents_a) < 2:
            continue
        for b in partition.owner_ids():
            if b != a:
                yield a, b, min(ents_a)
                break


class TestPowerExact:
    def test_closed_form_on_disjoint_additive(self):
        # Disjoint owners: composed value is a plain sum, so moving x changes
        # the differential of B over A by exactly 2 * w(x).
        weights = {0: 5.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 0.5}
        oracle = AdditiveUtility(weights)
        p = part(A=[0, 1, 2], B=[3], C=[4])
        w_a = weights[0] + weights[1] + weights[2]
        w_b = weights[3]
        for x in (0, 1, 2):
            got = power_exact(p, oracle, "A", "B", x)
            assert got == pytest.approx(w_b - w_a + 2.0 * weights[x], rel=1e-12, abs=1e-12)

    def test_matches_shapley_difference_on_moved_partition(self):
        checked = 0
        for partition, oracle in random_games(seed=77, count=40):
            for a, b, x in eligible_triples(partition):
                moved = apply_transfer(partition, Transfer(a, b, frozenset({x})))
                values = shapley_exact_all(moved, oracle)
                expect = values[b] - values[a]
                got = power_exact(partition, oracle, a, b, x)
                assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
                checked += 1
        assert checked >= 25

    def test_common_entry_equals_plain_removal(self):
        # x sits in both camps: the transfer only strips it from A, so the
        # power equals the differential on the partition with x deleted from A.
        weights = {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
        oracle = AdditiveUtility(weights)
        p = part(A=[0, 1], B=[1, 3], C=[2])
        stripped = part(A=[0], B=[1, 3], C=[2])
        assert power_exact(p, oracle, "A", "B", 1) == diff_shapley_exact(
            stripped, oracle, "B", "A"
        )


class TestPowerSample:
    def test_term_matches_diff_term_on_moved_partition(self):
        # Same permutation order works before and after the transfer, so each
        # sampled term must agree bit for bit with the plain differential term.
        rng = spawn_rng(3, 1)
        checked = 0
        for partition, oracle in random_games(seed=15, count=25):
            for a, b, x in eligible_triples(partition):
                moved = apply_transfer(partition, Transfer(a, b, frozenset({x})))
                for _ in range(5):
                    perm = sample_permutation(partition, rng)
                    assert power_sample(partition, oracle, a, b, x, perm) == diff_sample_term(
                        moved, oracle, b, a, perm
                    )
                checked += 1
        assert checked >= 15

    def test_term_matches_diff_term_for_common_entry(self):
        weights = {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 2.5}
        oracle = AdditiveUtility(weights)
        p = part(A=[0, 1], B=[1, 3], C=[2], D=[4])
        moved = apply_transfer(p, Transfer("A", "B", frozenset({1})))
        rng = spawn_rng(3, 2)
        for _ in range(20):
            perm = sample_permutation(p, rng)
            assert power_sample(p, oracle, "A", "B", 1, perm) == diff_sample_term(
                moved, oracle, "B", "A", perm
            )

    @pytest.mark.parametrize("x", [5, 0])
    def test_mc_unbiased_overlapping_additive(self, x):
        # x=5 is held by both owners, x=0 only by A.
        weights = {i: float(w) for i, w in enumerate([2.0, 1.0, 3.0, 0.5, 1.5, 4.0])}
        oracle = AdditiveUtility(weights)
        p = part(A=[0, 1, 5], B=[2, 5], C=[3], D=[4])
        exact = power_exact(p, oracle, "A", "B", x)
        pooled = Estimate()
        for seed in range(20):
            pooled = pooled.merge(
                power_mc(p, oracle, "A", "B", x, spawn_rng(seed, 4), budget=300)
            )
        se = math.sqrt(pooled.variance / pooled.count)
        assert abs(pooled.mean - exact) <= 4.0 * se + 1e-12

    def test_mc_unbiased_set_cover(self):
        game = SetCoverGame(
            universe=frozenset({1, 2, 3, 4}),
            subsets=(
                frozenset({1, 2}),
                frozenset({3}),
                frozenset({2, 3, 4}),
                frozenset({1, 4}),
            ),
        )
        oracle = SetCoverUtility(game)
        p = part(A=[1, 2], B=[3], C=[4])
        exact = power_exact(p, oracle, "A", "B", 1)
        pooled = Estimate()
        for seed in range(20):
            pooled = pooled.merge(
                power_mc(p, oracle, "A", "B", 1, spawn_rng(seed, 5), budget=300)
            )
        se = math.sqrt(pooled.variance / pooled.count)
        assert abs(pooled.mean - exact) <= 4.0 * se + 1e-12


class TestPowerArgs:
    def setup_method(self):
        self.oracle = AdditiveUtility({0: 1.0, 1: 2.0, 2: 3.0})
        self.p = part(A=[0, 1], B=[2])

    def test_same_owner_rejected(self):
        with pytest.raises(SameOwner):
            power_exact(self.p, self.oracle, "A", "A", 0)

    def test_entry_not_held_rejected(self):
        with pytest.raises(DeltaNotOwned):
            power_exact(self.p, self.oracle, "A", "B", 2)

    def test_singleton_owner_rejected(self):
        with pytest.raises(SingletonOwner):
            power_exact(self.p, self.oracle, "B", "A", 2)

    def test_mc_checks_arguments_up_front(self):
        rng = spawn_rng(0)
        with pytest.raises(DeltaNotOwned):
            power_mc(self.p, self.oracle, "A", "B", 9, rng, budget=10)

    def test_sample_checks_arguments(self):
        perm = sample_permutation(self.p, spawn_rng(1))
        with pytest.raises(SingletonOwner):
            power_sample(self.p, self.oracle, "B", "A", 2, perm)

    def test_sampler_checks_arguments_on_every_call(self):
        with pytest.raises(SingletonOwner):
            make_power_sampler(self.p, self.oracle, "B", "A")(2, 1, spawn_rng(1))


class TestMakePowerSampler:
    def test_returns_requested_count(self):
        oracle = AdditiveUtility({0: 1.0, 1: 2.0, 2: 3.0})
        p = part(A=[0, 1], B=[2])
        sampler = make_power_sampler(p, oracle, "A", "B")
        out = sampler(0, 7, spawn_rng(2))
        assert len(out) == 7
        assert all(isinstance(v, float) and math.isfinite(v) for v in out)

    def test_sampler_mean_converges_to_exact(self):
        weights = {i: float(w) for i, w in enumerate([2.0, 1.0, 3.0, 0.5, 1.5])}
        oracle = AdditiveUtility(weights)
        p = part(A=[0, 1, 4], B=[2], C=[3])
        sampler = make_power_sampler(p, oracle, "A", "B")
        est = Estimate()
        est.update_many(sampler(0, 3000, spawn_rng(6, 1)))
        exact = power_exact(p, oracle, "A", "B", 0)
        se = math.sqrt(est.variance / est.count)
        assert abs(est.mean - exact) <= 4.0 * se + 1e-12


def constant_sampler(table):
    def sampler(entry, k, rng):
        return [float(table[entry])] * int(k)

    return sampler


def gaussian_sampler(table, sigma):
    def sampler(entry, k, rng):
        return list(rng.normal(float(table[entry]), sigma, int(k)))

    return sampler


class TestThompsonTop1:
    def test_zero_variance_picks_max_immediately(self):
        sampler = constant_sampler({1: 0.2, 5: 1.0, 9: -0.3})
        res = thompson_top1([9, 1, 5], sampler, spawn_rng(0))
        assert res.entry == 5
        assert res.converged and not res.budget_exhausted
        assert res.samples == 3 * 8
        assert [arm.entry for arm in res.arms] == [1, 5, 9]

    def test_gap_recovery_rate(self):
        # Means five sigma apart: the race should almost never crown a loser.
        table = {3: 0.0, 7: 1.0, 11: 0.5}
        wins = 0
        for seed in range(200):
            sampler = gaussian_sampler(table, 0.1)
            res = thompson_top1([3, 7, 11], sampler, spawn_rng(seed, 7), epsilon=0.05)
            wins += res.entry == 7
        assert wins >= 190

    def test_deterministic_per_seed(self):
        table = {0: 0.3, 1: 0.9, 2: 0.6}

        def run():
            return thompson_top1(
                [0, 1, 2], gaussian_sampler(table, 0.2), spawn_rng(42, 8), epsilon=0.05
            )

        first, second = run(), run()
        assert first.entry == second.entry
        assert first.samples == second.samples
        assert [a.estimate.count for a in first.arms] == [a.estimate.count for a in second.arms]
        assert [a.estimate.mean for a in first.arms] == [a.estimate.mean for a in second.arms]

    def test_arm_budget_exhaustion_flagged(self):
        sampler = gaussian_sampler({0: 0.0, 1: 0.05}, 1.0)
        res = thompson_top1(
            [0, 1],
            sampler,
            spawn_rng(9),
            epsilon=1e-12,
            arm_budget=16,
        )
        assert res.budget_exhausted and not res.converged
        assert all(arm.estimate.count <= 16 for arm in res.arms)
        assert res.samples <= 2 * 16

    def test_total_budget_cap(self):
        sampler = gaussian_sampler({0: 0.0, 1: 0.05, 2: -0.1}, 1.0)
        res = thompson_top1(
            [0, 1, 2],
            sampler,
            spawn_rng(10),
            epsilon=1e-12,
            total_budget=50,
        )
        assert res.budget_exhausted and not res.converged
        assert res.samples <= 50

    def test_single_arm(self):
        res = thompson_top1([4], gaussian_sampler({4: 0.7}, 0.1), spawn_rng(11), epsilon=0.05)
        assert res.entry == 4
        assert res.converged

    def test_matches_reference_race_bit_for_bit(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 16))
            table = {int(e): float(v) for e, v in zip(rng.permutation(40)[:k], rng.normal(size=k))}
            sigma = float(rng.uniform(0.01, 2.0))
            kw = dict(
                epsilon=float(rng.uniform(0.005, 0.1)),
                arm_budget=int(rng.integers(50, 2000)),
            )
            got_rng, want_rng = spawn_rng(seed, 3), spawn_rng(seed, 3)
            got = thompson_top1(list(table), gaussian_sampler(table, sigma), got_rng, **kw)
            want = thompson_top1_reference(list(table), gaussian_sampler(table, sigma), want_rng, **kw)
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            thompson_top1([], constant_sampler({}), spawn_rng(12))

    def test_race_recovers_exact_argmax_power(self):
        # Disjoint additive game: entry 0 carries the largest weight in A, so
        # it has the highest power against any rival owner.
        weights = {0: 5.0, 1: 1.0, 2: 2.5, 3: 1.0}
        oracle = AdditiveUtility(weights)
        p = part(A=[0, 1, 2], B=[3])
        powers = {x: power_exact(p, oracle, "A", "B", x) for x in (0, 1, 2)}
        assert max(powers, key=powers.get) == 0
        sampler = make_power_sampler(p, oracle, "A", "B")
        res = thompson_top1([0, 1, 2], sampler, spawn_rng(5, 9), epsilon=0.1)
        assert res.entry == 0
        assert res.converged
