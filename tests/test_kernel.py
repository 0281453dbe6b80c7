"""The batched permutation kernel against the per-draw reference path.

Every sampler in the package draws its orderings in batches and computes one
term per distinct prefix. The reference loops below draw one ordering at a
time (tests/oracles.py) and update the estimate term by term, as the package
did before the kernel. With the same seed both sides must agree bit for bit:
every estimate field, every verdict, and the generator state afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from shapcf.core import DRAW_CHUNK, OwnerPartition, draw_orders, spawn_rng
from shapcf.power import make_power_sampler, power_mc, thompson_top1
from shapcf.shapley import FLIP_BATCH, Estimate, FlipResult, diff_shapley_mc, is_flipped, shapley_mc
from shapcf.utility import AdditiveUtility

from conftest import random_games
from oracles import diff_sample_term, power_sample, sample_permutation


def ref_diff_mc(partition, oracle, a, b, rng, budget):
    est = Estimate()
    for _ in range(budget):
        est.update(diff_sample_term(partition, oracle, a, b, sample_permutation(partition, rng)))
    return est


def ref_is_flipped(partition, oracle, a, b, rng, budget, batch, width_stop=None):
    est = Estimate()
    while est.count < budget:
        for _ in range(min(batch, budget - est.count)):
            perm = sample_permutation(partition, rng)
            est.update(diff_sample_term(partition, oracle, a, b, perm))
        lo, hi = est.ci()
        if hi < 0.0:
            return FlipResult("flipped", est)
        if lo > 0.0:
            return FlipResult("not_flipped", est)
        if width_stop is not None and est.half_width <= width_stop:
            return FlipResult("undecided", est)
    return FlipResult("undecided", est, budget_exhausted=True)


def ref_power_terms(partition, oracle, a, b, x, rng, k):
    return [
        power_sample(partition, oracle, a, b, x, sample_permutation(partition, rng))
        for _ in range(k)
    ]


def ref_power_mc(partition, oracle, a, b, x, rng, budget):
    est = Estimate()
    for term in ref_power_terms(partition, oracle, a, b, x, rng, budget):
        est.update(term)
    return est


def ref_shapley_mc(partition, oracle, rng, budget):
    ests = {o: Estimate() for o in partition.owner_ids()}
    for _ in range(budget):
        perm = sample_permutation(partition, rng)
        composed: frozenset[int] = frozenset()
        prev = oracle.value(composed)
        for owner in perm.order:
            composed = composed | partition.entries(owner)
            cur = oracle.value(composed)
            ests[owner].update(cur - prev)
            prev = cur
    return ests


def fields(est: Estimate) -> tuple[float, int, float]:
    return est.mean, est.count, est.m2


def assert_same_stream(rng_kernel, rng_ref):
    assert rng_kernel.bit_generator.state == rng_ref.bit_generator.state
    assert rng_kernel.random() == rng_ref.random()


def pairs(partition):
    ids = partition.owner_ids()
    return [(ids[0], ids[-1]), (ids[-1], ids[0])]


def power_triples(partition):
    """(a, b, x) for every owner a with two or more entries, x each of its entries."""
    ids = partition.owner_ids()
    for a in ids:
        ents = sorted(partition.entries(a))
        if len(ents) < 2:
            continue
        b = next(o for o in ids if o != a)
        for x in ents:
            yield a, b, x


def special_games():
    """Empty owners, an entry held by both owners, and one 70-owner partition."""
    weights = {i: 0.5 + (i * 37 % 11) / 3.0 for i in range(80)}
    oracle = AdditiveUtility(weights)
    games = [
        (OwnerPartition({"A": {0, 1, 2}, "B": set(), "C": {3}, "D": set()}), oracle),
        (OwnerPartition({"A": {0, 1, 5}, "B": {2, 5}, "C": {3}, "D": {4}, "E": set()}), oracle),
        (OwnerPartition({"A": {1, 2}, "B": {1, 2}, "C": {2, 3}}), oracle),
    ]
    many = {f"O{i:02d}": {i} for i in range(70)}
    many["O00"] = {0, 70, 71}
    many["O01"] = {1, 71}
    games.append((OwnerPartition(many), oracle))
    return games


def all_games():
    return random_games(seed=2024, count=12, n_lo=2, n_hi=7) + special_games()


def test_draw_orders_match_successive_permutations():
    for n in range(2, 21):
        rng_kernel, rng_ref = spawn_rng(5, n), spawn_rng(5, n)
        orders = draw_orders(n, 23, rng_kernel)
        expected = np.array([rng_ref.permutation(n) for _ in range(23)])
        assert (orders == expected).all()
        assert_same_stream(rng_kernel, rng_ref)


@pytest.mark.parametrize("budget", [1, 130])
def test_diff_shapley_mc_matches_reference(budget):
    for gi, (partition, oracle) in enumerate(all_games()):
        for a, b in pairs(partition):
            rng_kernel, rng_ref = spawn_rng(7, gi), spawn_rng(7, gi)
            got = diff_shapley_mc(partition, oracle, a, b, rng_kernel, budget=budget)
            want = ref_diff_mc(partition, oracle, a, b, rng_ref, budget)
            assert fields(got) == fields(want)
            assert_same_stream(rng_kernel, rng_ref)


@pytest.mark.parametrize("width_stop", [None, 0.05])
def test_is_flipped_matches_reference(width_stop):
    for gi, (partition, oracle) in enumerate(all_games()):
        for a, b in pairs(partition):
            rng_kernel, rng_ref = spawn_rng(8, gi), spawn_rng(8, gi)
            got = is_flipped(partition, oracle, a, b, rng_kernel, budget=300, width_stop=width_stop)
            want = ref_is_flipped(partition, oracle, a, b, rng_ref, 300, FLIP_BATCH, width_stop)
            assert (got.verdict, got.budget_exhausted) == (want.verdict, want.budget_exhausted)
            assert fields(got.estimate) == fields(want.estimate)
            assert_same_stream(rng_kernel, rng_ref)


def test_power_mc_matches_reference():
    checked = 0
    for gi, (partition, oracle) in enumerate(all_games()):
        for a, b, x in list(power_triples(partition))[:4]:
            rng_kernel, rng_ref = spawn_rng(9, gi, x), spawn_rng(9, gi, x)
            got = power_mc(partition, oracle, a, b, x, rng_kernel, budget=90)
            want = ref_power_mc(partition, oracle, a, b, x, rng_ref, 90)
            assert fields(got) == fields(want)
            assert_same_stream(rng_kernel, rng_ref)
            checked += 1
    assert checked >= 20


def test_power_sampler_matches_reference_across_calls():
    # One sampler serves a whole race: its per-entry memo must not change the
    # terms of later calls, whatever the entry order and request sizes.
    for gi, (partition, oracle) in enumerate(all_games()):
        triples = list(power_triples(partition))
        if not triples:
            continue
        a, b, _ = triples[0]
        entries = [x for ta, _, x in triples if ta == a]
        sampler = make_power_sampler(partition, oracle, a, b)
        rng_kernel, rng_ref = spawn_rng(10, gi), spawn_rng(10, gi)
        for call, k in enumerate([8, 1, 32, 0, 17, 32]):
            x = entries[call % len(entries)]
            got = Estimate()
            got.update_many(sampler(x, k, rng_kernel))
            want = Estimate()
            for term in ref_power_terms(partition, oracle, a, b, x, rng_ref, k):
                want.update(term)
            assert fields(got) == fields(want)
        assert_same_stream(rng_kernel, rng_ref)


def test_thompson_race_matches_reference_sampler():
    for gi, (partition, oracle) in enumerate(special_games()[:3]):
        a, b, _ = next(power_triples(partition))
        entries = sorted(partition.entries(a))

        def ref_sampler(x, k, rng):
            return ref_power_terms(partition, oracle, a, b, x, rng, k)

        rng_kernel, rng_ref = spawn_rng(11, gi), spawn_rng(11, gi)
        kwargs = dict(epsilon=0.01, arm_budget=400, total_budget=1500)
        got = thompson_top1(entries, make_power_sampler(partition, oracle, a, b), rng_kernel, **kwargs)
        want = thompson_top1(entries, ref_sampler, rng_ref, **kwargs)
        assert (got.entry, got.samples, got.converged, got.budget_exhausted) == (
            want.entry, want.samples, want.converged, want.budget_exhausted
        )
        assert [fields(s.estimate) for s in got.arms] == [fields(s.estimate) for s in want.arms]
        assert_same_stream(rng_kernel, rng_ref)


def test_shapley_mc_matches_reference():
    for gi, (partition, oracle) in enumerate(all_games()):
        budget = 40 if partition.n > 10 else 150
        rng_kernel, rng_ref = spawn_rng(12, gi), spawn_rng(12, gi)
        got = shapley_mc(partition, oracle, rng_kernel, budget=budget)
        want = ref_shapley_mc(partition, oracle, rng_ref, budget)
        assert got.keys() == want.keys()
        for owner in got:
            assert fields(got[owner]) == fields(want[owner]), owner
        assert_same_stream(rng_kernel, rng_ref)


def test_budgets_across_chunk_boundaries_match_reference():
    # Memos outlive a chunk of DRAW_CHUNK rows; draws continue the same stream.
    partition, oracle = special_games()[0]
    budget = DRAW_CHUNK + 37
    rng_kernel, rng_ref = spawn_rng(17), spawn_rng(17)
    got = diff_shapley_mc(partition, oracle, "A", "C", rng_kernel, budget=budget)
    assert fields(got) == fields(ref_diff_mc(partition, oracle, "A", "C", rng_ref, budget))
    got = shapley_mc(partition, oracle, rng_kernel, budget=budget)
    want = ref_shapley_mc(partition, oracle, rng_ref, budget)
    assert {o: fields(e) for o, e in got.items()} == {o: fields(e) for o, e in want.items()}
    assert_same_stream(rng_kernel, rng_ref)


def test_zero_budget_draws_nothing():
    partition, oracle = special_games()[1]
    rng = spawn_rng(13)
    before = rng.bit_generator.state
    assert diff_shapley_mc(partition, oracle, "A", "B", rng, budget=0).count == 0
    assert power_mc(partition, oracle, "A", "B", 5, rng, budget=0).count == 0
    assert all(e.count == 0 for e in shapley_mc(partition, oracle, rng, budget=0).values())
    assert len(make_power_sampler(partition, oracle, "A", "B")(0, 0, rng)) == 0
    res = is_flipped(partition, oracle, "A", "B", rng, budget=0)
    assert res.estimate.count == 0 and res.budget_exhausted
    assert rng.bit_generator.state == before


def test_same_owner_differential_leaves_rng_alone():
    partition, oracle = special_games()[0]
    rng = spawn_rng(14)
    before = rng.bit_generator.state
    est = diff_shapley_mc(partition, oracle, "A", "A", rng, budget=500)
    assert est.count == 500 and est.mean == 0.0
    assert rng.bit_generator.state == before


def test_each_distinct_prefix_is_scored_once_per_call():
    # Four owners leave 2^(4-2) = 4 possible prefixes before a pair, each
    # needing two oracle calls, however many orderings are drawn. C and D are
    # worth the same, so the flip check runs to its budget.
    partition = OwnerPartition({"A": {0, 1}, "B": {2}, "C": {3}, "D": {4}})
    oracle = AdditiveUtility({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 4.0})
    res = is_flipped(partition, oracle, "C", "D", spawn_rng(15), budget=2000)
    assert res.estimate.count == 2000 and res.budget_exhausted
    assert oracle.calls <= 2 * 4
    calls = oracle.calls
    est = diff_shapley_mc(partition, oracle, "A", "B", spawn_rng(16), budget=2000)
    assert est.count == 2000
    assert oracle.calls - calls <= 2 * 4
    # shapley_mc scores each of the 2^4 - 1 non-empty coalitions at most once.
    calls = oracle.calls
    ests = shapley_mc(partition, oracle, spawn_rng(18), budget=2000)
    assert all(e.count == 2000 for e in ests.values())
    assert oracle.calls - calls <= 2**4 - 1
