"""The additive oracle's exact integer sums against math.fsum over built unions, bit for bit.

AdditiveUtility scores a set as its weights' exact integer sum over one
power-of-two scale, divided in float where that gives the same bits and
by int true division elsewhere, and its gaps add a base's kept sum to each
side's; the reference (oracles.FsumAdditive) builds every union and sums
its weights with math.fsum on the generic gap path. This file needs only
pytest, numpy and the package, so it runs on the declared Python floor
too, where int-to-float conversion, int true division and fsum are those
of that interpreter.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from shapcf.core import MalformedInput, OwnerPartition, spawn_rng
from shapcf.shapley import coalition_plan, differentials, sampled_terms
from shapcf.utility import AdditiveUtility

from oracles import FsumAdditive


def random_weights(rng: np.random.Generator, pool: int) -> dict[int, float]:
    """pool weights drawn from a random mix of zeros, subnormals, huge and ordinary floats.

    Huge ones stay below 2^1000, so that pool of them sums to a finite float.
    """
    kinds = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
    weights = {}
    for e in range(pool):
        kind = int(rng.choice(kinds))
        if kind == 0:
            weights[e] = 0.0
        elif kind == 1:
            weights[e] = int(rng.integers(1, 2**52)) * 5e-324
        elif kind == 2:
            weights[e] = math.ldexp(rng.random(), int(rng.integers(850, 1001)))
        else:
            weights[e] = math.ldexp(rng.random(), int(rng.integers(-1074, 64)))
    return weights


def random_game(rng: np.random.Generator) -> tuple[OwnerPartition, dict[int, float]]:
    """2-7 owners over a pool of up to 24 entries; owners may overlap or be empty."""
    pool = int(rng.integers(1, 25))
    owners = {
        f"O{i}": frozenset(rng.choice(pool, size=int(rng.integers(0, pool + 1)), replace=False).tolist())
        for i in range(int(rng.integers(2, 8)))
    }
    return OwnerPartition(owners), random_weights(rng, pool)


def random_jobs(rng: np.random.Generator, partition: OwnerPartition):
    """Gap jobs on plan bases and on drawn prefixes, with shifted, empty and overlapping pairs."""
    ids = partition.owner_ids()
    a, b = (ids[i] for i in rng.choice(len(ids), size=2, replace=False))
    ents_a, ents_b = partition.entries(a), partition.entries(b)
    moved = frozenset(e for e in ents_a if rng.random() < 0.5)
    shifts = [(ents_a, ents_b), (ents_a - moved, ents_b | moved), (ents_b, ents_a)]
    others = [o for o in ids if o not in (a, b)]
    prefixes = [
        partition.composed(o for o in others if rng.random() < 0.5) for _ in range(int(rng.integers(0, 9)))
    ]
    universe = sorted(partition.universe())
    stray = frozenset(e for e in universe if rng.random() < 0.3)  # may overlap any base
    return [
        (coalition_plan(partition, a, b)[0], shifts),
        (coalition_plan(partition, a)[0], [(ents_a, frozenset())]),
        (prefixes, [(ents_a, ents_b), (stray, frozenset())]),
        (prefixes, []),
    ]


def hexes(xs) -> list[str]:
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("seed", range(8))
def test_gaps_and_values_have_the_bits_of_fsum_over_unions(seed):
    rng = np.random.default_rng([83, seed])
    for _ in range(40):
        partition, weights = random_game(rng)
        mine, ref = AdditiveUtility(weights), FsumAdditive(weights)
        jobs = random_jobs(rng, partition)
        want = hexes(ref.gaps(jobs))
        assert hexes(mine.gaps(jobs)) == want
        assert hexes(mine.gaps(jobs)) == want  # every base's sum kept
        mine.clear_cache()
        assert hexes(AdditiveUtility(weights, cache=False).gaps(jobs)) == want
        sets = [s for bases, pairs in jobs for x, y in pairs for base in bases for s in (base | x, base | y)]
        assert hexes(mine.values(sets)) == hexes(ref.values(sets))


@pytest.mark.parametrize("seed", range(4))
def test_differentials_and_drawn_terms_have_the_bits_of_fsum_over_unions(seed):
    rng = np.random.default_rng([84, seed])
    for g in range(20):
        partition, weights = random_game(rng)
        mine, ref = AdditiveUtility(weights), FsumAdditive(weights)
        ids = partition.owner_ids()
        a, b = ids[0], ids[-1]
        pair = (partition.entries(a), partition.entries(b))
        job = [(coalition_plan(partition, a, b), [pair])]
        assert hexes(differentials(mine, job)) == hexes(differentials(ref, job))
        got = sampled_terms(partition, mine, (a, b), pair, {}, 200, spawn_rng(84, seed, g))
        want = sampled_terms(partition, ref, (a, b), pair, {}, 200, spawn_rng(84, seed, g))
        assert hexes(got) == hexes(want)


def test_extreme_weights_round_like_fsum():
    tiny, big = 5e-324, 2.0**1000
    weights = {0: tiny, 1: big, 2: 1.0, 3: 2.0**-60, 4: 0.0, 5: 2.0**-1022, 6: 3 * tiny}
    mine, ref = AdditiveUtility(weights), FsumAdditive(weights)
    sets = [frozenset(s) for s in ([0], [0, 6], [1, 0], [2, 3], [2, 3, 0], [4], [5, 0], [0, 1, 2, 3, 4, 5, 6])]
    assert hexes(mine.values(sets)) == hexes(ref.values(sets))
    assert mine.value(frozenset({2, 3})) == 1.0  # the half ulp rounds to even


@pytest.mark.parametrize(
    "weights, scaled",
    [
        # 2^K = 2^1022 and a total of about 3.6 * 2^1022: both finite floats.
        ({0: 2.0**-1022, 1: 1.0, 2: 2.5, 3: 0.125, 4: 0.0}, True),
        # A subnormal weight of 2^-1023 still scales: no non-zero sum lies below it.
        ({0: 2.0**-1023, 1: 1.5, 2: 3 * 2.0**-1023}, True),
        # A subnormal weight of 2^-1074 puts 2^K past the largest float.
        ({0: 5e-324, 1: 1.0, 2: 7 * 5e-324}, False),
        # The integer total 2^1024 + 1 has no float, though the weights' sum does.
        ({0: 0.5, 1: 2.0**1023}, False),
        # 1 + the largest float rounds to that float: still scaled.
        ({0: 0.5, 1: 2.0**1023 * (1 - 2.0**-53)}, True),
    ],
)
def test_sums_scale_in_float_only_where_the_bits_hold(weights, scaled):
    mine, ref = AdditiveUtility(weights), FsumAdditive(weights)
    assert isinstance(mine._divisor, float) == scaled
    ids = sorted(weights)
    sets = [frozenset(c) for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]
    assert hexes(mine.values(sets)) == hexes(ref.values(sets))
    jobs = [(sets, [(frozenset(ids[:1]), frozenset(ids[1:2])), (frozenset(ids[-1:]), frozenset())])]
    assert hexes(mine.gaps(jobs)) == hexes(ref.gaps(jobs))


def test_weights_whose_total_overflows_are_rejected():
    with pytest.raises(MalformedInput, match="overflow"):
        AdditiveUtility({0: 1e308, 1: 1e308, 2: 1.0})
    top = AdditiveUtility({0: 1e308, 1: 7e307})  # 1.7e308 is a float
    assert top.value(frozenset({0, 1})) == 1e308 + 7e307


def test_clear_cache_empties_the_base_sums():
    oracle = AdditiveUtility({0: 1.0, 1: 2.0, 2: 4.0})
    bases = [frozenset(), frozenset({1})]
    assert oracle.gaps([(bases, [(frozenset({0}), frozenset({2}))])]) == [-3.0, -3.0]
    assert set(oracle._sums) == set(bases) and not oracle._cache
    assert (oracle.calls, oracle.evals) == (4, 4)  # every set a gap stands for is scored
    oracle.clear_cache()
    assert not oracle._sums
    assert AdditiveUtility({0: 1.0}, cache=False)._sums is None


def test_gaps_name_an_entry_without_a_weight():
    oracle = AdditiveUtility({0: 1.0, 1: 2.0})
    with pytest.raises(MalformedInput, match="no weight for entry 5"):
        oracle.gaps([([frozenset({0})], [(frozenset({1, 5}), frozenset())])])
