"""Domain model: transfers, permutations, prefixes, RNG streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from shapcf.core import (
    DeltaNotOwned,
    MalformedInput,
    OwnerPartition,
    SameOwner,
    Transfer,
    UnknownOwner,
    apply_transfer,
    spawn_rng,
)

from oracles import PermutationSample, prefix_before_pair, sample_permutation


def part(**owners) -> OwnerPartition:
    return OwnerPartition({k: frozenset(v) for k, v in owners.items()})


@st.composite
def partitions(draw, max_owners: int = 5, max_entries: int = 12):
    n = draw(st.integers(2, max_owners))
    owners = {}
    for i in range(n):
        ents = draw(st.frozensets(st.integers(0, max_entries - 1), max_size=max_entries))
        owners[f"O{i}"] = ents
    return OwnerPartition(owners)


class TestPartition:
    def test_needs_two_owners(self):
        with pytest.raises(MalformedInput):
            OwnerPartition({"A": frozenset({1})})

    def test_composed_is_union(self):
        p = part(A={1, 2}, B={2, 3}, C=set())
        assert p.composed(["A", "B"]) == frozenset({1, 2, 3})
        assert p.composed([]) == frozenset()
        assert p.composed(["C"]) == frozenset()
        assert p.universe() == frozenset({1, 2, 3})

    def test_unknown_owner(self):
        p = part(A={1}, B={2})
        with pytest.raises(UnknownOwner):
            p.entries("Z")
        with pytest.raises(UnknownOwner):
            p.composed(["A", "Z"])

    def test_owner_ids_sorted(self):
        p = part(B={1}, A={2}, C={3})
        assert p.owner_ids() == ("A", "B", "C")

    def test_owner_ids_that_collide_as_strings_are_rejected(self):
        # "1" and 1 would both become owner "1", and one owner's entries would be lost.
        with pytest.raises(MalformedInput, match=r"owner ids \['1', 1\] are the same as strings"):
            OwnerPartition({"1": [1], 1: [2], "B": [3]})
        assert OwnerPartition({1: [1], "B": [3]}).owners == {"1": frozenset({1}), "B": frozenset({3})}

    def test_takes_only_its_owners(self):
        with pytest.raises(TypeError):
            OwnerPartition({"A": [1], "B": [2]}, {})

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1", None])
    def test_rejects_non_integer_entry_ids(self, bad):
        with pytest.raises(MalformedInput, match="owner 'A': entry ids must be integers"):
            OwnerPartition({"A": [bad, 2], "B": [3]})

    def test_accepts_numpy_integers(self):
        p = OwnerPartition({"A": np.array([1, 2], dtype=np.int64), "B": [np.uint8(3)]})
        assert p.entries("A") == frozenset({1, 2}) and p.entries("B") == frozenset({3})
        assert all(type(e) is int for e in p.universe())

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_rejects_flags_among_numpy_integers(self, flag):
        ids = [*np.arange(10, dtype=np.int64), flag, np.int64(11), 1, flag, 2.5, *[flag] * 8]
        with pytest.raises(MalformedInput) as err:
            OwnerPartition({"A": ids, "B": [3]})
        assert str(err.value) == f"owner 'A': entry ids must be integers, got {[flag, flag, 2.5, *[flag] * 5]!r}"


class TestTransfer:
    def test_moves_named_entries(self):
        p = part(A={1, 2, 3}, B={4})
        q = apply_transfer(p, Transfer("A", "B", frozenset({1, 2})))
        assert q.entries("A") == frozenset({3})
        assert q.entries("B") == frozenset({1, 2, 4})

    def test_source_may_empty(self):
        p = part(A={1, 2}, B={3})
        q = apply_transfer(p, Transfer("A", "B", frozenset({1, 2})))
        assert q.entries("A") == frozenset()
        assert q.entries("B") == frozenset({1, 2, 3})

    def test_original_untouched(self):
        p = part(A={1, 2}, B=set())
        apply_transfer(p, Transfer("A", "B", frozenset({1})))
        assert p.entries("A") == frozenset({1, 2})
        assert p.entries("B") == frozenset()

    def test_rejects_unowned_delta(self):
        p = part(A={1}, B={2})
        with pytest.raises(DeltaNotOwned):
            apply_transfer(p, Transfer("A", "B", frozenset({9})))

    def test_rejects_same_owner(self):
        with pytest.raises(SameOwner):
            Transfer("A", "A", frozenset({1}))

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
    def test_rejects_non_integer_entry_ids(self, bad):
        with pytest.raises(MalformedInput, match="entry ids must be integers"):
            Transfer("A", "B", {bad})

    def test_accepts_numpy_integers(self):
        t = Transfer("A", "B", {np.int32(2), 3})
        assert t.delta == frozenset({2, 3}) and all(type(e) is int for e in t.delta)

    def test_untouched_unions_carry_over(self):
        p = part(A={1, 2}, B={3}, C={4, 5}, D={5, 6})
        coalitions = [("C",), ("C", "D"), ("A",), ("A", "C"), ("B", "D"), ("A", "B", "C")]
        before = {c: p.composed(c) for c in coalitions}
        q = apply_transfer(p, Transfer("A", "B", frozenset({1})))
        for c in coalitions:
            if {"A", "B"}.isdisjoint(c):
                assert q.composed(c) == before[c]
            else:
                assert q.composed(c) == frozenset().union(*(q.entries(o) for o in c))
        assert q.composed(("A", "C")) == frozenset({2, 4, 5})
        assert q.composed(("B", "D")) == frozenset({1, 3, 5, 6})
        assert p.composed(("A", "C")) == frozenset({1, 2, 4, 5})

    @given(partitions(), st.data())
    def test_union_preserved(self, p, data):
        ids = p.owner_ids()
        src = data.draw(st.sampled_from(ids))
        dst = data.draw(st.sampled_from([o for o in ids if o != src]))
        delta = data.draw(st.frozensets(st.sampled_from(sorted(p.entries(src)) or [0]))) & p.entries(src)
        q = apply_transfer(p, Transfer(src, dst, delta))
        assert q.universe() == p.universe()
        for o in ids:
            if o not in (src, dst):
                assert q.entries(o) == p.entries(o)

    @given(partitions(), st.data())
    def test_roundtrip_restores_when_delta_misses_target(self, p, data):
        ids = p.owner_ids()
        src = data.draw(st.sampled_from(ids))
        dst = data.draw(st.sampled_from([o for o in ids if o != src]))
        candidates = sorted(p.entries(src) - p.entries(dst))
        delta = data.draw(st.frozensets(st.sampled_from(candidates))) if candidates else frozenset()
        q = apply_transfer(p, Transfer(src, dst, delta))
        back = apply_transfer(q, Transfer(dst, src, delta))
        assert back.owners == p.owners


class TestPrefix:
    def test_examples(self):
        perm = PermutationSample(("C", "A", "D", "B"))
        assert prefix_before_pair(perm, "A", "B") == frozenset({"C"})
        assert prefix_before_pair(perm, "C", "A") == frozenset()
        assert prefix_before_pair(perm, "D", "B") == frozenset({"C", "A"})

    def test_pair_first_and_last(self):
        # The prefix stops at the earlier member of the pair.
        perm = PermutationSample(("A", "X", "Y", "B"))
        assert prefix_before_pair(perm, "A", "B") == frozenset()
        perm = PermutationSample(("X", "B", "Y", "A"))
        assert prefix_before_pair(perm, "A", "B") == frozenset({"X"})

    def test_missing_owner(self):
        perm = PermutationSample(("A", "B"))
        with pytest.raises(UnknownOwner):
            prefix_before_pair(perm, "A", "Z")

    @given(st.permutations([f"O{i}" for i in range(6)]), st.data())
    def test_symmetry_and_bounds(self, order, data):
        perm = PermutationSample(tuple(order))
        a = data.draw(st.sampled_from(order))
        b = data.draw(st.sampled_from([o for o in order if o != a]))
        p1 = prefix_before_pair(perm, a, b)
        p2 = prefix_before_pair(perm, b, a)
        assert p1 == p2
        assert a not in p1 and b not in p1
        assert len(p1) <= len(order) - 2


class TestSamplePermutation:
    def test_two_owner_frequencies(self):
        p = part(A={1}, B={2})
        rng = spawn_rng(11)
        first = sum(sample_permutation(p, rng).order[0] == "A" for _ in range(10_000))
        assert abs(first / 10_000 - 0.5) < 0.02

    def test_five_owner_first_position_uniform(self):
        p = part(**{f"O{i}": {i} for i in range(5)})
        rng = spawn_rng(12)
        counts = {o: 0 for o in p.owner_ids()}
        draws = 100_000
        for _ in range(draws):
            counts[sample_permutation(p, rng).order[0]] += 1
        for c in counts.values():
            assert abs(c / draws - 0.2) < 0.01
        stat = chisquare(list(counts.values()))
        assert stat.pvalue > 1e-4

    def test_includes_empty_owners(self):
        p = part(A={1}, B=set(), C={2})
        perm = sample_permutation(p, spawn_rng(13))
        assert sorted(perm.order) == ["A", "B", "C"]

    def test_deterministic_stream(self):
        p = part(A={1}, B={2}, C={3})
        seq1 = [sample_permutation(p, spawn_rng(99, 1)).order for _ in range(1)]
        rng_a = spawn_rng(99, 1)
        rng_b = spawn_rng(99, 1)
        seq_a = [sample_permutation(p, rng_a).order for _ in range(20)]
        seq_b = [sample_permutation(p, rng_b).order for _ in range(20)]
        assert seq_a == seq_b
        rng_c = spawn_rng(99, 2)
        seq_c = [sample_permutation(p, rng_c).order for _ in range(20)]
        assert seq_a != seq_c
        del seq1


class TestSpawnRng:
    def test_same_path_same_stream(self):
        assert spawn_rng(5, 1, 2).integers(0, 1 << 30, 8).tolist() == \
            spawn_rng(5, 1, 2).integers(0, 1 << 30, 8).tolist()

    def test_different_paths_differ(self):
        a = spawn_rng(5, 1).integers(0, 1 << 30, 8).tolist()
        b = spawn_rng(5, 2).integers(0, 1 << 30, 8).tolist()
        c = spawn_rng(6, 1).integers(0, 1 << 30, 8).tolist()
        assert a != b and a != c


@settings(max_examples=40)
@given(partitions())
def test_permutation_is_full_reorder(p):
    perm = sample_permutation(p, spawn_rng(3))
    assert sorted(perm.order) == sorted(p.owner_ids())
