"""Utility oracles: closed-form families, data-backed families, factory, audit."""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shapcf import utility
from shapcf.core import MalformedInput, NonFiniteScore, spawn_rng
from shapcf.datasets import Dataset
from shapcf.utility import (
    AdditiveUtility,
    KdeUtility,
    LinRegUtility,
    LogRegUtility,
    SetCoverGame,
    SetCoverUtility,
    UtilityOracle,
    _kde_log_density,
    check_config,
    make_oracle,
)

from conftest import make_blobs
from oracles import (
    audit_monotonicity,
    kde_log_density_logsumexp,
    kde_log_density_reference,
    logreg_score_reference,
    setcover_value,
)


def line_dataset(n: int = 12) -> Dataset:
    x = np.linspace(-3.0, 3.0, n).reshape(-1, 1)
    return Dataset(features=x, feature_names=("x",), labels=2.0 * x[:, 0] + 1.0, label_name="y")


@pytest.fixture(scope="module")
def cover_example() -> SetCoverUtility:
    # Universe of three items; S1 and S2 cover it jointly, S3 alone.
    game = SetCoverGame(
        universe=frozenset({1, 2, 3}),
        subsets=(frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})),
    )
    return SetCoverUtility(game)


class TestAdditive:
    def test_weighted_sum(self):
        o = AdditiveUtility({1: 3.0, 2: 1.5})
        assert o.value({1, 2}) == 4.5
        assert o.value({2}) == 1.5

    def test_empty_is_zero(self):
        assert AdditiveUtility({1: 3.0}).value(frozenset()) == 0.0

    def test_rejects_negative_weight(self):
        with pytest.raises(MalformedInput):
            AdditiveUtility({1: -0.5})

    def test_unknown_entry(self):
        with pytest.raises(MalformedInput, match="no weight for entry 2"):
            AdditiveUtility({1: 1.0}).value({2})
        with pytest.raises(MalformedInput, match="no weight for entry 3"):
            AdditiveUtility({1: 1.0}).values([{1}, {1, 3}])

    def test_batch_has_the_bits_of_a_sum_in_any_order(self):
        rng = np.random.default_rng(5)
        weights = {i: float(w) for i, w in enumerate(rng.uniform(0.0, 1e3, 40) ** rng.uniform(-3, 3, 40))}
        sets = [frozenset(int(e) for e in rng.choice(40, size=int(k), replace=False)) for k in rng.integers(0, 40, 50)]
        oracle = AdditiveUtility(weights, cache=False)
        for ids, got in zip(sets, oracle.values(sets)):
            order = sorted(ids, key=lambda e: rng.random())
            assert got == math.fsum(weights[e] for e in order) == math.fsum(weights[e] for e in sorted(ids))

    @given(st.dictionaries(st.integers(0, 10), st.floats(0.0, 10.0), min_size=2), st.data())
    def test_exactly_monotone(self, weights, data):
        o = AdditiveUtility(weights)
        ids = sorted(weights)
        big = frozenset(data.draw(st.frozensets(st.sampled_from(ids), min_size=1)))
        small = frozenset(data.draw(st.frozensets(st.sampled_from(sorted(big)))))
        assert o.value(small) <= o.value(big)


class FixedScore(UtilityOracle):
    kind = "fixed"

    def __init__(self, score: float):
        super().__init__()
        self.score = score

    def _score(self, ids: frozenset[int]) -> float:
        return self.score


class TestNonFiniteScores:
    @pytest.mark.parametrize("score", [math.nan, math.inf])
    def test_rejected_on_evaluation(self, score):
        oracle = FixedScore(score)
        with pytest.raises(NonFiniteScore):
            oracle.value(frozenset({1}))
        with pytest.raises(NonFiniteScore):
            oracle.value(frozenset({1}))
        assert oracle.value(frozenset()) == 0.0

    def test_negative_scores_still_clamped(self):
        assert FixedScore(-math.inf).value(frozenset({1})) == 0.0
        assert FixedScore(-2.5).value(frozenset({1})) == 0.0
        assert FixedScore(2.5).value(frozenset({1})) == 2.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejected_inside_a_batch(self, bad):
        class BadAtThree(UtilityOracle):
            def _score(self, ids: frozenset[int]) -> float:
                return bad if 3 in ids else float(len(ids))

        oracle = BadAtThree()
        with pytest.raises(NonFiniteScore):
            oracle.values([{1}, {2, 3}, {2}])
        assert oracle.values([{1}, {2}, set()]) == [1.0, 1.0, 0.0]


class TestBatchedValues:
    def test_counts_and_values_as_the_per_set_loop(self):
        weights = {1: 1.0, 2: 2.0, 3: 4.0, 4: 8.0}
        sets = [{1}, {2, 3}, set(), {1}, frozenset({3, 2}), [4, 4], {1, 2, 3, 4}]
        for cache in (True, False):
            loop = AdditiveUtility(weights, cache=cache)
            batch = AdditiveUtility(weights, cache=cache)
            for _ in range(2):
                assert batch.values(sets) == [loop.value(s) for s in sets]
                assert (batch.calls, batch.evals) == (loop.calls, loop.evals)
        assert batch.values([]) == []

    @pytest.mark.parametrize("bad", [[1.5], [0.9], ["1"], [True], [0, 1.0]])
    def test_non_integer_ids_rejected(self, bad):
        o = AdditiveUtility({0: 1.0, 1: 2.0})
        with pytest.raises(MalformedInput, match="additive utility: entry ids must be integers"):
            o.value(bad)
        with pytest.raises(MalformedInput, match="entry ids must be integers"):
            o.values([{0}, bad])
        assert o.value([np.int64(1)]) == 2.0
        assert o.value(range(2)) == o.value(frozenset({0, 1})) == 3.0

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_a_wrong_count_of_scores_raises_and_memoises_none(self, extra):
        class OffByOne(UtilityOracle):
            def _score_many(self, ids_list):
                return [1.0] * (len(ids_list) + extra)

        oracle = OffByOne()
        with pytest.raises(ValueError, match=f"base utility scored 3 sets with {3 + extra} scores"):
            oracle.values([{1}, {2}, {3}])
        assert oracle._cache == {}


class TestSetCover:
    def test_single_covering_subset(self, cover_example):
        # 3 - 1 + 2^3/2^4
        assert cover_example.value({3}) == 2.5

    def test_two_subset_cover(self, cover_example):
        # 3 - 2 + (2^1 + 2^2)/2^4
        assert cover_example.value({1, 2}) == 1.375

    def test_non_cover_is_zero(self, cover_example):
        assert cover_example.value({1}) == 0.0
        assert cover_example.value(frozenset()) == 0.0

    def test_full_collection_in_unit_interval(self, cover_example):
        v = cover_example.value({1, 2, 3})
        assert v == 0.875
        assert 0.0 < v < 1.0

    def test_encoding_separates_collections(self, cover_example):
        vals = [cover_example.value(s) for s in ({3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]
        assert len(set(vals)) == len(vals)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            r = int(rng.integers(1, m + 1))
            universe = frozenset(range(1, m + 1))
            subsets = tuple(
                frozenset(int(v) + 1 for v in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
                for _ in range(r)
            )
            if frozenset().union(*subsets) != universe:
                continue
            o = SetCoverUtility(SetCoverGame(universe=universe, subsets=subsets))
            for _ in range(10):
                k = int(rng.integers(0, r + 1))
                picked = frozenset(int(v) + 1 for v in rng.choice(r, size=k, replace=False))
                assert o.value(picked) == setcover_value(universe, subsets, picked)

    def test_redundant_subset_decreases_value(self, cover_example):
        # The closed form is deliberately not monotone above coverage; the
        # audit must surface that.
        assert cover_example.value({3}) > cover_example.value({1, 3})
        violations = audit_monotonicity(
            cover_example, [1, 2, 3], n_pairs=200, rng=spawn_rng(77), tol=1e-9
        )
        assert violations
        assert all(gap > 0 for *_, gap in violations)

    def test_bad_subset_index(self, cover_example):
        with pytest.raises(MalformedInput):
            cover_example.value({9})


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(42)
    train = np.vstack([rng.normal(0, 1, size=(18, 2)), np.full((2, 2), 50.0)])
    test = rng.normal(0, 1, size=(8, 2))
    names = ("f0", "f1")
    return (
        Dataset(features=train, feature_names=names),
        Dataset(features=test, feature_names=names),
    )


class TestKde:
    def test_empty_is_zero(self, pool):
        train, test = pool
        assert KdeUtility(train, test).value(frozenset()) == 0.0

    def test_full_pool_scores_eta_exactly(self, pool):
        train, test = pool
        o = KdeUtility(train, test)
        assert o.value(range(len(train))) == o.eta

    def test_representative_beats_outliers(self, pool):
        train, test = pool
        o = KdeUtility(train, test)
        assert o.value(range(10)) > o.value({18, 19})

    def test_default_eta(self, pool):
        train, test = pool
        o = KdeUtility(train, test)
        assert o.eta == len(test) * o.error_cap

    def test_values_bounded(self, pool):
        train, test = pool
        o = KdeUtility(train, test)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = rng.choice(len(train), size=int(rng.integers(1, len(train))), replace=False)
            assert 0.0 <= o.value(ids) <= o.eta + 1e-9

    def test_monotone_within_tolerance(self, pool, caplog):
        train, test = pool
        o = KdeUtility(train, test)
        with caplog.at_level(logging.WARNING, logger="oracles"):
            strict = audit_monotonicity(o, range(len(train)), n_pairs=100, rng=spawn_rng(1234), tol=0.0)
            loose = audit_monotonicity(
                o, range(len(train)), n_pairs=100, rng=spawn_rng(1234), tol=0.05 * o.eta
            )
        # Approximately monotone: small violations exist and are logged, but
        # none exceeds 5% of the utility scale.
        assert strict
        assert caplog.records
        assert loose == []

    def test_nll_mode_differs(self, pool):
        train, test = pool
        a = KdeUtility(train, test, reference="pool")
        b = KdeUtility(train, test, reference="nll")
        ids = frozenset(range(5))
        assert a.value(ids) != b.value(ids)

    def test_deterministic_across_instances(self, pool):
        train, test = pool
        a = KdeUtility(train, test)
        b = KdeUtility(train, test, cache=False)
        rng = np.random.default_rng(9)
        for _ in range(10):
            ids = frozenset(int(v) for v in rng.choice(len(train), size=6, replace=False))
            assert a.value(ids) == b.value(ids)

    def test_bad_reference(self, pool):
        train, test = pool
        with pytest.raises(MalformedInput):
            KdeUtility(train, test, reference="nothing")

    @pytest.mark.parametrize(
        "params",
        [
            {"eta": "x"},
            {"eta": True},
            {"eta": math.inf},
            {"bandwidth_floor": [1]},
            {"bandwidth_floor": -1e-3},
            {"bandwidth_floor": math.nan},
            {"error_cap": "abc"},
            {"error_cap": -1.0},
            {"error_cap": 0.0},
            {"error_cap": math.inf},
        ],
    )
    def test_bad_parameters_rejected(self, pool, params):
        train, test = pool
        with pytest.raises(MalformedInput):
            KdeUtility(train, test, **params)
        with pytest.raises(MalformedInput):
            make_oracle({"kind": "kde", **params}, train, test)


def with_warnings(fn, *args):
    """fn(*args) and every warning it raised, as (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


def kde_case(d: int, seed: int, order: str = "C") -> tuple[np.ndarray, np.ndarray]:
    """Train rows with a constant column and two duplicated rows; the last two
    test rows are those duplicates, so each has two nearest train points at
    distance 0.

    order "F" gives the arrays the layout of a column subset of a C-ordered
    table (what the features axis passes), "C" that of a row subset.
    """
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(40, d)) * rng.uniform(0.01, 100.0, size=d)
    train[:, d // 2] = 1.5
    train = np.vstack([train, train[:2]])
    test = np.vstack([rng.normal(size=(12, d)) * 3.0, train[:2]])
    if order == "F":
        train, test = (np.hstack([x, x[:, :1]])[:, np.arange(d)] for x in (train, test))
    return train, test


def check_close_to_logsumexp(got: np.ndarray, train: np.ndarray, test: np.ndarray) -> None:
    """got is within 1e-12 * max(1, |x|) of the finite log densities x of the scipy logsumexp form (floor 1e-3)."""
    want = kde_log_density_logsumexp(train, test, 1e-3)
    assert np.isfinite(want).all()
    assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


def kde_one(train: np.ndarray, test: np.ndarray, floor: float) -> np.ndarray:
    """_kde_log_density of a single set: a stack of one."""
    return _kde_log_density(train[None], test[None], floor, utility._workspace(), None)[0]


class TestKdeKernelBits:
    """_kde_log_density is the one-set per-feature form of tests/oracles.py, bit for bit."""

    DIMS = [*range(1, 41), 127, 128, 129, 130, 200, 300]

    @pytest.mark.parametrize("d", DIMS)
    def test_matches_reference(self, d):
        for order in ("C", "F"):
            train, test = kde_case(d, d, order)
            # A zero floor leaves the constant column a zero bandwidth (NaN/inf).
            for floor in (1e-3, 0.0):
                got, got_warnings = with_warnings(kde_one, train, test, floor)
                want, want_warnings = with_warnings(kde_log_density_reference, train, test, floor)
                assert got.tobytes() == want.tobytes()
                assert got_warnings == want_warnings

    @pytest.mark.parametrize("d", DIMS)
    def test_matches_scipy_logsumexp(self, d):
        # The plain or shifted sum of exp(e), e scaled by -1 / (2 h^2), changes
        # only the last bits of the textbook form: the log kernel through
        # scipy's logsumexp. A zero floor gives no finite score to compare.
        for order in ("C", "F"):
            train, test = kde_case(d, d, order)
            check_close_to_logsumexp(kde_one(train, test, 1e-3), train, test)

    def test_matches_reference_on_mixed_and_strided_layouts(self):
        # Train and test as C, F, strided and reversed arrays. The kernel takes
        # each set as the oracle gathers it from the Dataset's C copy (a
        # C-ordered row subset, an F-ordered column subset) and gives the bits
        # of the reference on the C copy.
        rng = np.random.default_rng(11)
        layouts = {
            "C": lambda x: x,
            "F": np.asfortranarray,
            "strided": lambda x: np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)[::2, ::2],
            "reversed": lambda x: np.ascontiguousarray(x[:, ::-1])[:, ::-1],
        }
        work = utility._workspace()
        for d in (2, 7, 9, 130):
            train, test = rng.normal(size=(30, d)), rng.normal(size=(9, d))
            names = tuple(f"x{j}" for j in range(d))
            rows = np.sort(rng.choice(30, size=9, replace=False))[None]
            cols = np.sort(rng.choice(d, size=max(1, d // 2), replace=False))[None]
            want_rows = kde_log_density_reference(train[rows[0]], test, 1e-3)
            want_cols = kde_log_density_reference(train[:, cols[0]], test[:, cols[0]], 1e-3)
            for lay_train in layouts.values():
                for lay_test in layouts.values():
                    tables = ((lay_train, train), (lay_test, test))
                    tr, te = (Dataset(features=lay(x), feature_names=names) for lay, x in tables)
                    got = _kde_log_density(utility._restrict(tr, rows, "rows"), te.features[None], 1e-3, work, None)[0]
                    assert got.tobytes() == want_rows.tobytes()
                    x, t = (utility._restrict(ds, cols, "features") for ds in (tr, te))
                    assert _kde_log_density(x, t, 1e-3, work, None)[0].tobytes() == want_cols.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_far_point_is_minus_inf_with_the_same_warnings(self, d):
        train, test = kde_case(d, 100 + d)
        test[0] = 1e200
        got, got_warnings = with_warnings(kde_one, train, test, 1e-3)
        want, want_warnings = with_warnings(kde_log_density_reference, train, test, 1e-3)
        assert got[0] == want[0] == -math.inf
        assert np.isfinite(got[1:]).all()
        assert got.tobytes() == want.tobytes()
        assert want_warnings and got_warnings == want_warnings

    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_an_underflowing_sum_is_shifted_and_keeps_its_bits(self, axis, monkeypatch):
        # Test point 0 is finite, but for some sets each of its exponents is
        # below -10,000, so its plain sum is 0 and those sets are summed
        # shifted. Rows: train row 0 lies by test point 0, so a set holding
        # it is not shifted. Features: test point 0 is far in column 0 only,
        # so a set without that column is not shifted.
        rng = np.random.default_rng(700)
        d, size = 4, 10 if axis == "rows" else 2
        train, test = rng.normal(size=(40, d)), rng.normal(size=(12, d))
        if axis == "rows":
            test[0], train[0] = 60.0, 60.5
        else:
            test[0, 0] = 60.0
        names = tuple(f"x{j}" for j in range(d))
        o = KdeUtility(*(Dataset(features=x, feature_names=names) for x in (train, test)), axis=axis)
        sets = draw_sets(rng, len(train) if axis == "rows" else d, size, 12)
        shifted = [(0 in s) == (axis == "features") for s in sets]
        assert any(shifted) and not all(shifted)
        stacked, stacked_warnings = with_warnings(o._log_density, sets)
        assert stacked_warnings == []
        with monkeypatch.context() as m:
            m.setattr(utility, "_SHIFT_BELOW", 0.0)
            plain, _ = with_warnings(o._log_density, sets)
        for ids, row, plain_row, takes_it in zip(sets, stacked, plain, shifted):
            # Unshifted, a set that takes the branch loses point 0 to a log of
            # zero; a set that does not keeps its bits.
            assert (plain_row[0] == -math.inf) == takes_it
            assert takes_it or plain_row.tobytes() == row.tobytes()
            x, t = (train[sorted(ids)], test) if axis == "rows" else (train[:, sorted(ids)], test[:, sorted(ids)])
            alone, alone_warnings = with_warnings(o._log_density, [ids])
            want, want_warnings = with_warnings(kde_log_density_reference, x, t, o.floor)
            assert alone[0].tobytes() == row.tobytes() == want.tobytes()
            assert alone_warnings == want_warnings == []
            check_close_to_logsumexp(row, x, t)

    def test_feature_axis_computes_pool_density_once(self, housing_dataset, monkeypatch):
        o = KdeUtility(housing_dataset, housing_dataset, axis="features")
        seen = []
        real = KdeUtility._log_density

        def spy(self, ids_list):
            seen.extend(ids_list)
            return real(self, ids_list)

        monkeypatch.setattr(KdeUtility, "_log_density", spy)
        feats = housing_dataset.features
        d = housing_dataset.n_features
        # Column subsets, as the features axis takes them (F-ordered copies).
        pool = feats[:, np.arange(d)]
        pool_logp = kde_log_density_reference(pool, pool, o.floor)
        rng = np.random.default_rng(5)
        for _ in range(12):
            cols = np.sort(rng.choice(d, size=int(rng.integers(1, d)), replace=False))
            logp = kde_log_density_reference(feats[:, cols], feats[:, cols], o.floor)
            err = np.minimum(np.abs(logp - pool_logp), o.error_cap)
            assert o.value(cols.tolist()) == max(0.0, o.eta - float(err.sum()))
        assert seen.count(frozenset(range(d))) == 1


def kde_tables(d: int, seed: int, axis: str) -> tuple[Dataset, Dataset]:
    """Train and test tables with one column that a zero bandwidth floor leaves at 0.

    On rows, column 0 is 1.5 on train rows 0-7, so a set inside those rows
    (or any single row) has a zero bandwidth there; on features, column 0 is
    1.5 throughout, so every set holding it has. Such a set's kernel
    meets floating-point errors (a division by zero in -0.5 / h^2, NaN terms).
    """
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(40, d)) * rng.uniform(0.5, 5.0, size=d)
    train[: 8 if axis == "rows" else None, 0] = 1.5
    test = rng.normal(size=(15, d)) * 3.0
    names = tuple(f"x{j}" for j in range(d))
    return Dataset(features=train, feature_names=names), Dataset(features=test, feature_names=names)


def kde_sets(train: Dataset, axis: str, rng: np.random.Generator) -> list[frozenset[int]]:
    """Random sets of 1 to 16 ids; on rows also sets of 3 inside rows 0-7."""
    pool = len(train) if axis == "rows" else train.n_features
    sets = [
        frozenset(rng.choice(pool, size=int(rng.integers(1, min(pool, 16) + 1)), replace=False).tolist())
        for _ in range(40)
    ]
    if axis == "rows":
        sets += [frozenset(rng.choice(8, size=3, replace=False).tolist()) for _ in range(4)]
    return sets


def bits(scores: list[float]) -> bytes:
    return np.array(scores, dtype=np.float64).tobytes()


class TestKdeBatch:
    # 3 and 9 features: either side of 8, from which a pairwise sum of the
    # features would differ from the kernel's one feature at a time.
    CASES = [(axis, d, ref) for axis in ("rows", "features") for d in (3, 9) for ref in ("pool", "nll")]

    @pytest.mark.parametrize("floor", [1e-3, 0.0])
    @pytest.mark.parametrize("axis, d, reference", CASES)
    def test_same_bits_alone_and_in_any_batch(self, axis, d, reference, floor):
        train, test = kde_tables(d, 70 + d, axis)
        rng = np.random.default_rng(d)
        sets = kde_sets(train, axis, rng)
        # eta = 0 leaves the unclamped score at minus the error sum, every bit of it.
        bare = KdeUtility(train, test, axis=axis, reference=reference, bandwidth_floor=floor, eta=0.0)
        with np.errstate(all="ignore"):
            alone = {s: bare._score_many([s])[0] for s in sets}
            for _ in range(4):
                batch = [sets[i] for i in rng.permutation(len(sets))[: int(rng.integers(2, len(sets) + 1))]]
                batch += batch[:3]
                assert bits(bare._score_many(batch)) == bits([alone[s] for s in batch])
            assert bits(bare._score_many(sets)) == bits([alone[s] for s in sets])
        if floor == 0.0:
            # The batches mixed sets whose kernel raises with sets whose does not.
            raising = 0
            for s in sets:
                with np.errstate(divide="raise", invalid="raise"):
                    try:
                        bare._score_many([s])
                    except FloatingPointError:
                        raising += 1
            assert 0 < raising < len(sets)

    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_stacks_under_the_cap_leave_every_bit(self, axis, monkeypatch):
        train, test = kde_tables(9, 80, axis)
        sets = kde_sets(train, axis, np.random.default_rng(81))
        bare = KdeUtility(train, test, axis=axis, eta=0.0)
        kernel = utility._kde_log_density
        stacks = []

        def spy(x, t, floor, *rest):
            stacks.append(x.shape[:2])  # (sets, train points)
            return kernel(x, t, floor, *rest)

        monkeypatch.setattr(utility, "_kde_log_density", spy)
        whole = bare._score_many(sets)
        # One stack per set size, and one for the pool's density.
        assert len(stacks) == len({len(s) for s in sets}) + 1
        for cap in (1, 1200):
            stacks.clear()
            monkeypatch.setattr(utility, "_STACK_ELEMENTS", cap)
            assert bits(bare._score_many(sets)) == bits(whole)
            # (sets, test points, train points) under the cap, or one set alone
            assert all(g == 1 or g * len(test) * n <= cap for g, n in stacks)
            assert len(stacks) == len(sets) if cap == 1 else any(g > 1 for g, _ in stacks)

    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_sum_order_follows_each_layout(self, axis):
        # One table as a C, F, strided and reversed array, for train and test
        # alike: a Dataset holds each C-ordered, so every layout sums in one
        # order and gives every set the bits of the reference on the C copy.
        rng = np.random.default_rng(85)
        layouts = (
            lambda x: x,
            np.asfortranarray,
            lambda x: np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)[::2, ::2],
            lambda x: np.ascontiguousarray(x[:, ::-1])[:, ::-1],
        )
        for d in (2, 3, 9, 130):
            train, test = rng.normal(size=(30, d)), rng.normal(size=(9, d))
            names = tuple(f"x{j}" for j in range(d))
            pool = len(train) if axis == "rows" else d
            for size in sorted({1, 2, min(pool, 9), pool}):  # pairwise and running sums differ from 9 terms
                ids = sorted(rng.choice(pool, size=size, replace=False).tolist())
                if axis == "rows":
                    want = kde_log_density_reference(train[ids], test, 1e-3)
                else:
                    want = kde_log_density_reference(train[:, ids], test[:, ids], 1e-3)
                for lay_train in layouts:
                    for lay_test in layouts:
                        tables = ((lay_train, train), (lay_test, test))
                        o = KdeUtility(*(Dataset(features=lay(x), feature_names=names) for lay, x in tables), axis=axis)
                        assert o.train.features.flags.c_contiguous and o.test.features.flags.c_contiguous
                        assert o._log_density([frozenset(ids)])[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 130])
    @pytest.mark.parametrize("n_test", [1, 2])
    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_one_or_two_test_points_keep_every_bit(self, axis, n_test, n):
        # Sets of n train points against 1 or 2 test points. With one, numpy
        # drops the size-1 axis of the (sets, n, n_test) block and sums each
        # set's n contiguous terms pairwise (in blocks of 8 and of 128); with
        # two it adds one train point at a time. Either way a set's row is
        # the same alone, stacked and in the reference.
        rng = np.random.default_rng(600 + 10 * n + n_test)
        d = 4
        n_rows = 140 if axis == "rows" else n
        train, test = rng.normal(size=(n_rows, d)), rng.normal(size=(n_test, d))
        names = tuple(f"x{j}" for j in range(d))
        o = KdeUtility(*(Dataset(features=x, feature_names=names) for x in (train, test)), axis=axis)
        pool, size = (n_rows, n) if axis == "rows" else (d, 2)
        sets = [frozenset(rng.choice(pool, size=size, replace=False).tolist()) for _ in range(5)]
        stacked = o._log_density(sets)
        assert stacked.shape == (5, n_test)
        for ids, row in zip(sets, stacked):
            ids = sorted(ids)
            if axis == "rows":
                want = kde_log_density_reference(train[ids], test, o.floor)
            else:
                want = kde_log_density_reference(train[:, ids], test[:, ids], o.floor)
            alone = o._log_density([frozenset(ids)])[0]
            assert alone.tobytes() == row.tobytes() == want.tobytes()


class TestKdeWorkspace:
    @pytest.mark.parametrize("reference", ["pool", "nll"])
    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_reused_workspace_leaves_every_bit(self, axis, reference, monkeypatch):
        # Rows: stacks of up to 6 sets of 5 rows against 15 test points. Features:
        # every set spans all 40 rows, so stacks of up to 3 sets.
        cap = 450 if axis == "rows" else 1800
        monkeypatch.setattr(utility, "_STACK_ELEMENTS", cap)
        train, test = kde_tables(5, 90, axis)
        rng = np.random.default_rng(91)

        def oracle():
            # A zero floor: a set with a zero bandwidth meets floating-point errors.
            return KdeUtility(train, test, axis=axis, reference=reference, bandwidth_floor=0.0, eta=0.0)

        def draw(size, count, pool):
            return [frozenset(rng.choice(pool, size=size, replace=False).tolist()) for _ in range(count)]

        if axis == "rows":
            calls = [
                draw(5, 6, 40),  # a full stack
                draw(3, 2, np.arange(8, 40)),  # a smaller one
                draw(36, 1, 40),  # one set above the cap
                draw(3, 3, 8),  # a stack with a zero bandwidth
            ]
        else:
            calls = [draw(2, 3, np.arange(1, 5)), draw(3, 2, np.arange(1, 5)), draw(2, 3, 5)]
        every = [s for call in calls for s in call]
        calls.append(every)  # stacks of each size again, after all the others
        o = oracle()
        with np.errstate(all="ignore"):
            for call in calls:
                assert bits(o._score_many(call)) == bits([oracle()._score_many([s])[0] for s in call])
            # A stack larger than the workspace, once the cap no longer splits it.
            monkeypatch.setattr(utility, "_STACK_ELEMENTS", 100 * cap)
            assert bits(o._score_many(every)) == bits([oracle()._score_many([s])[0] for s in every])
        def arrays(v):
            if isinstance(v, (tuple, list)):
                return [a for x in v for a in arrays(x)]
            return [v] if isinstance(v, np.ndarray) else []

        held = [a.size for v in vars(o).values() for a in arrays(v)]
        # The workspace's two arrays, on rows the table of d x n_train x n_test
        # squared differences however it is held, and the pool's density
        # (n_test floats) in pool mode.
        table = train.n_features * len(train) * len(test) if axis == "rows" else 0
        assert held.count(cap) == 2
        assert sum(held) == 2 * cap + table + (len(test) if reference == "pool" else 0)

    @pytest.mark.parametrize("table", [True, False])
    def test_full_16_feature_stack_peaks_under_1_mib(self, table, monkeypatch):
        # 18 sets of 45 rows against 80 test points: 64,800 (test, train)
        # pairs, a full stack. Each feature's term runs in the workspace, so
        # the call's own arrays are the gathered rows and a few small ones,
        # never a (sets, n_test, n, d) array (8.3 MiB here).
        if not table:
            monkeypatch.setattr(utility, "_DIFF_TABLE_ELEMENTS", 0)
        rng = np.random.default_rng(95)
        names = tuple(f"x{j}" for j in range(16))
        train, test = (Dataset(features=rng.normal(size=(n, 16)), feature_names=names) for n in (200, 80))
        o = KdeUtility(train, test, reference="nll")
        assert (o._diffs is not None) == table
        assert 18 * 45 * 80 <= utility._STACK_ELEMENTS < 19 * 45 * 80
        sets = draw_sets(rng, 200, 45, 18)
        tracemalloc.start()
        try:
            o._log_density(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def draw_sets(rng: np.random.Generator, pool, size: int, count: int) -> list[frozenset[int]]:
    return [frozenset(rng.choice(pool, size=size, replace=False).tolist()) for _ in range(count)]


class TestKdeThreads:
    """A KDE call scores its stacks in order on the calling thread and starts no other."""

    @staticmethod
    def two_stacks() -> tuple[Dataset, Dataset, list[frozenset[int]], list[frozenset[int]]]:
        """300 train rows and 80 test points of 3 features, and one call's sets in two full stacks.

        16 sets of 50 rows (64,000 elements) and 13 sets of 60 rows (62,400).
        """
        rng = np.random.default_rng(34)
        names = ("x0", "x1", "x2")
        train = Dataset(features=rng.normal(size=(300, 3)) * rng.uniform(0.5, 3.0, size=3), feature_names=names)
        test = Dataset(features=rng.normal(size=(80, 3)) * 2.0, feature_names=names)
        return train, test, draw_sets(rng, 300, 50, 16), draw_sets(rng, 300, 60, 13)

    @staticmethod
    def check_failed_call(o: KdeUtility, sets: list[frozenset[int]], error: type[Exception]) -> None:
        """values(sets) raises error, starts no thread and memoises nothing of the call."""
        threads = threading.active_count()
        with pytest.raises(error):
            o.values(sets)
        assert threading.active_count() == threads
        assert not any(s in o._cache for s in sets)

    def test_an_error_in_the_workers_stack_raises_from_values(self, monkeypatch):
        # The second stack fails after the first has scored: the call raises,
        # and the first stack's scores are not memoised either.
        train, test, first, second = self.two_stacks()
        kernel = utility._kde_log_density
        stacks = []

        def spy(x, t, floor, *rest):
            stacks.append(x.shape[1])
            if x.shape[1] == 60:
                raise RuntimeError("a failing stack")
            return kernel(x, t, floor, *rest)

        o = KdeUtility(train, test)
        monkeypatch.setattr(utility, "_kde_log_density", spy)
        self.check_failed_call(o, first + second, RuntimeError)
        assert stacks == [300, 50, 60]  # the pool's density, then the stacks in order
        # The oracle goes on: a later call without the failure is a fresh oracle's.
        monkeypatch.setattr(utility, "_kde_log_density", kernel)
        assert bits(o.values(first + second)) == bits(KdeUtility(train, test).values(first + second))

    def test_the_callers_error_state_holds_on_the_worker(self):
        train, test, first, second = self.two_stacks()
        # A feature of 1e200 in one of the second stack's sets: its squared
        # deviation and its squared differences overflow.
        big = next(iter(second[0] - frozenset().union(*first)))
        features = train.features.copy()
        features[big, 0] = 1e200
        train = Dataset(features=features, feature_names=train.feature_names)
        o = KdeUtility(train, test, reference="nll")
        with np.errstate(all="raise"):
            self.check_failed_call(o, first + second, FloatingPointError)
            assert len(KdeUtility(train, test, reference="nll").values(first)) == len(first)  # the first stack meets none
        # Under the default error state numpy warns instead. The set's
        # bandwidth is +inf, so its multiplier -0.5 / h^2 is -0, and the
        # overflowed square times -0 is NaN: the call raises NonFiniteScore.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteScore):
                o.values(first + second)


def kde_rows_oracle(train: np.ndarray, test: np.ndarray, floor: float) -> KdeUtility:
    names = tuple(f"x{j}" for j in range(train.shape[1]))
    return KdeUtility(
        Dataset(features=train, feature_names=names), Dataset(features=test, feature_names=names), bandwidth_floor=floor
    )


class TestKdeDiffTable:
    """Rows: the oracle gathers each term from its table of test - train differences, at any feature count."""

    @staticmethod
    def check(o: KdeUtility, train: np.ndarray, test: np.ndarray, ids, floor: float) -> np.ndarray:
        """The oracle's log density of one row set has the reference's bits and warnings."""
        got, got_warnings = with_warnings(o._log_density, [frozenset(ids)])
        want, want_warnings = with_warnings(kde_log_density_reference, train[sorted(ids)], test, floor)
        assert got[0].tobytes() == want.tobytes()
        assert got_warnings == want_warnings
        return want

    @pytest.mark.parametrize("d", [1, 2, 5, 7, 9, 13])
    def test_tied_maxima(self, d):
        # Train rows 40 and 41 repeat rows 0 and 1, and so do the last two test
        # points: each has two nearest train points, whose log kernels tie at
        # the maximum. Each tied point's term enters the sum as any other,
        # with no tie count, and the density stays within 1e-12 of scipy's.
        train, test = kde_case(d, 200 + d)
        o = kde_rows_oracle(train, test, 1e-3)
        assert o._diffs is not None
        for ids in (range(len(train)), [0, 1, 7, 20, 40, 41]):
            check_close_to_logsumexp(self.check(o, train, test, ids, 1e-3), train[sorted(ids)], test)

    @pytest.mark.parametrize("d", [1, 2, 7, 9, 13])
    def test_far_point_has_a_non_finite_maximum(self, d):
        # Test point 0 lies 1e152 from every train point in the constant
        # column (d // 2), whose bandwidth is the floor: the square, 1e304,
        # fits in the table, but times -0.5 / 1e-6 it overflows to -inf. So
        # every exponent of the point is -inf and its sum 0: the set is
        # summed shifted, with minus the largest float as the point's
        # shift, each term exp(-inf) = 0, and its log density -inf. numpy
        # warns of the overflow once (that column's multiply) and of the
        # log of zero once. Every other point keeps a finite density.
        overflow = (RuntimeWarning, "overflow encountered in multiply")
        log_of_zero = (RuntimeWarning, "divide by zero encountered in log")
        train, test = kde_case(d, 300 + d)
        test[0, d // 2] = 1e152
        o = kde_rows_oracle(train, test, 1e-3)
        assert o._diffs is not None
        for ids in (range(5, 30), [3]):  # with one row, the one term of each point
            got, got_warnings = with_warnings(o._log_density, [frozenset(ids)])
            assert got[0, 0] == -math.inf and np.isfinite(got[0, 1:]).all()
            assert got_warnings == [overflow, log_of_zero]
            self.check(o, train, test, ids, 1e-3)
        # At 1e200 in every column each square overflows, so the oracle keeps
        # no table, and a stack's own squares warn once per feature.
        test[0] = 1e200
        o = kde_rows_oracle(train, test, 1e-3)
        assert o._diffs is None
        for ids in (range(5, 30), [3]):
            got, got_warnings = with_warnings(o._log_density, [frozenset(ids)])
            assert got[0, 0] == -math.inf and np.isfinite(got[0, 1:]).all()
            assert got_warnings == [overflow] * d + [log_of_zero]
            self.check(o, train, test, ids, 1e-3)

    @pytest.mark.parametrize("d", [1, 3, 9, 13])
    def test_zero_bandwidth_stack_warns_like_the_reference(self, d):
        # A zero floor leaves the constant column a zero bandwidth, whose
        # terms meet floating-point errors in the same loop as every other
        # feature's.
        train, test = kde_case(d, 400 + d)
        o = kde_rows_oracle(train, test, 0.0)
        assert o._diffs is not None
        self.check(o, train, test, range(0, 42, 3), 0.0)

    @pytest.mark.parametrize("room", [0, -1])
    def test_each_side_of_the_cap(self, room, monkeypatch):
        train, test = kde_case(3, 500)
        monkeypatch.setattr(utility, "_DIFF_TABLE_ELEMENTS", train.size * len(test) + room)
        o = kde_rows_oracle(train, test, 1e-3)
        assert (o._diffs is None) == (room < 0)
        rng = np.random.default_rng(501)
        sets = [frozenset(rng.choice(len(train), size=9, replace=False).tolist()) for _ in range(5)]
        for ids in sets:
            self.check(o, train, test, ids, 1e-3)
        want = [kde_log_density_reference(train[sorted(s)], test, 1e-3) for s in sets]
        assert o._log_density(sets).tobytes() == np.array(want).tobytes()


class TestLogReg:
    def test_single_class_fallback_matches_formula(self):
        ds = make_blobs(40, seed=1)
        o = LogRegUtility(ds, ds)
        zeros = [i for i in range(len(ds)) if ds.labels[i] == 0.0][:6]
        p = 1.0 / (len(zeros) + 2.0)
        yt = ds.labels
        expected = o.eta - float(-(yt * np.log(p) + (1 - yt) * np.log(1 - p)).mean())
        assert o.value(zeros) == pytest.approx(expected, abs=1e-12)

    def test_informative_subset_beats_single_class(self):
        ds = make_blobs(60, seed=2)
        o = LogRegUtility(ds, ds)
        mixed = list(range(0, 30))
        zeros = [i for i in range(len(ds)) if ds.labels[i] == 0.0][:15]
        assert o.value(mixed) > o.value(zeros)

    def test_default_eta(self):
        ds = make_blobs(20, seed=3)
        assert LogRegUtility(ds, ds).eta == 20.0

    def test_requires_binary_labels(self):
        feats = np.arange(12, dtype=float).reshape(-1, 1)
        ds = Dataset(features=feats, feature_names=("x",), labels=np.arange(12, dtype=float), label_name="y")
        with pytest.raises(MalformedInput):
            LogRegUtility(ds, ds)

    def test_requires_labels(self):
        ds = Dataset(features=np.zeros((4, 1)) + np.arange(4).reshape(-1, 1), feature_names=("x",))
        with pytest.raises(MalformedInput):
            LogRegUtility(ds, ds)

    def test_deterministic(self):
        ds = make_blobs(50, seed=4)
        a = LogRegUtility(ds, ds)
        b = LogRegUtility(ds, ds)
        ids = frozenset(range(0, 40, 2))
        assert a.value(ids) == b.value(ids)


def count_calls(monkeypatch, owner: object, name: str, calls: dict[str, int]) -> None:
    """Count the calls of owner.name into calls[name]."""
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def logreg_sets(train: Dataset, axis: str, rng: np.random.Generator) -> list[frozenset[int]]:
    """Random sets of 1 to 16 ids; on rows also single-row and single-class sets."""
    pool = len(train) if axis == "rows" else train.n_features
    sets = [
        frozenset(rng.choice(pool, size=int(rng.integers(1, min(pool, 16) + 1)), replace=False).tolist())
        for _ in range(30)
    ]
    if axis == "rows":
        zeros = [i for i in range(pool) if train.labels[i] == 0.0]
        sets += [frozenset(zeros[:1]), frozenset(zeros[:6]), frozenset({int(rng.integers(pool))})]
    return sets


class TestLogRegBatch:
    # 9 features put the fit's width above 8, from which a pairwise sum
    # differs from a running one. 1 feature on rows stacks one column per set.
    CASES = [("rows", 1), ("rows", 2), ("rows", 4), ("rows", 9), ("features", 4), ("features", 9)]

    @pytest.mark.parametrize("axis, n_features", CASES)
    def test_same_bits_alone_and_in_any_batch(self, axis, n_features):
        train = make_blobs(40, n_features=n_features, seed=10 + n_features, sep=1.0)
        test = make_blobs(30, n_features=n_features, seed=20 + n_features, sep=1.0)
        rng = np.random.default_rng(n_features)
        sets = logreg_sets(train, axis, rng)
        # eta = 0 leaves the unclamped score at minus the log-loss, every bit
        # of it; with eta = 20 the last bits of the loss round away.
        bare = LogRegUtility(train, test, axis=axis, eta=0.0)
        alone = {s: bare._score_many([s])[0] for s in sets}
        public = {s: LogRegUtility(train, test, axis=axis, cache=False).value(s) for s in sets}
        for cache in (False, True, False, True):
            batch = [sets[i] for i in rng.permutation(len(sets))[: int(rng.integers(2, len(sets) + 1))]]
            batch += batch[:3]
            assert bare._score_many(batch) == [alone[s] for s in batch]
            oracle = LogRegUtility(train, test, axis=axis, cache=cache)
            assert oracle.values(batch) == [public[s] for s in batch]

    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_fit_groups_under_the_cap_leave_every_bit(self, axis, monkeypatch):
        train = make_blobs(40, n_features=9, seed=60, sep=1.0)
        test = make_blobs(30, n_features=9, seed=61, sep=1.0)
        sets = logreg_sets(train, axis, np.random.default_rng(62))
        bare = LogRegUtility(train, test, axis=axis, eta=0.0)
        fit = LogRegUtility._fit
        groups = []

        def spy(self, xs, *args):
            groups.append(xs.shape)  # (sets, rows, features)
            return fit(self, xs, *args)

        monkeypatch.setattr(LogRegUtility, "_fit", spy)
        whole = bare._score_many(sets)
        assert len(groups) == 1 and groups[0][0] > 20
        for cap in (1, 150, 600):
            groups.clear()
            monkeypatch.setattr(utility, "_STACK_ELEMENTS", cap)
            assert bare._score_many(sets) == whole
            assert len(groups) > 1
            # (columns, rows, sets) under the cap, or one set alone
            assert all(b == 1 or b * m * (d + 1) <= cap for b, m, d in groups)

    @pytest.mark.parametrize("axis", ["rows", "features"])
    @pytest.mark.parametrize("size", [3, 30])
    def test_one_array_pass_per_fit_group(self, axis, size, monkeypatch):
        # Each step runs once for the whole group, whatever its size; the log-loss
        # once for the fitted sets and once for the single-class ones, and
        # _tree_sum for the mean and the std of the standardization and for
        # the prediction's x v.
        train = make_blobs(40, n_features=9, seed=63, sep=1.0)
        test = make_blobs(30, n_features=9, seed=64, sep=1.0)
        sets = logreg_sets(train, axis, np.random.default_rng(65))[:size]
        bare = LogRegUtility(train, test, axis=axis, eta=0.0)
        alone = [bare._score_many([s])[0] for s in sets]
        calls: dict[str, int] = {}
        for owner, name in [
            (LogRegUtility, "_score_group"),
            (utility, "_padded_ids"),
            (utility, "_standardize"),
            (LogRegUtility, "_fit"),
            (LogRegUtility, "_predict"),
            (utility, "_tree_sum"),
            (LogRegUtility, "_log_loss"),
        ]:
            count_calls(monkeypatch, owner, name, calls)
        assert bare._score_many(sets) == alone
        assert calls.pop("_log_loss") <= 2
        once = ("_score_group", "_padded_ids", "_standardize", "_fit", "_predict")
        assert calls == dict.fromkeys(once, 1) | {"_tree_sum": 3}

    @pytest.mark.parametrize("axis", ["rows", "features"])
    def test_large_test_sets_split_the_prediction_stack(self, axis, monkeypatch):
        train = make_blobs(40, n_features=9, seed=66, sep=1.0)
        test = make_blobs(3000, n_features=9, seed=67, sep=1.0)
        sets = logreg_sets(train, axis, np.random.default_rng(68))
        bare = LogRegUtility(train, test, axis=axis, eta=0.0)
        alone = [bare._score_many([s])[0] for s in sets]
        tree_sum = utility._tree_sum
        stacks = []

        def spy(a):
            if a.shape[2] == len(test):  # not the standardization's (rows, sets, features)
                stacks.append(a.shape)  # (features + bias, sets, test points)
            return tree_sum(a)

        monkeypatch.setattr(utility, "_tree_sum", spy)
        for cap in (utility._STACK_ELEMENTS, 1):
            stacks.clear()
            monkeypatch.setattr(utility, "_STACK_ELEMENTS", cap)
            assert bare._score_many(sets) == alone
            assert all(c == 1 or w * c * n <= cap for w, c, n in stacks)
            assert any(c > 1 for _, c, _ in stacks) if cap > 1 else len(stacks) > 1

    def test_room_counts_fit_values(self):
        train, test = make_blobs(300, n_features=4, seed=69), make_blobs(30, n_features=4, seed=70)
        rows, features = LogRegUtility(train, test), LogRegUtility(train, test, axis="features")
        shared = utility.SHARED_FIT_VALUES
        assert rows.room([frozenset(range(20)), frozenset(range(5))]) == shared // (20 * 5)
        assert rows.room([frozenset(range(300))] * 3) == max(3, shared // (300 * 5)) == 3
        assert rows.room([frozenset()]) == shared  # an empty set fits nothing
        assert features.room([frozenset({0, 1})]) == shared // (300 * 3)
        sets = [frozenset({1}), frozenset({2, 3})]
        assert AdditiveUtility({1: 1.0, 2: 1.0, 3: 1.0}).room(sets) == KdeUtility(train, test).room(sets) == 2

    @pytest.mark.parametrize("axis, n_features", CASES)
    def test_matches_the_one_set_blas_fit(self, axis, n_features):
        train = make_blobs(40, n_features=n_features, seed=30 + n_features, sep=1.0)
        test = make_blobs(30, n_features=n_features, seed=40 + n_features, sep=1.0)
        oracle = LogRegUtility(train, test, axis=axis)
        sets = logreg_sets(train, axis, np.random.default_rng(50 + n_features))
        for s, got in zip(sets, oracle.values(sets)):
            assert got == pytest.approx(logreg_score_reference(oracle, s), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "params",
        [
            {"iters": -5},
            {"iters": "x"},
            {"iters": 2.5},
            {"iters": True},
            {"lr": 0.0},
            {"lr": -0.5},
            {"lr": "x"},
            {"lr": math.inf},
            {"l2": -1.0},
            {"l2": math.nan},
            {"eta": math.nan},
            {"eta": "x"},
        ],
    )
    def test_bad_parameters_rejected(self, params):
        ds = make_blobs(20, seed=5)
        with pytest.raises(MalformedInput):
            LogRegUtility(ds, ds, **params)
        with pytest.raises(MalformedInput):
            make_oracle({"kind": "logreg", **params}, ds, ds)

    @pytest.mark.parametrize("where", ["fit", "prediction"])
    def test_exp_overflow_warns_nothing(self, where):
        # exp(x v) overflows in the descent with a huge step, and in the
        # prediction on a far test point; 1 / (1 + inf) = 0 is the limit, so
        # neither is worth a warning.
        train = make_blobs(40, seed=7)
        test = make_blobs(30, seed=8)
        lr = 0.5
        if where == "fit":
            lr = 1e4
        else:
            test.features[:2] = [[1e6], [-1e6]]  # one of them lands on the overflowing side
        oracle = LogRegUtility(train, test, lr=lr, cache=False)
        sets = [frozenset(range(40)), frozenset(range(0, 40, 3))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = oracle.values(sets)
            assert scores == [oracle.value(s) for s in sets]
        assert all(math.isfinite(v) for v in scores)
        assert np.geterr()["over"] == "warn"

    def test_zero_iterations_is_the_half_predictor(self):
        ds = make_blobs(20, seed=6)
        oracle = LogRegUtility(ds, ds, iters=0, l2=0.0)
        assert oracle.value(range(10)) == pytest.approx(20.0 - math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("kind", [LogRegUtility, LinRegUtility])
class TestRowIdsOutOfRange:
    @pytest.mark.parametrize("ids", [[-1, 0, 1, 2, 3, 4], [-7], [0, 1, 2, 3, 20], [0, 1, 2, 3, 99]])
    def test_rejected(self, kind, ids):
        ds = make_blobs(20, seed=3)
        with pytest.raises(MalformedInput, match=r"row ids out of range \[0, 20\)"):
            kind(ds, ds).value(ids)

    def test_both_bounds_accepted(self, kind):
        ds = make_blobs(20, seed=3)
        assert math.isfinite(kind(ds, ds).value([0, 5, 10, 19]))

    def test_one_bad_set_fails_its_batch(self, kind):
        ds = make_blobs(20, seed=3)
        oracle = kind(ds, ds)
        good = [frozenset(range(0, 20, 2)), frozenset(range(1, 20, 3))]
        with pytest.raises(MalformedInput, match="row ids out of range"):
            oracle.values([*good, frozenset({3, 4, 20})])
        assert oracle.values(good) == kind(ds, ds).values(good)


class TestStackIds:
    """The id stacks against a per-set sorted() build: same arrays, same range checks."""

    @staticmethod
    def sorted_stack(sets):
        return np.array([sorted(ids) for ids in sets], dtype=np.intp)

    @staticmethod
    def sorted_padded(sets, limit):
        width = max(map(len, sets))
        idx = np.array([sorted(ids) + [limit] * (width - len(ids)) for ids in sets], dtype=np.intp)
        return idx, np.array([len(ids) for ids in sets], dtype=np.intp)

    @given(st.lists(st.frozensets(st.integers(0, 63), min_size=1, max_size=12), min_size=1, max_size=15))
    def test_same_arrays_as_sorted(self, sets):
        idx, sizes = utility._padded_ids(sets, 64, "rows")
        want_idx, want_sizes = self.sorted_padded(sets, 64)
        assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx) and np.array_equal(sizes, want_sizes)
        equal = [ids for ids in sets if len(ids) == len(sets[0])]
        stack = utility._stack_ids(equal, 64, "rows")
        assert stack.dtype == np.intp and np.array_equal(stack, self.sorted_stack(equal))

    def test_one_set_and_empty_sets(self):
        assert np.array_equal(utility._stack_ids([frozenset({9, 2, 5})], 10, "rows"), [[2, 5, 9]])
        assert utility._stack_ids([frozenset(), frozenset()], 10, "rows").shape == (2, 0)
        idx, sizes = utility._padded_ids([frozenset({3}), frozenset(), frozenset({7, 1})], 10, "features")
        assert idx.tolist() == [[3, 10], [10, 10], [1, 7]] and sizes.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("build", [utility._stack_ids, utility._padded_ids])
    @pytest.mark.parametrize("sets", [[frozenset({0, 10})], [frozenset({-1, 3}), frozenset({2, 4})]])
    @pytest.mark.parametrize("axis, name", [("rows", "row"), ("features", "feature")])
    def test_same_range_checks(self, build, sets, axis, name):
        with pytest.raises(MalformedInput, match=rf"^{name} ids out of range \[0, 10\)$"):
            build(sets, 10, axis)
        assert build([frozenset({0, 9})], 10, axis) is not None


class TestLinReg:
    def test_interpolating_subset_scores_eta(self):
        ds = line_dataset()
        o = LinRegUtility(ds, ds)
        assert o.value({0, 5, 11}) == pytest.approx(o.eta, abs=1e-9)

    def test_default_eta_floor(self):
        ds = line_dataset()
        o = LinRegUtility(ds, ds)
        base = float(((ds.labels - ds.labels.mean()) ** 2).mean())
        assert o.eta == max(1.0, 4.0 * base)

    def test_single_point_is_degenerate_not_fatal(self):
        ds = line_dataset()
        o = LinRegUtility(ds, ds)
        assert math.isfinite(o.value({0}))

    def test_feature_axis(self, housing_dataset):
        o = LinRegUtility(housing_dataset, housing_dataset, axis="features")
        all_feats = range(housing_dataset.n_features)
        chas = housing_dataset.feature_names.index("CHAS")
        assert o.value(all_feats) > o.value({chas})

    def test_bad_axis(self):
        ds = line_dataset()
        with pytest.raises(MalformedInput):
            LinRegUtility(ds, ds, axis="columns")

    @pytest.mark.parametrize("eta", ["x", True, math.nan, -math.inf, [1.0]])
    def test_bad_eta_rejected(self, eta):
        ds = line_dataset()
        with pytest.raises(MalformedInput):
            LinRegUtility(ds, ds, eta=eta)
        with pytest.raises(MalformedInput):
            make_oracle({"kind": "linreg", "eta": eta}, ds, ds)


class TestFactoryAndCache:
    def test_kind_aliases(self):
        assert check_config({"kind": "logreg"})[0] == "logistic-regression"
        assert check_config({"kind": "Linear_Regression"})[0] == "linear-regression"
        assert check_config({"kind": "setcover", "universe": [1], "subsets": [[1]]})[0] == "set-cover"
        with pytest.raises(MalformedInput):
            check_config({"kind": "mystery"})

    def test_wrapped_config(self):
        o = make_oracle({"utility": {"kind": "additive", "weights": {"1": 2.0}}})
        assert o.value({1}) == 2.0

    def test_set_cover_config(self):
        o = make_oracle({"kind": "set-cover", "universe": [1, 2], "subsets": [[1], [2]]})
        assert o.value({1, 2}) == 2 - 2 + (2 + 4) / 8

    @pytest.mark.parametrize(
        "bad",
        [
            {"universe": [1, 2], "subsets": [["a"], [2]]},
            {"universe": "x", "subsets": [[1], [2]]},
            {"universe": [1, 2.5], "subsets": [[1]]},
            {"universe": [1, True], "subsets": [[1]]},
            {"universe": 3, "subsets": [[1]]},
            {"universe": [1, 2], "subsets": 5},
            {"universe": [1, 2], "subsets": [1, 2]},
            {"universe": [1, 2]},
        ],
    )
    def test_bad_set_cover_config(self, bad):
        with pytest.raises(MalformedInput):
            make_oracle({"kind": "set-cover", **bad})

    def test_data_backed_needs_datasets(self):
        with pytest.raises(MalformedInput):
            make_oracle({"kind": "kde"})

    @pytest.mark.parametrize(
        "cfg, stray",
        [
            ({"kind": "additive", "weights": {"1": 2.0}, "weight": {"2": 1.0}}, "weight"),
            ({"kind": "set-cover", "universe": [1], "subsets": [[1]], "subset": [[1]]}, "subset"),
            ({"kind": "kde", "error_cpa": 5}, "error_cpa"),
            ({"kind": "logreg", "itres": 3}, "itres"),
            ({"kind": "linreg", "axes": "features"}, "axes"),
            ({"utility": {"kind": "additive", "weights": {"1": 2.0}}, "eta": 1.0}, "eta"),
        ],
    )
    def test_unknown_keys_rejected(self, cfg, stray):
        ds = make_blobs(20, seed=3)
        with pytest.raises(MalformedInput, match=rf"unknown .*keys \['{stray}'\]"):
            make_oracle(cfg, ds, ds)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "additive", "weights": {"1": 2.0}},
            {"kind": "set-cover", "universe": [1], "subsets": [[1]]},
            {"kind": "kde", "eta": None, "bandwidth_floor": 0.0, "error_cap": 5, "reference": "nll", "axis": "rows"},
            {"kind": "logreg", "eta": 5.0, "iters": 3, "lr": 0.1, "l2": 0.0, "axis": "rows"},
            {"kind": "linreg", "eta": None, "axis": "rows"},
        ],
    )
    def test_every_key_a_kind_takes_and_label_accepted(self, cfg):
        ds = make_blobs(20, seed=3)
        oracle = make_oracle({**cfg, "label": "y"}, ds, ds)
        assert oracle.value(oracle.pool) >= 0.0

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda ds: AdditiveUtility({"a": 1.0}), "weights must be"),
            (lambda ds: AdditiveUtility({-1: 1.0}), "weights must be"),
            (lambda ds: SetCoverUtility(SetCoverGame(universe=[1, 2.5], subsets=[[1]])), "universe must be"),
            (lambda ds: KdeUtility(ds, ds, reference="mean"), 'reference must be "pool" or "nll"'),
            (lambda ds: LogRegUtility(ds, ds, iters=1.5), "iters must be an integer >= 0"),
            (lambda ds: LinRegUtility(ds, ds, axis="columns"), 'axis must be "rows" or "features"'),
        ],
    )
    def test_constructors_check_their_arguments_by_the_rule_table(self, build, named):
        with pytest.raises(MalformedInput, match=named):
            build(make_blobs(20, seed=3))

    def test_readme_lists_the_rule_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| ([\w-]+) \| (\w+) \| (.+?) \| (.+?) \|$", readme, re.M)
        listed = {(kind, key): (need, default.strip("`")) for kind, key, need, default in rows if kind != "kind"}
        defaults = {kind: oracle.__init__.__kwdefaults__ for kind, oracle in utility.DATA_BACKED.items()}
        assert listed == {
            (kind, key): (need, json.dumps(defaults[kind][key]) if kind in defaults else "required")
            for kind, rules in utility._RULES.items()
            for key, (need, _) in rules.items()
        }

    def test_each_kind_names_its_pool(self):
        assert make_oracle({"kind": "additive", "weights": {"7": 1.0, "2": 3.0, "5": 0.0}}).pool == [2, 5, 7]
        cover = make_oracle({"kind": "set-cover", "universe": [1, 2], "subsets": [[1], [2], [1, 2]]})
        assert cover.pool == range(1, 4)
        train, test = make_blobs(30, seed=4), make_blobs(10, seed=5)  # 4 feature columns
        for kind in (KdeUtility, LogRegUtility, LinRegUtility):
            assert kind(train, test).pool == range(30)
            assert kind(train, test, axis="features").pool == range(4)

    def test_cache_counts_single_eval(self):
        o = AdditiveUtility({1: 1.0, 2: 2.0})
        for _ in range(5):
            o.value({1, 2})
        assert o.evals == 1
        assert o.calls == 5

    def test_clear_cache_keeps_counters_and_pool_density(self, pool, monkeypatch):
        train, test = pool
        o = KdeUtility(train, test)
        seen = []
        real = KdeUtility._log_density

        def spy(self, ids_list):
            seen.extend(ids_list)
            return real(self, ids_list)

        monkeypatch.setattr(KdeUtility, "_log_density", spy)
        sets = [frozenset(range(5)), frozenset(range(3, 12))]
        first = o.values(sets)
        assert (o.calls, o.evals) == (2, 2)
        o.clear_cache()
        assert (o.calls, o.evals) == (2, 2)
        # Both sets are scored again, against the pool density computed once.
        assert o.values(sets) == first
        assert (o.calls, o.evals) == (4, 4)
        assert seen.count(frozenset(range(len(train)))) == 1
        assert seen.count(sets[0]) == 2

    def test_clear_cache_without_a_memo(self):
        o = AdditiveUtility({1: 1.0}, cache=False)
        o.value({1})
        o.clear_cache()
        assert (o.calls, o.evals, o.value({1})) == (1, 1, 1.0)

    def test_kde_feature_axis_runs(self, housing_dataset):
        o = KdeUtility(housing_dataset, housing_dataset, axis="features")
        v = o.value({0, 1, 2})
        assert 0.0 <= v <= o.eta + 1e-9
