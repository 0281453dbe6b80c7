"""Utility oracles: closed-form families, data-backed families, factory, audit."""

from __future__ import annotations

import logging
import math
import warnings

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
    audit_monotonicity,
    make_oracle,
    normalize_kind,
)

from conftest import make_blobs
from oracles import kde_log_density_reference, logreg_score_reference, setcover_value


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
        with pytest.raises(MalformedInput):
            AdditiveUtility({1: 1.0}).value({2})

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
        with caplog.at_level(logging.WARNING, logger="shapcf.utility"):
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


def with_warnings(fn, *args):
    """fn(*args) and every warning it raised, as (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


def kde_case(d: int, seed: int, order: str = "C") -> tuple[np.ndarray, np.ndarray]:
    """Train rows with a constant column and two duplicated rows; the last two
    test rows are those duplicates, so their log-kernel rows tie at the max.

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


class TestKdeKernelBits:
    """_kde_log_density is the 3-D array + scipy logsumexp form, bit for bit."""

    @pytest.mark.parametrize("d", [*range(1, 41), 127, 128, 129, 130, 200, 300])
    def test_matches_reference(self, d):
        for order in ("C", "F"):
            train, test = kde_case(d, d, order)
            # A zero floor leaves the constant column a zero bandwidth (NaN/inf).
            for floor in (1e-3, 0.0):
                got, got_warnings = with_warnings(_kde_log_density, train, test, floor)
                want, want_warnings = with_warnings(kde_log_density_reference, train, test, floor)
                assert got.tobytes() == want.tobytes()
                assert got_warnings == want_warnings

    def test_matches_reference_on_mixed_and_strided_layouts(self):
        rng = np.random.default_rng(11)
        layouts = {
            "C": lambda x: x,
            "F": np.asfortranarray,
            "strided": lambda x: np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)[::2, ::2],
            "reversed": lambda x: np.ascontiguousarray(x[:, ::-1])[:, ::-1],
        }
        for d in (2, 7, 9, 130):
            train, test = rng.normal(size=(30, d)), rng.normal(size=(9, d))
            for lay_train in layouts.values():
                for lay_test in layouts.values():
                    got = _kde_log_density(lay_train(train), lay_test(test), 1e-3)
                    want = kde_log_density_reference(lay_train(train), lay_test(test), 1e-3)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_far_point_is_minus_inf_with_the_same_warnings(self, d):
        train, test = kde_case(d, 100 + d)
        test[0] = 1e200
        got, got_warnings = with_warnings(_kde_log_density, train, test, 1e-3)
        want, want_warnings = with_warnings(kde_log_density_reference, train, test, 1e-3)
        assert got[0] == want[0] == -math.inf
        assert np.isfinite(got[1:]).all()
        assert got.tobytes() == want.tobytes()
        assert want_warnings and got_warnings == want_warnings

    def test_feature_axis_computes_pool_density_once(self, housing_dataset, monkeypatch):
        o = KdeUtility(housing_dataset, housing_dataset, axis="features")
        seen = []
        real = KdeUtility._log_density

        def spy(self, ids):
            seen.append(ids)
            return real(self, ids)

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
    # 9 features put the fit's width above 8, past numpy's short running sums.
    CASES = [("rows", 2), ("rows", 4), ("rows", 9), ("features", 4), ("features", 9)]

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

        def spy(self, fits):
            groups.append((len(fits), max(len(y) for _, y in fits), max(xs.shape[1] for xs, _ in fits)))
            return fit(self, fits)

        monkeypatch.setattr(LogRegUtility, "_fit", spy)
        whole = bare._score_many(sets)
        assert len(groups) == 1 and groups[0][0] > 20
        for cap in (1, 150, 600):
            groups.clear()
            monkeypatch.setattr(utility, "_FIT_ELEMENTS", cap)
            assert bare._score_many(sets) == whole
            assert len(groups) > 1
            # (columns, rows, sets) under the cap, or one set alone
            assert all(b == 1 or b * m * (d + 1) <= cap for b, m, d in groups)

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


class TestFactoryAndCache:
    def test_kind_aliases(self):
        assert normalize_kind("logreg") == "logistic-regression"
        assert normalize_kind("Linear_Regression") == "linear-regression"
        assert normalize_kind("setcover") == "set-cover"
        with pytest.raises(MalformedInput):
            normalize_kind("mystery")

    def test_wrapped_config(self):
        o = make_oracle({"utility": {"kind": "additive", "weights": {"1": 2.0}}})
        assert o.value({1}) == 2.0

    def test_set_cover_config(self):
        o = make_oracle({"kind": "set-cover", "universe": [1, 2], "subsets": [[1], [2]]})
        assert o.value({1, 2}) == 2 - 2 + (2 + 4) / 8

    def test_data_backed_needs_datasets(self):
        with pytest.raises(MalformedInput):
            make_oracle({"kind": "kde"})

    def test_cache_counts_single_eval(self):
        o = AdditiveUtility({1: 1.0, 2: 2.0})
        for _ in range(5):
            o.value({1, 2})
        assert o.evals == 1
        assert o.calls == 5

    def test_kde_feature_axis_runs(self, housing_dataset):
        o = KdeUtility(housing_dataset, housing_dataset, axis="features")
        v = o.value({0, 1, 2})
        assert 0.0 <= v <= o.eta + 1e-9
