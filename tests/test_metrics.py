"""Agreement and distance metrics used by the experiment harness."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import shapcf
from shapcf.core import MalformedInput, OwnerPartition
from shapcf.datasets import Dataset
from shapcf.metrics import (
    coefficient_of_variation,
    jaccard,
    mean_jaccard,
    owner_distance,
    size_stats,
    success_rate,
    wasserstein_1d,
)

from oracles import merge_wasserstein

entry_sets = st.frozensets(st.integers(min_value=0, max_value=30), max_size=12)


class TestJaccard:
    def test_examples(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0
        assert jaccard({1, 2}, {3, 4}) == 0.0
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(2 / 4)
        assert jaccard([], []) == 1.0
        assert jaccard({1}, []) == 0.0

    def test_accepts_any_iterable(self):
        assert jaccard([1, 1, 2], (2, 1)) == 1.0

    @given(entry_sets, entry_sets)
    def test_symmetric_and_bounded(self, x, y):
        assert jaccard(x, y) == jaccard(y, x)
        assert 0.0 <= jaccard(x, y) <= 1.0

    @given(entry_sets)
    def test_self_similarity_is_one(self, x):
        assert jaccard(x, x) == 1.0

    @given(entry_sets, entry_sets)
    def test_one_only_for_equal_sets(self, x, y):
        if jaccard(x, y) == 1.0:
            assert x == y

    def test_mean_jaccard(self):
        pairs = [({1, 2}, {1, 2}), ({1}, {2})]
        assert mean_jaccard(pairs) == pytest.approx(0.5)
        assert mean_jaccard([]) is None


class TestCoefficientOfVariation:
    def test_matches_numpy(self):
        vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        arr = np.array(vals)
        assert coefficient_of_variation(vals) == pytest.approx(arr.std() / arr.mean())

    def test_none_on_empty_or_zero_mean(self):
        assert coefficient_of_variation([]) is None
        assert coefficient_of_variation([-1.0, 1.0]) is None

    def test_constant_values_give_zero(self):
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0

    def test_size_stats(self):
        stats = size_stats([1, 2, 3])
        assert stats["count"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["sd"] == pytest.approx(np.std([1, 2, 3]))
        assert stats["cov"] == pytest.approx(np.std([1, 2, 3]) / 2.0)
        empty = size_stats([])
        assert empty == {"count": 0, "mean": None, "sd": None, "cov": None}


class TestSuccessRate:
    def test_counts_only_completed_runs(self):
        outcomes = [
            ("ok", True, False),
            ("ok", False, False),
            ("ok", True, True),
            ("timeout", False, True),
            ("precondition_not_met", False, False),
            ("precondition_undecided", False, False),
        ]
        # Two completions, one success: the timed-out and skipped runs are
        # neither numerator nor denominator.
        assert success_rate(outcomes) == pytest.approx(0.5)

    def test_none_when_nothing_completed(self):
        assert success_rate([]) is None
        assert success_rate([("timeout", False, True)]) is None

    def test_all_successes(self):
        assert success_rate([("ok", True, False)] * 4) == 1.0


class TestWasserstein:
    def test_identical_samples_zero(self):
        xs = [1.0, 2.0, 5.0]
        assert wasserstein_1d(xs, xs) == 0.0

    def test_shift_by_constant(self):
        xs = [0.0, 1.0, 2.0]
        ys = [3.0, 4.0, 5.0]
        assert wasserstein_1d(xs, ys) == pytest.approx(3.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        u = rng.normal(0, 1, 40).tolist()
        v = rng.normal(1, 2, 25).tolist()
        assert wasserstein_1d(u, v) == pytest.approx(wasserstein_1d(v, u))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        u = rng.normal(0, 1, 30).tolist()
        v = rng.normal(0.5, 1, 30).tolist()
        w = rng.normal(2, 3, 30).tolist()
        assert wasserstein_1d(u, w) <= wasserstein_1d(u, v) + wasserstein_1d(v, w) + 1e-12

    def test_matches_sorted_merge_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.normal(0, 1, int(rng.integers(2, 40))).tolist()
            v = rng.normal(1, 2, int(rng.integers(2, 40))).tolist()
            assert wasserstein_1d(u, v) == pytest.approx(merge_wasserstein(u, v), rel=1e-9)


class TestOwnerDistance:
    def make(self, rows):
        feats = np.asarray(rows, dtype=np.float64)
        names = tuple(f"f{j}" for j in range(feats.shape[1]))
        return Dataset(features=feats, feature_names=names)

    def test_identical_owners_zero(self):
        data = self.make([[0.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 2.0]])
        p = OwnerPartition({"A": frozenset({0, 1}), "B": frozenset({2, 3})})
        assert owner_distance(data, p, "A", "B") == pytest.approx(0.0)

    def test_separated_owners_positive_and_symmetric(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(4, 1, (20, 3))])
        data = self.make(rows)
        p = OwnerPartition({"A": frozenset(range(20)), "B": frozenset(range(20, 40))})
        d = owner_distance(data, p, "A", "B")
        assert d > 1.0
        assert d == pytest.approx(owner_distance(data, p, "B", "A"))

    def test_constant_feature_skipped(self):
        data = self.make([[1.0, 0.0], [1.0, 1.0], [1.0, 10.0], [1.0, 11.0]])
        p = OwnerPartition({"A": frozenset({0, 1}), "B": frozenset({2, 3})})
        col = data.features[:, 1]
        z = (col - col.mean()) / col.std()
        expect = merge_wasserstein(z[:2].tolist(), z[2:].tolist())
        assert owner_distance(data, p, "A", "B") == pytest.approx(expect)

    def test_all_constant_rejected(self):
        data = self.make([[1.0], [1.0], [1.0], [1.0]])
        p = OwnerPartition({"A": frozenset({0, 1}), "B": frozenset({2, 3})})
        with pytest.raises(MalformedInput):
            owner_distance(data, p, "A", "B")

    def test_empty_owner_rejected(self):
        data = self.make([[0.0], [1.0]])
        p = OwnerPartition({"A": frozenset({0, 1}), "B": frozenset()})
        with pytest.raises(MalformedInput):
            owner_distance(data, p, "A", "B")


def test_importing_the_package_and_cli_loads_no_scipy():
    # Only wasserstein_1d needs scipy; it imports it on first call.
    src = str(Path(shapcf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, shapcf, shapcf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"
