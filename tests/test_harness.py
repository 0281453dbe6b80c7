"""Experiment harness: allocation generators, config parsing, trial runs."""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from shapcf import harness
from shapcf.core import MalformedInput, OwnerPartition, SizeOverflow, spawn_rng
from shapcf.datasets import load_partition, split_dataset
from shapcf.explain import ExplainConfig
from shapcf.harness import (
    ExperimentConfig,
    gen_natural,
    gen_uniform,
    gen_vertical,
    gen_zipfian,
    run_experiment,
    write_outputs,
)
from shapcf.shapley import diff_shapley_exact
from shapcf.utility import UtilityOracle

from conftest import BOSTON_FEATURES, MONTH_SIZES, make_blobs

VERTICAL_GROUPS = {
    "P": ["RM", "AGE"],
    "G": ["CHAS", "NOX", "DIS", "RAD"],
    "S": ["CRIM", "B", "ZN", "INDUS", "TAX", "PTRATIO", "LSTAT"],
}


class TestUniformAllocation:
    def test_bounds_names_and_membership(self):
        data = make_blobs(30, seed=1)
        p = gen_uniform(data, 4, spawn_rng(0, 1), size_range=(2, 5))
        assert p.owner_ids() == ("O0", "O1", "O2", "O3")
        for o in p.owner_ids():
            ents = p.entries(o)
            assert 2 <= len(ents) <= 5
            assert all(0 <= e < 30 for e in ents)

    def test_default_range_spans_all_rows(self):
        data = make_blobs(455, seed=2)
        sizes = []
        rng = spawn_rng(3, 1)
        for _ in range(1000):
            p = gen_uniform(data, 2, rng)
            sizes += [len(p.entries(o)) for o in p.owner_ids()]
        assert min(sizes) >= 1 and max(sizes) <= 455
        # Uniform sizes on [1, 455]: the sample mean stays within 4 standard
        # errors of 228.
        se = 455 / np.sqrt(12) / np.sqrt(len(sizes))
        assert abs(np.mean(sizes) - 228.0) <= 4 * se

    def test_deterministic_per_seed(self):
        data = make_blobs(30, seed=1)
        p1 = gen_uniform(data, 3, spawn_rng(7, 0), size_range=(1, 10))
        p2 = gen_uniform(data, 3, spawn_rng(7, 0), size_range=(1, 10))
        assert p1 == p2

    def test_overflow_and_bad_ranges(self):
        data = make_blobs(30, seed=1)
        with pytest.raises(SizeOverflow):
            gen_uniform(data, 2, spawn_rng(0), size_range=(1, 31))
        with pytest.raises(MalformedInput):
            gen_uniform(data, 2, spawn_rng(0), size_range=(0, 5))
        with pytest.raises(MalformedInput):
            gen_uniform(data, 2, spawn_rng(0), size_range=(4, 2))


class TestZipfianAllocation:
    def test_designated_and_filler_sizes(self):
        data = make_blobs(100, seed=4)
        p = gen_zipfian(data, 5, spawn_rng(1, 0), a=3, k1=2, k2=0, k_max=4)
        assert len(p.entries("A")) == 9
        assert len(p.entries("B")) == 1
        fillers = [o for o in p.owner_ids() if o not in ("A", "B")]
        assert fillers == ["O2", "O3", "O4"]
        assert all(len(p.entries(o)) in (1, 3, 9, 27, 81) for o in fillers)

    def test_deterministic_per_seed(self):
        data = make_blobs(100, seed=4)
        kw = dict(a=2, k1=3, k2=1, k_max=5)
        assert gen_zipfian(data, 4, spawn_rng(2, 0), **kw) == gen_zipfian(
            data, 4, spawn_rng(2, 0), **kw
        )

    def test_overflow_when_largest_owner_exceeds_rows(self):
        data = make_blobs(50, seed=4)
        with pytest.raises(SizeOverflow):
            gen_zipfian(data, 3, spawn_rng(0), a=3, k1=1, k2=1, k_max=4)

    def test_bad_parameters(self):
        data = make_blobs(100, seed=4)
        with pytest.raises(MalformedInput):
            gen_zipfian(data, 1, spawn_rng(0), a=3, k1=0, k2=0, k_max=2)
        with pytest.raises(MalformedInput):
            gen_zipfian(data, 3, spawn_rng(0), a=3, k1=5, k2=0, k_max=2)
        with pytest.raises(MalformedInput):
            gen_zipfian(data, 3, spawn_rng(0), a=1, k1=0, k2=0, k_max=2)


class TestNaturalAllocation:
    def test_groups_become_owners(self, booking_dataset):
        p = gen_natural(booking_dataset)
        assert p.owner_ids() == tuple(f"{m:02d}" for m in range(1, 13))
        for idx, month in enumerate(p.owner_ids()):
            assert len(p.entries(month)) == MONTH_SIZES[idx]
        # Exact partition: disjoint owners covering every row.
        assert sum(len(p.entries(o)) for o in p.owner_ids()) == len(booking_dataset)
        assert len(p.universe()) == len(booking_dataset)

    def test_needs_group_column(self):
        with pytest.raises(MalformedInput):
            gen_natural(make_blobs(20, seed=0))


class TestVerticalAllocation:
    def test_feature_groups(self, housing_dataset):
        p = gen_vertical(housing_dataset, VERTICAL_GROUPS)
        assert set(p.owner_ids()) == {"P", "G", "S"}
        assert p.entries("P") == frozenset(
            {BOSTON_FEATURES.index("RM"), BOSTON_FEATURES.index("AGE")}
        )
        assert len(p.universe()) == len(BOSTON_FEATURES)
        assert sum(len(p.entries(o)) for o in p.owner_ids()) == len(BOSTON_FEATURES)

    def test_unknown_feature_rejected(self, housing_dataset):
        with pytest.raises(MalformedInput):
            gen_vertical(housing_dataset, {"P": ["RM", "NOPE"], "Q": ["AGE"]})

    def test_duplicate_feature_rejected(self, housing_dataset):
        groups = dict(VERTICAL_GROUPS, X=["RM"])
        with pytest.raises(MalformedInput):
            gen_vertical(housing_dataset, groups)

    def test_uncovered_feature_rejected(self, housing_dataset):
        with pytest.raises(MalformedInput):
            gen_vertical(housing_dataset, {"P": ["RM"], "Q": ["AGE"]})


def base_config(**over):
    cfg = {
        "utility": {"kind": "additive", "weights": {str(i): 1.0 + i for i in range(8)}},
        "engines": ["bf"],
        "n_owners": 3,
        "allocation": {"kind": "uniform", "size_range": [1, 6]},
        "trials": 2,
        "seed": 11,
    }
    cfg.update(over)
    return cfg


class TestExperimentConfig:
    def test_defaults_and_file_round_trip(self, tmp_path):
        raw = {
            "utility": {"kind": "additive", "weights": {"0": 1.0, "1": 2.0}},
            "engines": ["bf", "mc"],
            "allocation": {"kind": "uniform"},
            "trials": 3,
            "seed": 5,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        cfg = ExperimentConfig.from_json(path)
        assert cfg == ExperimentConfig.from_json(raw)
        assert cfg.engines == ("bf", "mc")
        assert cfg.n_owners == 2
        assert cfg.test_ratio == 0.2
        assert cfg.pair == {} and cfg.sampling == {}

    def test_missing_keys_rejected(self):
        for key in ("utility", "engines", "allocation", "trials", "seed"):
            raw = base_config()
            del raw[key]
            with pytest.raises(MalformedInput):
                ExperimentConfig.from_json(raw)

    def test_bad_values_rejected(self):
        with pytest.raises(MalformedInput):
            ExperimentConfig.from_json(base_config(engines=["warp"]))
        with pytest.raises(MalformedInput):
            ExperimentConfig.from_json(base_config(engines=[]))
        with pytest.raises(MalformedInput):
            ExperimentConfig.from_json(base_config(trials=-1))
        with pytest.raises(MalformedInput):
            ExperimentConfig.from_json([1, 2, 3])
        for bad in (
            {"pair": {"mode": "desginated", "a": "O0", "b": "O1"}},
            {"utility": "kde"},
            {"trials": "x"},
            {"engines": 5},
            {"allocation": {"kind": "uniform", "size_range": "ab"}},
            {"allocation": {"kind": "uniform", "size_range": [1]}},
            {"allocation": {"kind": "uniform", "size_range": [1, "6"]}},
            {"allocation": {"kind": "uniform", "size_range": [1.5, 6]}},
        ):
            with pytest.raises(MalformedInput):
                ExperimentConfig.from_json(base_config(**bad))
        zipfian = {"kind": "zipfian", "a": 2, "k1": 1, "k2": 0, "k_max": 2}
        for bad in (
            {"n_owners": 5.7},
            {"trials": 2.5},
            {"trials": True},
            {"seed": 1.5},
            {"seed": -1},
            *({"allocation": {**zipfian, key: "x"}} for key in ("a", "k1", "k2", "k_max")),
            {"utility": {"kind": "additive", "weights": {"0": "x"}}},
            {"utility": {"kind": "additive", "weights": {"a": 1}}},
        ):
            with pytest.raises(MalformedInput):
                run_experiment(ExperimentConfig.from_json(base_config(**bad)))
        for sampling in (
            {"delta": 1.5},
            {"delta": 0.0},
            {"delta": "high"},
            {"timeout": "x"},
            {"timeout": -1.0},
            {"epsilon": "x"},
            {"epsilon": -0.1},
            {"width_stop": math.nan},
            {"bf_entry_limit": "20"},
            {"check_budget": -1},
            {"check_budget": True},
            {"verify_budget": 0},
            {"arm_budget": 0},
            {"bandit_budget": 0},
            {"pair_budget": 0},
            {"pair_budget": "800"},
            {"pair_budget": None},
        ):
            with pytest.raises(MalformedInput):
                ExperimentConfig.from_json(base_config(sampling=sampling)).explain_config()

    def test_engines_must_be_a_list_of_distinct_names(self):
        # a string is not a list of its letters, a mapping not a list of its keys,
        # and an engine named twice would run twice
        for engines in ("svexp", {"bf": 1}, ["bf", "bf"], [["bf"]], []):
            with pytest.raises(MalformedInput, match="engines"):
                ExperimentConfig.from_json(base_config(engines=engines))

    def test_sampling_whitelist(self):
        cfg = ExperimentConfig.from_json(
            base_config(sampling={"check_budget": 500, "width_stop": 0.1, "pair_budget": 100})
        )
        ecfg = cfg.explain_config()
        assert ecfg.check_budget == 500
        assert ecfg.width_stop == 0.1
        assert ecfg.epsilon == 0.01
        assert cfg.pair_budget == 100
        assert ecfg == ExplainConfig(check_budget=500, width_stop=0.1)

    def test_unknown_sampling_key_rejected(self):
        # Batch sizes, posterior draws and limits are fixed in the library: naming
        # one is an error even at its fixed value.
        for key, value in (
            ("wobble", 3),
            ("batch", 64),
            ("seed_batch", 8),
            ("bandit_batch", 32),
            ("posterior_draws", 256),
            ("owner_limit", 12),
            ("pair_redraws", 10),
        ):
            cfg = ExperimentConfig.from_json(base_config(sampling={key: value}))
            with pytest.raises(MalformedInput, match=rf"unknown sampling keys \['{key}'\]"):
                cfg.explain_config()

    def test_readme_lists_the_sampling_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        bullet = re.search(r"^- `sampling` (.*?)\n(?!  )", readme, re.M | re.S).group(1)
        named = set(re.findall(r"`(\w+)`", bullet)) - {"MalformedInput", "null"}
        assert named == {f.name for f in fields(ExplainConfig)} | {"pair_budget"}

    def test_pair_budget_defaults_to_check_budget(self):
        cfg = ExperimentConfig.from_json(base_config(sampling={"check_budget": 777}))
        assert cfg.pair_budget == 777


class TestRunExperiment:
    def test_zero_trials(self, tmp_path):
        cfg = ExperimentConfig.from_json(base_config(trials=0))
        result = run_experiment(cfg)
        assert result.records == []
        assert result.summary["n_records"] == 0
        assert result.summary["engines"]["bf"]["trials"] == 0
        assert result.summary["engines"]["bf"]["success_rate"] is None
        paths = write_outputs(result, tmp_path)
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "timings.json").exists()
        assert all(p.exists() for p in paths)

    def test_smoke_statuses_and_record_shape(self):
        cfg = ExperimentConfig.from_json(
            base_config(
                engines=["bf", "mc", "svexp"],
                trials=3,
                sampling={"check_budget": 2000, "pair_budget": 1500},
            )
        )
        result = run_experiment(cfg)
        assert len(result.records) == 3 * 3
        known = {"ok", "precondition_not_met", "precondition_undecided", "timeout"}
        for rec in result.records:
            assert rec.status in known
            assert rec.engine in ("bf", "mc", "svexp")
            assert rec.a != rec.b
            assert rec.size == len(rec.delta_entries)
            assert tuple(sorted(rec.delta_entries)) == rec.delta_entries
            assert rec.runtime_s >= 0.0
        # The pair selector orients each trial, so an exact engine that
        # completed must have seen a positive starting differential.
        for rec in result.records:
            if rec.engine == "bf" and rec.status == "ok":
                assert rec.initial_diff > 0.0

    def test_outputs_byte_identical_across_reruns(self, tmp_path):
        raw = base_config(
            engines=["bf", "mc", "svexp"],
            trials=3,
            sampling={"check_budget": 2000, "pair_budget": 1500},
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        write_outputs(run_experiment(ExperimentConfig.from_json(raw)), out1)
        write_outputs(run_experiment(ExperimentConfig.from_json(raw)), out2)
        for name in ("trials.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_trials_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_json(base_config(trials=2))
        result = run_experiment(cfg)
        write_outputs(result, tmp_path)
        with (tmp_path / "trials.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "cell", "trial", "engine", "a", "b", "status", "size", "success",
            "timed_out", "budget_exhausted", "samples_used", "subsets_tested",
            "initial_diff", "initial_half_width", "delta_entries",
        ]
        assert len(rows) == 1 + len(result.records)
        first = dict(zip(rows[0], rows[1]))
        assert float(first["initial_diff"]) == result.records[0].initial_diff
        assert first["engine"] == result.records[0].engine

    def test_timings_are_separate(self, tmp_path):
        cfg = ExperimentConfig.from_json(base_config(trials=1))
        write_outputs(run_experiment(cfg), tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert "note" in timings
        assert len(timings["trials"]) == 1
        assert timings["trials"][0]["runtime_s"] >= 0.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "runtime" not in json.dumps(summary)


def zipf_grid_config(trials=2):
    return ExperimentConfig.from_json(
        {
            "utility": {"kind": "additive", "weights": {str(i): 1.0 + i for i in range(8)}},
            "engines": ["bf"],
            "n_owners": 3,
            "allocation": {"kind": "zipfian", "a": 2, "k_max": 2, "grid": True},
            "trials": trials,
            "seed": 23,
        }
    )


class TestGridRuns:
    def test_zipfian_grid_cells_and_tables(self, tmp_path):
        result = run_experiment(zipf_grid_config())
        cells = {r.cell for r in result.records}
        assert cells == {f"k{i}-k{j}" for i in range(3) for j in range(3)}
        assert result.grid_axes == (["k0", "k1", "k2"], ["k0", "k1", "k2"])
        tables = result.grids["bf"]
        assert set(tables) == {"size", "success"}
        assert len(tables["size"]) == 3 and len(tables["size"][0]) == 3
        assert result.summary["pairwise"]["tables"]["bf"]["size"] == tables["size"]
        paths = write_outputs(result, tmp_path)
        assert (tmp_path / "pairwise_bf_size.csv").exists()
        assert (tmp_path / "pairwise_bf_success.csv").exists()
        with (tmp_path / "pairwise_bf_size.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "k0", "k1", "k2"]
        assert [r[0] for r in rows[1:]] == ["k0", "k1", "k2"]
        assert len(paths) == 5

    def test_grid_pair_mode_on_natural_allocation(self, booking_dataset):
        # Three months, each with one heavy row (its first), later months
        # heavier: the heavier month of a pair flips by giving up that row.
        sizes = MONTH_SIZES[:3]
        subset = booking_dataset.take(range(sum(sizes)))
        weights = {str(i): 0.01 for i in range(len(subset))}
        weights.update({"0": 1.0, str(sizes[0]): 2.0, str(sizes[0] + sizes[1]): 4.0})
        cfg = ExperimentConfig.from_json(
            {
                "utility": {"kind": "additive", "weights": weights},
                "engines": ["mc"],
                "allocation": {"kind": "natural"},
                "pair": {"mode": "grid"},
                "trials": 1,
                "seed": 41,
                "sampling": {"check_budget": 300, "pair_budget": 300},
            }
        )
        result = run_experiment(cfg, datasets=(subset, subset.take(range(5))))
        months = ["01", "02", "03"]
        cells = [f"{a}->{b}" for a in months for b in months if a != b]
        assert [rec.cell for rec in result.records] == cells
        for rec in result.records:
            assert rec.cell == f"{rec.a}->{rec.b}"
            if rec.a > rec.b:
                assert rec.status == "ok" and rec.success and rec.size == 1
            else:
                assert rec.status == "precondition_not_met"
        assert result.grid_axes == (months, months)


def run_watching_memo(cfg, monkeypatch, datasets=None, clear=True):
    """run_experiment's oracle, the memo size at each clear_cache call, and
    each explanation's partition; clear=False leaves the memo as it is."""
    oracles, cleared, partitions = [], [], []
    real_make, real_clear, real_explain = harness.make_oracle, UtilityOracle.clear_cache, harness.explain

    def make_oracle(*args, **kwargs):
        oracles.append(real_make(*args, **kwargs))
        return oracles[-1]

    def clear_cache(self):
        cleared.append(len(self._cache))
        if clear:
            real_clear(self)

    def explain(engine, partition, *args, **kwargs):
        partitions.append(partition)
        return real_explain(engine, partition, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(harness, "make_oracle", make_oracle)
        m.setattr(UtilityOracle, "clear_cache", clear_cache)
        m.setattr(harness, "explain", explain)
        run_experiment(cfg, datasets=datasets)
    return oracles[0], cleared, partitions


class TestOracleMemoLifetime:
    @pytest.mark.parametrize(
        "allocation",
        [
            {"kind": "uniform", "size_range": [2, 4]},
            {"kind": "zipfian", "a": 2, "k1": 2, "k2": 1, "k_max": 3},
        ],
    )
    def test_drawn_partitions_empty_the_memo_every_trial(self, allocation, monkeypatch):
        weights = {str(i): 1.0 + i % 7 for i in range(40)}
        cfg = ExperimentConfig.from_json(
            base_config(
                utility={"kind": "additive", "weights": weights},
                engines=["mc"],
                n_owners=4,
                allocation=allocation,
                trials=4,
            )
        )
        oracle, cleared, partitions = run_watching_memo(cfg, monkeypatch)
        assert len(partitions) == 4
        # Once per trial; only the first trial finds the memo empty.
        assert len(cleared) == 4
        assert cleared[0] == 0 and all(cleared[1:])
        # What is left are coalitions of the last trial's partition (and of
        # its transfers, which keep its entries), none of an earlier one.
        last = partitions[-1].universe()
        assert oracle._cache and all(key <= last for key in oracle._cache)
        assert not all(p.universe() <= last for p in partitions[:-1])

    def test_a_natural_grid_keeps_its_memo(self, booking_dataset, monkeypatch):
        sizes = MONTH_SIZES[:3]
        subset = booking_dataset.take(range(sum(sizes)))
        weights = {str(i): 0.01 for i in range(len(subset))}
        weights.update({"0": 1.0, str(sizes[0]): 2.0, str(sizes[0] + sizes[1]): 4.0})
        cfg = ExperimentConfig.from_json(
            {
                "utility": {"kind": "additive", "weights": weights},
                "engines": ["mc"],
                "allocation": {"kind": "natural"},
                "pair": {"mode": "grid"},
                "trials": 2,
                "seed": 41,
                "sampling": {"check_budget": 300, "pair_budget": 300},
            }
        )
        datasets = (subset, subset.take(range(5)))
        oracle, cleared, partitions = run_watching_memo(cfg, monkeypatch, datasets)
        assert len(partitions) == 6 * 2
        # Every trial of every cell rebuilds the same partition: the memo is
        # emptied only before the first trial, when it holds nothing.
        assert cleared == [0]
        kept, _, _ = run_watching_memo(cfg, monkeypatch, datasets, clear=False)
        assert oracle.evals == kept.evals


class TestDataBackedRuns:
    def test_natural_allocation_designated_pair(self, booking_dataset):
        # Two months, one dominant row: both sampling engines should move
        # exactly that row.
        subset = booking_dataset.take(range(62))
        weights = {str(i): 0.1 for i in range(62)}
        weights["25"] = 30.0
        cfg = ExperimentConfig.from_json(
            {
                "utility": {"kind": "additive", "weights": weights},
                "engines": ["mc", "svexp"],
                "allocation": {"kind": "natural"},
                "pair": {"mode": "designated", "a": "02", "b": "01"},
                "trials": 2,
                "seed": 31,
                "sampling": {"check_budget": 1500},
            }
        )
        result = run_experiment(cfg, datasets=(subset, subset.take(range(5))))
        assert len(result.records) == 4
        for rec in result.records:
            assert rec.status == "ok" and rec.success
            assert rec.a == "02" and rec.b == "01"
            assert rec.delta_entries == (25,)
        assert result.summary["agreement"]["mc|svexp"] == 1.0
        assert result.summary["engines"]["svexp"]["sizes"]["mean"] == 1.0

    def test_vertical_allocation_with_model_utility(self, housing_dataset):
        train, test = split_dataset(housing_dataset, 0.25, spawn_rng(0, 0))
        cfg = ExperimentConfig.from_json(
            {
                "utility": {"kind": "linreg", "axis": "features"},
                "engines": ["bf"],
                "allocation": {"kind": "vertical", "groups": VERTICAL_GROUPS},
                "pair": {"mode": "random"},
                "trials": 1,
                "seed": 13,
                "sampling": {"check_budget": 512, "pair_budget": 512},
            }
        )
        result = run_experiment(cfg, datasets=(train, test))
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.status in ("ok", "precondition_not_met", "precondition_undecided")
        assert {rec.a, rec.b} <= {"P", "G", "S"}
        if rec.status == "ok" and rec.success:
            assert rec.size >= 1
            assert all(0 <= e < len(BOSTON_FEATURES) for e in rec.delta_entries)


class TestRunErrors:
    def test_data_backed_utility_needs_data_file(self):
        cfg = ExperimentConfig.from_json(base_config(utility={"kind": "kde"}))
        with pytest.raises(MalformedInput):
            run_experiment(cfg)

    def test_natural_allocation_needs_data(self):
        cfg = ExperimentConfig.from_json(base_config(allocation={"kind": "natural"}))
        with pytest.raises(MalformedInput):
            run_experiment(cfg)

    def test_unknown_allocation_kind(self):
        cfg = ExperimentConfig.from_json(base_config(allocation={"kind": "mystery"}))
        with pytest.raises(MalformedInput):
            run_experiment(cfg)

    def test_vertical_needs_groups_object(self, housing_dataset):
        train, test = split_dataset(housing_dataset, 0.25, spawn_rng(0, 0))
        cfg = ExperimentConfig.from_json(
            base_config(
                utility={"kind": "linreg", "axis": "features"},
                allocation={"kind": "vertical"},
            )
        )
        with pytest.raises(MalformedInput):
            run_experiment(cfg, datasets=(train, test))

    @pytest.mark.parametrize("key", ["data", "test_data"])
    @pytest.mark.parametrize("path", [5, 1.5, True, ["x.csv"], {"path": "x.csv"}])
    def test_non_string_data_paths_are_rejected(self, key, path):
        with pytest.raises(MalformedInput, match=f"bad '{key}'"):
            ExperimentConfig.from_json(base_config(**{key: path}))

    def test_null_data_paths_mean_none(self):
        cfg = ExperimentConfig.from_json(base_config(data=None, test_data=None))
        assert (cfg.data, cfg.test_data) == (None, None)

    @pytest.mark.parametrize("name", ["nope.csv", ".", "latin1.csv"])
    def test_unreadable_data_files_are_rejected(self, tmp_path, name):
        (tmp_path / "latin1.csv").write_bytes("x,y\n1.0,caf\xe9\n".encode("latin-1"))
        path = tmp_path / name
        cfg = ExperimentConfig.from_json(base_config(utility={"kind": "kde"}, data=str(path)))
        with pytest.raises(MalformedInput, match=re.escape(f"{path}: cannot read the file")):
            run_experiment(cfg)
        with pytest.raises(MalformedInput, match=re.escape(f"{path}: cannot read the file")):
            harness.load_csv(path)

    def test_grid_pair_mode_checks_vertical_groups(self, housing_dataset):
        train, test = split_dataset(housing_dataset, 0.25, spawn_rng(0, 0))
        cfg = ExperimentConfig.from_json(
            base_config(
                utility={"kind": "linreg", "axis": "features"},
                allocation={"kind": "vertical", "groups": ["CRIM", "ZN"]},
                pair={"mode": "grid"},
            )
        )
        with pytest.raises(MalformedInput, match='"groups" object'):
            run_experiment(cfg, datasets=(train, test))

    def test_zipfian_grid_needs_k_max_at_least_0(self):
        with pytest.raises(MalformedInput, match=re.escape("allocation k_max=-1 (need an integer >= 0)")):
            ExperimentConfig.from_json(
                base_config(allocation={"kind": "zipfian", "grid": True, "k_max": -1}, n_owners=2)
            )

    def test_grid_pair_mode_needs_group_allocation(self):
        cfg = ExperimentConfig.from_json(base_config(pair={"mode": "grid"}))
        with pytest.raises(MalformedInput):
            run_experiment(cfg)


class TestLoadPartition:
    def test_integer_ids_are_read(self, tmp_path):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps({"owners": {"A": [0, 1], "B": [2], "C": []}}))
        for source in (path, str(path), json.loads(path.read_text())):
            assert load_partition(source).owners == {"A": {0, 1}, "B": {2}, "C": frozenset()}

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None, [1]])
    def test_non_integer_ids_are_rejected(self, bad):
        with pytest.raises(MalformedInput, match="owner 'A': entry ids must be integers"):
            load_partition({"owners": {"A": [0, bad], "B": [2]}})


class TestBenchmarkContract:
    """What perfbench/ reaches into: the names its tracer wraps and the dispatch it spies on."""

    def test_the_tracer_wraps_names_that_exist_and_restores_them(self):
        path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install()  # a wrapped name that is gone raises here
        wrapped = list(tracer._restore)
        try:
            assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
            run_experiment(ExperimentConfig.from_json(base_config(engines=["bf", "mc"])))
        finally:
            tracer.close()
        assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
        names = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in wrapped}
        assert {("shapcf.harness", "explain"), ("shapcf.harness", "is_flipped"),
                ("shapcf.explain", "diff_shapley_exact")} <= names
        assert sum(span.name == "explain.request" for span in tracer.spans) == 4

    def test_dispatch_gets_the_pair_positionally_with_a_over_b(self, monkeypatch):
        calls = []
        explain = harness.explain

        def spy(*args, **kwargs):
            calls.append(args)
            return explain(*args, **kwargs)

        monkeypatch.setattr(harness, "explain", spy)
        cfg = ExperimentConfig.from_json(base_config(engines=["bf", "mc", "svexp"], n_owners=4, trials=3))
        records = run_experiment(cfg).records
        assert len(calls) == len(records) == 9
        for args, rec in zip(calls, records):
            engine, partition, oracle, a, b = args[:5]
            assert (engine, a, b) == (rec.engine, rec.a, rec.b)
            assert isinstance(partition, OwnerPartition) and isinstance(oracle, UtilityOracle)
            assert diff_shapley_exact(partition, oracle, a, b) > 0.0
