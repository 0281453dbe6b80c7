"""Experiment harness: allocation generators, config parsing, trial runs."""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from shapcf import harness
from shapcf.core import COUNT_RULE, MalformedInput, OwnerPartition, SizeOverflow, TooLarge, spawn_rng
from shapcf.datasets import Dataset, load_partition, split_dataset
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

from conftest import BOSTON_FEATURES, MONTH_SIZES, make_blobs, on_memo_path, serve_datasets

explain_module = importlib.import_module("shapcf.explain")

VERTICAL_GROUPS = {
    "P": ["RM", "AGE"],
    "G": ["CHAS", "NOX", "DIS", "RAD"],
    "S": ["CRIM", "B", "ZN", "INDUS", "TAX", "PTRATIO", "LSTAT"],
}


class TestUniformAllocation:
    def test_bounds_names_and_membership(self):
        rows = range(30)
        p = gen_uniform(rows, 4, spawn_rng(0, 1), size_range=(2, 5))
        assert p.owner_ids() == ("O0", "O1", "O2", "O3")
        for o in p.owner_ids():
            ents = p.entries(o)
            assert 2 <= len(ents) <= 5
            assert all(0 <= e < 30 for e in ents)

    def test_default_range_spans_all_rows(self):
        rows = range(455)
        sizes = []
        rng = spawn_rng(3, 1)
        for _ in range(1000):
            p = gen_uniform(rows, 2, rng)
            sizes += [len(p.entries(o)) for o in p.owner_ids()]
        assert min(sizes) >= 1 and max(sizes) <= 455
        # Uniform sizes on [1, 455]: the sample mean stays within 4 standard
        # errors of 228.
        se = 455 / np.sqrt(12) / np.sqrt(len(sizes))
        assert abs(np.mean(sizes) - 228.0) <= 4 * se

    def test_deterministic_per_seed(self):
        rows = range(30)
        p1 = gen_uniform(rows, 3, spawn_rng(7, 0), size_range=(1, 10))
        p2 = gen_uniform(rows, 3, spawn_rng(7, 0), size_range=(1, 10))
        assert p1 == p2

    def test_overflow_and_bad_ranges(self):
        rows = range(30)
        with pytest.raises(SizeOverflow):
            gen_uniform(rows, 2, spawn_rng(0), size_range=(1, 31))
        with pytest.raises(MalformedInput):
            gen_uniform(rows, 2, spawn_rng(0), size_range=(0, 5))
        with pytest.raises(MalformedInput):
            gen_uniform(rows, 2, spawn_rng(0), size_range=(4, 2))


class TestZipfianAllocation:
    def test_designated_and_filler_sizes(self):
        rows = range(100)
        p = gen_zipfian(rows, 5, spawn_rng(1, 0), a=3, k1=2, k2=0, k_max=4)
        assert len(p.entries("A")) == 9
        assert len(p.entries("B")) == 1
        fillers = [o for o in p.owner_ids() if o not in ("A", "B")]
        assert fillers == ["O2", "O3", "O4"]
        assert all(len(p.entries(o)) in (1, 3, 9, 27, 81) for o in fillers)

    def test_deterministic_per_seed(self):
        rows = range(100)
        kw = dict(a=2, k1=3, k2=1, k_max=5)
        assert gen_zipfian(rows, 4, spawn_rng(2, 0), **kw) == gen_zipfian(
            rows, 4, spawn_rng(2, 0), **kw
        )

    def test_overflow_when_largest_owner_exceeds_rows(self):
        rows = range(50)
        with pytest.raises(SizeOverflow):
            gen_zipfian(rows, 3, spawn_rng(0), a=3, k1=1, k2=1, k_max=4)

    def test_bad_parameters(self):
        rows = range(100)
        with pytest.raises(MalformedInput):
            gen_zipfian(rows, 1, spawn_rng(0), a=3, k1=0, k2=0, k_max=2)
        with pytest.raises(MalformedInput):
            gen_zipfian(rows, 3, spawn_rng(0), a=3, k1=5, k2=0, k_max=2)
        with pytest.raises(MalformedInput):
            gen_zipfian(rows, 3, spawn_rng(0), a=1, k1=0, k2=0, k_max=2)


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

    @pytest.mark.parametrize("value", ["B", 5, None, [["B"]], {"B": 1}], ids=["str", "int", "null", "nested", "dict"])
    def test_group_must_be_a_list_of_names(self, housing_dataset, value):
        # A string is not a list of its letters: "B" would take feature B.
        rest = {**VERTICAL_GROUPS, "S": [n for n in VERTICAL_GROUPS["S"] if n != "B"]}
        with pytest.raises(MalformedInput, match="group 'X' must be a list of feature names"):
            gen_vertical(housing_dataset, {**rest, "X": value})


def readme_table(heading: str) -> list[list[str]]:
    """The body rows of the table under README's `heading`, each a list of its cells."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in row] for row in rows[1:]]  # rows[0] is the header


def listed_default(cell: str) -> str:
    """A README default cell's value: "required", or the text in its first backticks."""
    return cell if cell == "required" else re.match(r"`([^`]+)`", cell).group(1)


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
                ExperimentConfig.from_json(base_config(sampling=sampling))
        # A misspelt key, or one the allocation kind or pair mode does not
        # read, is named, not run with its default or left unread.
        for bad, key in (
            ({"n_owner": 5}, "n_owner"),
            ({"allocation": {"kind": "uniform", "sise_range": [1, 2]}}, "sise_range"),
            ({"allocation": {**zipfian, "kmax": 2}}, "kmax"),
            ({"pair": {"mode": "designated", "a": "O0", "B": "O1"}}, "B"),
            ({"pair": {"a": "O0"}}, "a"),
            ({"pair": {"mode": "random", "b": "O1"}}, "b"),
            ({"allocation": {"kind": "uniform", "size_range": [1, 6], "k_max": 2}}, "k_max"),
            ({"allocation": {"kind": "uniform", "grid": True}}, "grid"),
            ({"allocation": {**zipfian, "size_range": [1, 6]}}, "size_range"),
            ({"allocation": {"kind": "zipfian", "a": 2, "k_max": 2, "grid": True, "k1": 1}}, "k1"),
        ):
            with pytest.raises(MalformedInput, match=f"unknown .*keys \\['{key}'\\]"):
                ExperimentConfig.from_json(base_config(**bad))

    def test_allocation_must_be_an_object(self):
        pairs = [["kind", "zipfian"], ["a", 2], ["k1", 1], ["k2", 0], ["k_max", 2]]
        with pytest.raises(MalformedInput, match="bad 'allocation'"):
            ExperimentConfig.from_json(base_config(allocation=pairs))

    @pytest.mark.parametrize("key, value", [("check_budget", 0), ("bogus", 1), ("pair_budget", 0), ("delta", 2)])
    def test_bad_sampling_rejected_before_any_run(self, key, value):
        with pytest.raises(MalformedInput, match="sampling"):
            ExperimentConfig.from_json(base_config(sampling={key: value}))

    def test_sampling_must_be_an_object(self):
        with pytest.raises(MalformedInput, match="bad 'sampling'"):
            ExperimentConfig.from_json(base_config(sampling=[["check_budget", 10]]))

    def test_test_ratio_must_be_a_number(self):
        with pytest.raises(MalformedInput, match="bad 'test_ratio'"):
            ExperimentConfig.from_json(base_config(test_ratio="0.25"))

    def test_grid_must_be_a_boolean(self):
        zipfian = {"kind": "zipfian", "a": 2, "k1": 1, "k2": 0, "k_max": 2}
        for grid in ("false", 1):
            with pytest.raises(MalformedInput, match="allocation grid="):
                ExperimentConfig.from_json(base_config(allocation={**zipfian, "grid": grid}))
        result = run_experiment(ExperimentConfig.from_json(base_config(allocation={**zipfian, "grid": False})))
        assert {r.cell for r in result.records} == {""}
        assert result.grid_axes is None

    def test_engines_must_be_a_list_of_distinct_names(self):
        # a string is not a list of its letters, a mapping not a list of its keys,
        # and an engine named twice would run twice
        for engines in ("svexp", {"bf": 1}, ["bf", "bf"], [["bf"]], []):
            with pytest.raises(MalformedInput, match="engines"):
                ExperimentConfig.from_json(base_config(engines=engines))

    def test_sampling_whitelist(self):
        cfg = ExperimentConfig.from_json(
            base_config(sampling={"check_budget": 500, "arm_budget": 300, "pair_budget": 100})
        )
        ecfg = cfg.explain_config
        assert ecfg.check_budget == 500
        assert ecfg.arm_budget == 300
        assert ecfg.epsilon == 0.01
        assert cfg.pair_budget == 100
        assert ecfg == ExplainConfig(check_budget=500, arm_budget=300)

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
            ("width_stop", 0.01),
            ("bf_entry_limit", 20),
        ):
            with pytest.raises(MalformedInput, match=rf"unknown sampling keys \['{key}'\]"):
                ExperimentConfig.from_json(base_config(sampling={key: value}))

    def test_readme_lists_the_sampling_keys(self):
        rows = readme_table("#### Sampling")
        listed = {key.strip("`"): listed_default(default) for key, _, default, _ in rows}
        # Unless set, pair_budget is check_budget's value (test_pair_budget_defaults_to_check_budget).
        assert listed == {f.name: json.dumps(f.default) for f in fields(ExplainConfig)} | {"pair_budget": "check_budget"}
        for key, need, _, _ in rows:
            assert need.startswith(explain_module._SAMPLING_RULES.get(key.strip("`"), COUNT_RULE)[0]), key

    def test_readme_lists_the_top_level_keys(self):
        listed = {key.strip("`"): listed_default(default) for key, _, default in readme_table("#### Top-level keys")}
        assert listed == {
            f.name: "required" if f.default is f.default_factory is MISSING
            else json.dumps(f.default_factory() if f.default is MISSING else f.default)
            for f in fields(ExperimentConfig)
            if f.init
        }

    def test_readme_lists_the_allocation_keys(self):
        rows = readme_table("#### Allocation")
        listed = {(kind.strip("`"), key.strip("`")): listed_default(default) for kind, key, _, default in rows}
        # A generated kind's defaults are its generator's; a grid is on only when true.
        gens = harness._GENERATORS
        assert listed == {
            (kind, key): "false" if key == "grid" else json.dumps(gens[kind].__kwdefaults__[key]) if kind in gens
            else "required"
            for kind, keys in harness._ALLOCATION_KEYS.items()
            for key in keys
        }
        for _, key, need, _ in rows:
            if key.strip("`") in harness._ALLOCATION_RULES:
                assert need.startswith(harness._ALLOCATION_RULES[key.strip("`")][0]), key

    def test_readme_lists_the_pair_modes(self):
        listed = {
            json.loads(mode.strip("`")): {
                key: json.loads(default) for key, default in re.findall(r"`(\w+)` \(default `([^`]+)`\)", keys)
            }
            for mode, keys, _ in readme_table("#### Pair")
        }
        assert listed == harness.PAIR_MODES

    def test_pair_budget_defaults_to_check_budget(self):
        cfg = ExperimentConfig.from_json(base_config(sampling={"check_budget": 777}))
        assert cfg.pair_budget == 777

    @pytest.mark.parametrize(
        "over, named",
        [
            ({"engines": ("bogus",)}, "engines"),
            ({"engines": ()}, "engines"),
            ({"trials": -3}, "trials=-3"),
            ({"n_owners": "5"}, "n_owners='5'"),
            ({"allocation": {"kind": "uniform", "size_rnage": [1, 6]}}, "size_rnage"),
            ({"pair": {"mode": "sideways"}}, "sideways"),
        ],
    )
    def test_direct_construction_applies_the_same_checks(self, over, named):
        kwargs = {**base_config(), "engines": ("bf",)}
        assert ExperimentConfig(**kwargs) == ExperimentConfig.from_json(base_config())
        with pytest.raises(MalformedInput, match=re.escape(named)):
            ExperimentConfig(**{**kwargs, **over})

    @pytest.mark.parametrize("key", ["explain_config", "pair_budget", "pair_mode"])
    def test_a_resolved_field_is_no_config_key(self, key):
        assert hasattr(ExperimentConfig.from_json(base_config()), key)
        with pytest.raises(MalformedInput, match=rf"unknown experiment config keys \['{key}'\]"):
            ExperimentConfig.from_json(base_config(**{key: 5}))

    def test_the_pair_mode_is_resolved_once(self):
        zipfian = {"kind": "zipfian", "a": 2, "k1": 1, "k2": 0, "k_max": 2}
        assert ExperimentConfig.from_json(base_config()).pair_mode == "random"
        assert ExperimentConfig.from_json(base_config(allocation=zipfian)).pair_mode == "designated"
        cfg = ExperimentConfig.from_json(base_config(allocation=zipfian, pair={"mode": "random"}))
        assert cfg.pair_mode == "random"

    def test_sampling_is_parsed_once_when_the_config_is_built(self, monkeypatch):
        built = []

        class Counted(ExplainConfig):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(harness, "ExplainConfig", Counted)
        cfg = ExperimentConfig.from_json(base_config(allocation={"kind": "zipfian", "a": 2, "k_max": 2, "grid": True}))
        assert len(built) == 1
        run_experiment(cfg)  # nine grid cells
        assert len(built) == 1


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

    def test_timings_are_separate(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_json(base_config(trials=1))
        write_outputs(run_experiment(cfg), tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert "note" in timings
        assert len(timings["trials"]) == 1
        assert timings["trials"][0]["runtime_s"] >= 0.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "runtime" not in json.dumps(summary) and "select_pairs" not in json.dumps(summary)
        # Pair selection is timed once per window, not split across its
        # trials, and total_s counts it: 18 logistic trials run in windows
        # of 16 and 2.
        serve_datasets(monkeypatch, logistic_data())
        write_outputs(run_experiment(ExperimentConfig.from_json(logistic_config(engines=["bf"]))), tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        windows = timings["windows"]
        assert [w["trials"] for w in windows] == [list(range(16)), [16, 17]]
        assert all(w["cell"] == "" and w["select_pairs_s"] > 0.0 for w in windows)
        engines = sum(t["runtime_s"] for t in timings["trials"])
        assert timings["total_s"] == pytest.approx(engines + sum(w["select_pairs_s"] for w in windows))

    @pytest.mark.parametrize(
        "n_owners, mode, streams",
        [
            (6, "designated", {harness._STREAM_PARTITION: 2}),
            (6, "random", {harness._STREAM_PARTITION: 2, harness._STREAM_PAIR: 2}),
            (10, "designated", {harness._STREAM_PARTITION: 2, harness._STREAM_PAIR: 2, harness._STREAM_ENGINE: 4}),
        ],
    )
    def test_spawns_only_the_streams_a_trial_draws_from(self, monkeypatch, n_owners, mode, streams):
        # Up to 9 owners pair checks and the engines are exact: a designated
        # pair needs no pair stream and no engine an engine stream. A drawn
        # pair needs its stream; from 10 owners the pair check and mc and
        # svexp (not bf) sample.
        spawned = []

        def spawn_spy(seed, *path):
            spawned.append(path)
            return spawn_rng(seed, *path)

        monkeypatch.setattr(harness, "spawn_rng", spawn_spy)
        cfg = base_config(
            utility={"kind": "additive", "weights": {str(i): 1.0 + i % 5 for i in range(30)}},
            engines=["bf", "mc", "svexp"],
            n_owners=n_owners,
            allocation={"kind": "zipfian", "a": 2, "k1": 2, "k2": 0, "k_max": 2},
            pair={"mode": mode, "a": "A", "b": "B"} if mode == "designated" else {"mode": mode},
            sampling={"check_budget": 300, "pair_budget": 300, "arm_budget": 100, "bandit_budget": 600},
        )
        records = run_experiment(ExperimentConfig.from_json(cfg)).records
        assert len(records) == 6
        counts = {tag: sum(path[0] == tag for path in spawned) for tag in {path[0] for path in spawned}}
        assert counts == streams
        # Engine streams are those of mc and svexp, the engines 1 and 2.
        assert {path[-1] for path in spawned if path[0] == harness._STREAM_ENGINE} <= {1, 2}

    @pytest.mark.parametrize(
        "utility, pool",
        [
            ({"kind": "additive", "weights": {str(e): 1.0 + e for e in (2, 5, 7, 11, 13, 17)}}, [2, 5, 7, 11, 13, 17]),
            ({"kind": "set-cover", "universe": [1, 2, 3], "subsets": [[1], [2], [3], [1, 2], [2, 3]]}, range(1, 6)),
        ],
    )
    def test_generated_allocations_draw_from_the_oracle_pool(self, monkeypatch, utility, pool):
        allocation = {"kind": "uniform", "size_range": [2, 4]}
        cfg = ExperimentConfig.from_json(base_config(utility=utility, allocation=allocation, trials=6))
        oracle, _, partitions = run_watching_memo(cfg, monkeypatch)
        assert oracle.pool == pool
        drawn = frozenset().union(*(p.universe() for p in partitions))
        assert drawn <= frozenset(pool) and len(drawn) > 3


def zipf_grid_config(trials=2, k_max=2):
    return ExperimentConfig.from_json(
        {
            "utility": {"kind": "additive", "weights": {str(i): 1.0 + i for i in range(8)}},
            "engines": ["bf"],
            "n_owners": 3,
            "allocation": {"kind": "zipfian", "a": 2, "k_max": k_max, "grid": True},
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

    def test_one_cell_zipfian_grid_writes_its_tables(self, tmp_path):
        result = run_experiment(zipf_grid_config(k_max=0))
        assert {r.cell for r in result.records} == {"k0-k0"}
        assert result.grid_axes == (["k0"], ["k0"])
        assert result.summary["pairwise"]["tables"] == result.grids
        assert [len(t) for t in result.grids["bf"].values()] == [1, 1]
        assert len(write_outputs(result, tmp_path)) == 5
        for name in ("size", "success"):
            with (tmp_path / f"pairwise_bf_{name}.csv").open() as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["", "k0"] and len(rows) == 2 and rows[1][0] == "k0"

    def test_grid_pair_mode_on_natural_allocation(self, booking_dataset, monkeypatch):
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
                "allocation": {"kind": "natural", "group": "month"},
                "pair": {"mode": "grid"},
                "trials": 1,
                "seed": 41,
                "sampling": {"check_budget": 300, "pair_budget": 300},
            }
        )
        serve_datasets(monkeypatch, (subset, subset.take(range(5))))
        result = run_experiment(cfg)
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


def run_watching_memo(cfg, monkeypatch, datasets=None, clear=True, snapshots=None):
    """run_experiment's oracle, the memo size at each clear_cache call, and
    each explanation's partition; clear=False leaves the memo as it is, and
    a `snapshots` list receives the memo's keys at each clear_cache call."""
    oracles, cleared, partitions = [], [], []
    real_make, real_clear, real_explain = harness.make_oracle, UtilityOracle.clear_cache, harness.explain

    def make_oracle(*args, **kwargs):
        oracles.append(real_make(*args, **kwargs))
        return oracles[-1]

    def clear_cache(self):
        cleared.append(len(self._cache))
        if snapshots is not None:
            snapshots.append(frozenset(self._cache))
        if clear:
            real_clear(self)

    def explain(engine, partition, *args, **kwargs):
        partitions.append(partition)
        return real_explain(engine, partition, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(harness, "make_oracle", make_oracle)
        m.setattr(UtilityOracle, "clear_cache", clear_cache)
        m.setattr(harness, "explain", explain)
        serve_datasets(m, datasets)
        run_experiment(cfg)
    return oracles[0], cleared, partitions


def logistic_config(**over):
    """A logistic experiment whose pair checks share calls: 18 trials, more than one window."""
    cfg = base_config(
        utility={"kind": "logistic-regression", "label": "y", "iters": 30},
        engines=["bf", "mc", "svexp"],
        n_owners=5,
        allocation={"kind": "uniform", "size_range": [2, 4]},
        trials=18,
        seed=61,
        sampling={"check_budget": 200, "pair_budget": 200, "arm_budget": 200, "bandit_budget": 800},
    )
    cfg.update(over)
    return cfg


def logistic_data(rows: int = 60, zeros: int = 0, groups: int = 0) -> tuple[Dataset, Dataset]:
    """Train and test blobs; the first `zeros` train rows relabelled 0, and `groups` round-robin groups."""
    train, test = make_blobs(rows, n_features=2, seed=61, sep=1.0), make_blobs(20, n_features=2, seed=62, sep=1.0)
    train.labels[:zeros] = 0.0
    if groups:
        train = Dataset(
            train.features, train.feature_names, train.labels, "y", tuple(f"G{i % groups}" for i in range(rows)), "g"
        )
    return train, test


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
        # The additive oracle's gaps keep no coalition memo: watch the generic path's.
        make_oracle = harness.make_oracle
        monkeypatch.setattr(harness, "make_oracle", lambda *args, **kw: on_memo_path(make_oracle(*args, **kw)))
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
                "allocation": {"kind": "natural", "group": "month"},
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

    def test_a_logistic_memo_holds_one_window(self, monkeypatch):
        monkeypatch.setattr(explain_module, "_WINDOW", 3)
        cfg = ExperimentConfig.from_json(logistic_config(trials=7, engines=["bf", "svexp"]))
        snapshots = []
        oracle, cleared, partitions = run_watching_memo(cfg, monkeypatch, logistic_data(), snapshots=snapshots)
        universes = [p.universe() for p in partitions[::2]]  # two engines per trial
        windows = [universes[0:3], universes[3:6], universes[6:7]]
        # Once per window; only the first window finds the memo empty.
        assert len(cleared) == len(windows) and cleared[0] == 0
        for window, memo in zip(windows, [*snapshots[1:], frozenset(oracle._cache)]):
            # every set the memo holds is one of the window's, and more than one trial's are there
            assert memo and all(any(key <= u for u in window) for key in memo)
            assert len(window) == 1 or not any(all(key <= u for key in memo) for u in window)


GOLDEN = Path(__file__).parent / "data" / "golden"

# Logistic experiments, by what their pair selection covers; each pair of
# config and datasets runs in windows, except "sampled" (10 owners).
WINDOW_CASES = {
    "random": lambda: (logistic_config(), logistic_data()),
    "designated": lambda: (
        logistic_config(allocation={"kind": "zipfian", "a": 2, "k1": 2, "k2": 1, "k_max": 2}),
        logistic_data(),
    ),
    "grid": lambda: (
        logistic_config(allocation={"kind": "natural", "group": "g"}, pair={"mode": "grid"}, trials=2),
        logistic_data(rows=16, groups=4),
    ),
    # Where every owner holds label-0 rows only, each set scores by its size
    # alone, so a pair of owners that share no row with the others ties.
    "ties": lambda: (
        logistic_config(allocation={"kind": "uniform", "size_range": [2, 2]}),
        logistic_data(zeros=54),
    ),
    "sampled": lambda: (
        logistic_config(n_owners=10, allocation={"kind": "uniform", "size_range": [2, 3]}, trials=3),
        logistic_data(),
    ),
}

# Experiments whose oracle shares no work across a call (windows of one
# trial). tests/data/golden/values_calls.json holds the values() traffic
# each sent at the commit before windows and the shift table, less the
# calls of svexp's round checks (each a _Request.check called from _svexp),
# as values_digest reads it, with each race pair laid out as the check of
# its shift, (A - X - {e}, B | X | {e}); and less, in additive_ties and kde,
# the shifts a trial's later engine reads off the one table its earlier
# engines filled. To regenerate it after a deliberate change of traffic,
# run each case under the values_calls spy and dump its digest, from the
# repository root, and say in CHANGES.md which cases moved and why:
#
#     PYTHONPATH=src:tests python - <<'EOF'
#     import json, pytest
#     from conftest import serve_datasets, values_calls
#     from shapcf.harness import run_experiment
#     from test_harness import GOLDEN, TRAFFIC_CASES, values_digest
#     digests = {}
#     for case, build in TRAFFIC_CASES.items():
#         cfg, datasets = build()
#         with pytest.MonkeyPatch.context() as m:
#             calls = values_calls._get_wrapped_function()(m)
#             serve_datasets(m, datasets)
#             run_experiment(cfg)
#         digests[case] = values_digest(calls)
#     (GOLDEN / "values_calls.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
#     EOF
TRAFFIC_CASES = {
    "svexp": lambda: (ExperimentConfig.from_json(GOLDEN / "svexp_config.json"), None),
    "mc": lambda: (ExperimentConfig.from_json(GOLDEN / "mc_config.json"), None),
    "three_engines_large": lambda: (ExperimentConfig.from_json(GOLDEN / "three_engines_large_config.json"), None),
    "additive_ties": lambda: (
        ExperimentConfig.from_json(
            base_config(
                utility={"kind": "additive", "weights": {str(e): 1.0 for e in range(40)}},
                engines=["bf", "mc", "svexp"],
                n_owners=6,
                allocation={"kind": "uniform", "size_range": [2, 2]},
                trials=5,
                seed=5,
                sampling={"check_budget": 640, "pair_budget": 320, "arm_budget": 320, "bandit_budget": 1280},
            )
        ),
        None,
    ),
    "kde": lambda: (
        ExperimentConfig.from_json(
            base_config(
                utility={"kind": "kde", "label": "y"},
                engines=["bf", "mc", "svexp"],
                n_owners=6,
                allocation={"kind": "uniform", "size_range": [4, 8]},
                trials=3,
                seed=7,
            )
        ),
        (make_blobs(120, n_features=2, seed=5, sep=1.0), make_blobs(30, n_features=2, seed=6, sep=1.0)),
    ),
}


def values_digest(calls: list[list[frozenset[int]]]) -> dict:
    """The count of values() calls and of their sets, and a hash of every call's sets in order."""
    digest = hashlib.sha256()
    for sets in calls:
        digest.update(repr([sorted(s) for s in sets]).encode() + b"\n")
    return {"calls": len(calls), "sets": sum(map(len, calls)), "sha256": digest.hexdigest()}


def traffic_by_trial(cfg, monkeypatch, values_calls, datasets=None):
    """run_experiment's values() calls: before each request, and each request's own."""
    before, own, marks = [], [], [0]
    explain = harness.explain

    def spy(*args, **kwargs):
        before.append(values_calls[marks[-1] : len(values_calls)])
        start = len(values_calls)
        res = explain(*args, **kwargs)
        own.append(values_calls[start:])
        marks.append(len(values_calls))
        return res

    with monkeypatch.context() as m:
        m.setattr(harness, "explain", spy)
        serve_datasets(m, datasets)
        values_calls.clear()
        run_experiment(cfg)
    return before, own


def watch_rounds(monkeypatch, values_calls):
    """Search rounds, the shifts scored in and after pair selection, and the shifts the engines' checks read.

    A round is a _score call inside pair selection's explain._drive with
    shifts its tables lack: those shifts by request, and the values() calls
    it sent.
    A shift is keyed by its pair's entry sets and the shift, the same in
    any run of one config.
    """
    rounds, ahead, later, reads, where = [], set(), set(), [], {"select": False, "rounds": False}
    score, checks = explain_module._score, explain_module._Request.checks

    def score_spy(jobs):
        new = [(req, [m for m in shifts if m not in getattr(req.route, "table", ())]) for req, shifts in jobs]
        sent = len(values_calls)
        score(new)
        (ahead if where["select"] else later).update(
            (req.ents_a, req.ents_b, moved) for req, shifts in new for moved in shifts
        )
        if where["rounds"] and where["select"] and any(shifts for _, shifts in new):
            rounds.append((new, values_calls[sent:]))

    def during(name, fn):
        def spy(*args):
            where[name] = True
            try:
                return fn(*args)
            finally:
                where[name] = False
        return spy

    def checks_spy(req, budget, shifts):
        shifts = [frozenset(moved) for moved in shifts]
        for moved, res in zip(shifts, checks(req, budget, shifts)):
            if req.engine != "pair":
                reads.append((req.ents_a, req.ents_b, moved))
            yield res

    monkeypatch.setattr(explain_module, "_score", score_spy)
    monkeypatch.setattr(explain_module, "_drive", during("rounds", explain_module._drive))
    monkeypatch.setattr(harness, "select_pairs", during("select", harness.select_pairs))
    monkeypatch.setattr(explain_module._Request, "checks", checks_spy)
    return rounds, ahead, later, reads


class TestWindows:
    """A window's pair checks, and then each round of its exact searches, share one values() call each."""

    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_outputs_do_not_depend_on_the_window(self, case, tmp_path, monkeypatch):
        raw, datasets = WINDOW_CASES[case]()
        cfg = ExperimentConfig.from_json(raw)
        select, request = harness.select_pairs, explain_module._Request
        outputs = []
        for window in (explain_module._WINDOW, 1):
            widths, pairs = [], []

            def spy(*args, **kwargs):  # counts pair selection's requests, not the engines'
                if args[0] == "pair":
                    pairs.append(args)
                return request(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(explain_module, "_WINDOW", window)
                m.setattr(
                    harness, "select_pairs", lambda parts, *args, **kw: widths.append(len(parts)) or select(parts, *args, **kw)
                )
                m.setattr(explain_module, "_Request", spy)
                serve_datasets(m, datasets)
                out = tmp_path / str(window)
                write_outputs(run_experiment(cfg), out)
            outputs.append([(out / name).read_bytes() for name in ("trials.csv", "summary.json")])
            if window > 1:
                assert max(widths) == (1 if case == "sampled" else min(window, cfg.trials))
                drawn = len(pairs)
        assert outputs[0] == outputs[1]
        trials = cfg.trials * (12 if case == "grid" else 1)
        assert drawn > trials if case == "ties" else drawn >= trials

    def test_logreg_golden_searches_in_rounds(self, values_calls, monkeypatch):
        monkeypatch.chdir(GOLDEN)  # the config names its data file relative to it
        cfg = ExperimentConfig.from_json(GOLDEN / "logreg_config.json")
        with monkeypatch.context() as m:
            m.setattr(explain_module, "_WINDOW", 1)
            _, _, searched, _ = watch_rounds(m, values_calls)
            before, own = traffic_by_trial(cfg, m, values_calls)
        # Alone, each trial sends its pair check, then its search's chunks.
        assert [len(calls) for calls in before] == [1] * cfg.trials
        assert all(own)
        rounds, ahead, later, reads = watch_rounds(monkeypatch, values_calls)
        merged_before, merged_own = traffic_by_trial(cfg, monkeypatch, values_calls)
        # The four pair checks share the first call, as alone they sent them;
        # each round is one more call, and no request sends any.
        assert merged_before[0][0] == [s for calls in before for s in calls[0]]
        assert merged_before[0][1:] == [call for _, calls in rounds for call in calls]
        assert merged_before[1:] == [[]] * (cfg.trials - 1) and merged_own == [[]] * cfg.trials
        assert len(rounds) > 1 and not later
        for jobs, calls in rounds:
            shifts = sum(len(new) for _, new in jobs)
            assert len(calls) == 1 and len(calls[0]) == 2 ** (5 - 1) * shifts
            # Every round stays under the former opening's bound.
            assert shifts <= explain_module._WINDOW * max(req.span(new[0]) for req, new in jobs if new)
        # Every shift a search reads (its chunks up to the first flip, and the
        # verification of its answer) was scored by a window call, and the
        # rounds scored no shift that the trials' searches alone did not.
        assert reads and set(reads) <= ahead
        assert {key for key in ahead if key[2]} <= searched
        # So the window sends no more sets than its trials alone, which sent
        # as many as the former one-call opening (2 calls, 336 sets), and
        # fewer calls than they did.
        alone = [call for calls in before + own for call in calls]
        assert sum(map(len, merged_before[0])) <= sum(map(len, alone)) == 336
        assert len(merged_before[0]) < len(alone)

    def test_rounds_stay_under_the_bound_at_a_span_of_one(self, values_calls, monkeypatch):
        monkeypatch.setattr(explain_module._Exact, "span", lambda self, req, moved: 1)
        cfg = ExperimentConfig.from_json(logistic_config())
        serve_datasets(monkeypatch, logistic_data())
        rounds, _, _, _ = watch_rounds(monkeypatch, values_calls)
        records = run_experiment(cfg).records
        assert {r.engine for r in records if r.status == "ok"} == {"bf", "mc", "svexp"}
        # svexp widens a first chunk to every one-entry shift, bf and mc
        # search on: the open searches still share _WINDOW spans of one shift.
        assert len(rounds) > 2
        assert all(sum(len(new) for _, new in jobs) <= explain_module._WINDOW for jobs, _ in rounds)

    @pytest.mark.parametrize("engines", [["bf", "mc", "svexp"], ["svexp"]])
    def test_timeout_zero_sends_no_round(self, engines, values_calls, monkeypatch):
        cfg = ExperimentConfig.from_json(logistic_config(engines=engines, sampling={"timeout": 0}))
        serve_datasets(monkeypatch, logistic_data())
        rounds, _, _, reads = watch_rounds(monkeypatch, values_calls)
        records = run_experiment(cfg).records
        assert rounds == [] and reads == []
        statuses = [r.status for r in records]
        assert "timeout" in statuses and set(statuses) <= {"timeout", "precondition_not_met"}

    def test_a_bf_request_over_the_entry_limit_sends_no_round(self, values_calls, monkeypatch):
        # A holds 2^5 = 32 entries, past BF_ENTRY_LIMIT: its subsets are not
        # enumerated ahead, and bf still raises TooLarge.
        allocation = {"kind": "zipfian", "a": 2, "k1": 5, "k2": 0, "k_max": 5}
        cfg = ExperimentConfig.from_json(logistic_config(engines=["bf"], n_owners=3, allocation=allocation, trials=3))
        serve_datasets(monkeypatch, logistic_data())
        select, widths = harness.select_pairs, []
        monkeypatch.setattr(harness, "select_pairs", lambda parts, *args: widths.append(len(parts)) or select(parts, *args))
        rounds, _, _, _ = watch_rounds(monkeypatch, values_calls)
        with pytest.raises(TooLarge, match="32 entries exceeds the limit 20"):
            run_experiment(cfg)
        assert widths == [3] and rounds == []

    def test_svexp_only_cell_sends_no_more_than_the_opening(self, values_calls, monkeypatch):
        cfg = ExperimentConfig.from_json(logistic_config(engines=["svexp"]))
        serve_datasets(monkeypatch, logistic_data())
        rounds, ahead, _, _ = watch_rounds(monkeypatch, values_calls)
        explain, own = harness.explain, []

        def spy(*args, **kwargs):
            sent = len(values_calls)
            res = explain(*args, **kwargs)
            own.append(values_calls[sent:])
            return res

        monkeypatch.setattr(harness, "explain", spy)
        values_calls.clear()
        records = run_experiment(cfg).records
        assert all(r.status == "ok" and r.success for r in records)
        # Pair selection's former one-call opening sent 5 calls and 2,080 sets
        # here. svexp's whole loop runs in the window's rounds, which score
        # only its races' arms and round checks: no more calls, at most 1,264
        # sets, and no engine request sends a call.
        assert len(values_calls) <= 5 and sum(map(len, values_calls)) <= 1264
        assert own == [[]] * cfg.trials
        searched = [req for jobs, _ in rounds for req, _ in jobs]
        assert all((req.ents_a, req.ents_b, frozenset({e})) in ahead for req in searched for e in req.ents_a)

    def test_svexp_first_races_read_the_openings(self, values_calls, monkeypatch):
        race, races = explain_module._Request.race, []
        select, selecting = harness.select_pairs, []

        def spy(req, moved):
            if selecting:  # pair selection's rounds run the engine bodies too; count the engines' own
                return race(req, moved)
            sent, scored = len(values_calls), set(req.route.table)
            pick = race(req, moved)
            races.append((req, frozenset(moved), scored, values_calls[sent:]))
            return pick

        def select_spy(*args):
            selecting.append(True)
            try:
                return select(*args)
            finally:
                selecting.pop()

        monkeypatch.setattr(explain_module._Request, "race", spy)
        monkeypatch.setattr(harness, "select_pairs", select_spy)
        cfg = ExperimentConfig.from_json(logistic_config(engines=["svexp"]))
        serve_datasets(monkeypatch, logistic_data())
        records = run_experiment(cfg).records
        firsts = [(req, scored, sent) for req, moved, scored, sent in races if not moved]
        assert len(firsts) == sum(r.status == "ok" for r in records) > 0
        free = 0
        for req, scored, sent in firsts:
            # Only the arms whose one-entry shift no search round scored are scored.
            missing = [e for e in sorted(req.ents_a) if frozenset({e}) not in scored]
            assert [len(call) for call in sent] == ([2 ** (req.partition.n - 1) * len(missing)] if missing else [])
            free += not missing
        assert free > 0

    # values() calls and sets of windowed logistic cells before svexp's whole
    # loop joined the rounds, when the engines still scored its later races.
    EARLIER_TRAFFIC = {
        ("svexp", 61): (5, 2080), ("svexp", 62): (5, 1728), ("svexp", 63): (7, 2208), ("svexp", 64): (5, 2112),
        ("bf+mc+svexp", 61): (5, 2080), ("bf+mc+svexp", 62): (5, 1728),
        ("bf+mc+svexp", 63): (7, 2240), ("bf+mc+svexp", 64): (5, 2112),
    }

    @pytest.mark.parametrize("engines, seed", list(EARLIER_TRAFFIC))
    def test_svexp_whole_loop_joins_the_rounds(self, engines, seed, values_calls, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_json(logistic_config(engines=engines.split("+"), seed=seed))
        serve_datasets(monkeypatch, logistic_data())
        explain, own = harness.explain, []

        def spy(*args, **kwargs):
            sent = len(values_calls)
            res = explain(*args, **kwargs)
            own.append(len(values_calls) - sent)
            return res

        outputs = []
        for window in (explain_module._WINDOW, 1):
            with monkeypatch.context() as m:
                m.setattr(explain_module, "_WINDOW", window)
                m.setattr(harness, "explain", spy)
                values_calls.clear()
                write_outputs(run_experiment(cfg), tmp_path / str(window))
            outputs.append([(tmp_path / str(window) / name).read_bytes() for name in ("trials.csv", "summary.json")])
            if window > 1:
                calls, sets = len(values_calls), sum(map(len, values_calls))
                assert own and not any(own)  # every engine replays its run from its pair's table
                own.clear()
        assert outputs[0] == outputs[1]
        earlier_calls, earlier_sets = self.EARLIER_TRAFFIC[engines, seed]
        assert sets <= earlier_sets and calls <= earlier_calls + 1

    def test_every_read_is_yielded_first(self, monkeypatch):
        # In a window, every shift an engine request reads was yielded, and so
        # scored by a round, before the read. The reads only read the pair's
        # one table: a forgotten yield raises KeyError there, and this spy
        # names the engine and the shifts.
        reads = {"checks": 0, "race": 0}

        def held(name, shifts_of):
            fn = getattr(explain_module._Exact, name)

            def spy(route, req, *args):
                if req.engine != "pair":
                    reads[name] += 1
                    missing = [moved for moved in shifts_of(*args) if moved not in route.table]
                    assert not missing, f"{req.engine} {name} read unyielded shifts {missing}"
                return fn(route, req, *args)

            monkeypatch.setattr(explain_module._Exact, name, spy)

        held("checks", lambda budget, shifts: shifts)
        held("race", lambda moved, ents: [moved | {e} for e in ents])
        cfg = ExperimentConfig.from_json(logistic_config(engines=["bf", "mc", "svexp"]))
        serve_datasets(monkeypatch, logistic_data())
        records = run_experiment(cfg).records
        assert {r.engine for r in records if r.status == "ok"} == {"bf", "mc", "svexp"}
        assert reads["checks"] > 0 and reads["race"] > 0

    @pytest.mark.parametrize("case", list(TRAFFIC_CASES))
    def test_additive_and_kde_send_the_earlier_calls(self, case, values_calls, monkeypatch):
        cfg, datasets = TRAFFIC_CASES[case]()
        serve_datasets(monkeypatch, datasets)
        values_calls.clear()
        run_experiment(cfg)
        expected = json.loads((GOLDEN / "values_calls.json").read_text())[case]
        assert values_digest(values_calls) == expected


class TestDataBackedRuns:
    def test_natural_allocation_designated_pair(self, booking_dataset, monkeypatch):
        # Two months, one dominant row: both sampling engines should move
        # exactly that row.
        subset = booking_dataset.take(range(62))
        weights = {str(i): 0.1 for i in range(62)}
        weights["25"] = 30.0
        cfg = ExperimentConfig.from_json(
            {
                "utility": {"kind": "additive", "weights": weights},
                "engines": ["mc", "svexp"],
                "allocation": {"kind": "natural", "group": "month"},
                "pair": {"mode": "designated", "a": "02", "b": "01"},
                "trials": 2,
                "seed": 31,
                "sampling": {"check_budget": 1500},
            }
        )
        serve_datasets(monkeypatch, (subset, subset.take(range(5))))
        result = run_experiment(cfg)
        assert len(result.records) == 4
        for rec in result.records:
            assert rec.status == "ok" and rec.success
            assert rec.a == "02" and rec.b == "01"
            assert rec.delta_entries == (25,)
        assert result.summary["agreement"]["mc|svexp"] == 1.0
        assert result.summary["engines"]["svexp"]["sizes"]["mean"] == 1.0

    def test_vertical_allocation_with_model_utility(self, housing_dataset, monkeypatch):
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
        serve_datasets(monkeypatch, (train, test))
        result = run_experiment(cfg)
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
        cfg = ExperimentConfig.from_json(base_config(allocation={"kind": "natural", "group": "month"}))
        with pytest.raises(MalformedInput):
            run_experiment(cfg)

    def test_unknown_allocation_kind(self, tmp_path):
        # The kind is named when the config is built, before its data file is opened.
        missing = tmp_path / "missing.csv"
        with pytest.raises(MalformedInput, match="unknown allocation kind 'mystery'") as err:
            ExperimentConfig.from_json(base_config(allocation={"kind": "mystery"}, data=str(missing)))
        assert "missing.csv" not in str(err.value)

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"allocation": {"kind": "zipfian", "k1": 5, "k_max": 4}}, "got 5, 0, 4"),
            ({"allocation": {"kind": "zipfian", "k1": 1, "k2": 0, "k_max": 1, "a": 1}}, "got 1"),
            ({"allocation": {"kind": "zipfian", "grid": True, "a": 1}}, "got 1"),
            ({"allocation": {"kind": "uniform", "size_range": [5, 2]}}, r"size_range \[5, 2\]"),
            ({"allocation": {"kind": "uniform", "size_range": [0, 2]}}, r"size_range \[0, 2\]"),
            ({"test_ratio": 1.5}, r"got 1\.5"),
            ({"test_ratio": 0}, "got 0"),
            ({"allocation": {"kind": "natural"}}, '"group" column name, got None'),
            ({"allocation": {"kind": "natural", "group": 3}}, '"group" column name, got 3'),
        ],
    )
    def test_generator_and_loader_ranges_fail_before_the_data_loads(self, over, message, tmp_path):
        # The checks that gen_uniform, gen_zipfian and split_dataset run are
        # run when the config is built too, so the bad value is named, not the
        # missing data file.
        raw = base_config(utility={"kind": "kde", "label": "y"}, data=str(tmp_path / "missing.csv"), **over)
        with pytest.raises(MalformedInput, match=message) as err:
            ExperimentConfig.from_json(raw)
        assert "missing.csv" not in str(err.value)

    def test_the_generators_run_the_same_range_checks(self):
        rng = spawn_rng(0, 0)
        with pytest.raises(MalformedInput, match="got 5, 0, 4"):
            harness.gen_zipfian(range(100), 3, rng, k1=5)
        with pytest.raises(MalformedInput, match="got 1"):
            harness.gen_zipfian(range(100), 3, rng, a=1, k_max=1)
        with pytest.raises(MalformedInput, match=r"size_range \[5, 2\]"):
            harness.gen_uniform(range(100), 3, rng, size_range=(5, 2))
        with pytest.raises(MalformedInput, match=r"size_range \[1, 0\]"):
            harness.gen_uniform(range(0), 3, rng)
        with pytest.raises(MalformedInput, match=r"got 1\.5"):
            split_dataset(make_blobs(20, n_features=2, seed=1, sep=1.0), 1.5, rng)

    def test_vertical_needs_groups_object(self):
        with pytest.raises(MalformedInput, match='"groups" object'):
            ExperimentConfig.from_json(
                base_config(
                    utility={"kind": "linreg", "axis": "features"},
                    allocation={"kind": "vertical"},
                )
            )

    def test_vertical_group_must_be_a_list_of_names(self, tmp_path):
        # The rule needs no data, so it fails when the config is built, before
        # the data file (here a missing one) would be opened.
        for data in (None, str(tmp_path / "missing.csv")):
            raw = base_config(
                utility={"kind": "linreg", "axis": "features"},
                allocation={"kind": "vertical", "groups": {**VERTICAL_GROUPS, "X": 5}},
                data=data,
            )
            with pytest.raises(MalformedInput, match="group 'X'") as err:
                ExperimentConfig.from_json(raw)
            assert "missing.csv" not in str(err.value)

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

    def test_held_out_table_without_rows_is_rejected(self, tmp_path):
        # Scored against no test rows, a utility would divide by zero or average nothing.
        (tmp_path / "train.csv").write_text("x0,x1,y\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(40)))
        (tmp_path / "test.csv").write_text("x0,x1,y\n")
        with pytest.raises(MalformedInput, match="at least one row"):
            harness.load_csv(tmp_path / "test.csv", label="y")
        cfg = ExperimentConfig.from_json(
            base_config(utility={"kind": "kde", "label": "y"}, data=str(tmp_path / "train.csv"),
                        test_data=str(tmp_path / "test.csv"))
        )
        with pytest.raises(MalformedInput, match="at least one row"):
            run_experiment(cfg)

    def test_repeated_column_names_are_rejected(self, tmp_path):
        # With both "a" columns loaded, a vertical allocation would name one
        # of them and leave the other to no owner.
        path = tmp_path / "dup.csv"
        path.write_text("a,a,b,y\n" + "".join(f"{i},{i % 5},{i % 3},{i % 2}\n" for i in range(20)))
        with pytest.raises(MalformedInput, match=re.escape(f"{path}: repeated column names ['a']")):
            harness.load_csv(path, label="y")
        cfg = ExperimentConfig.from_json(
            base_config(utility={"kind": "linreg", "label": "y", "axis": "features"},
                        allocation={"kind": "vertical", "groups": {"X": ["a"], "Y": ["b"]}}, data=str(path))
        )
        with pytest.raises(MalformedInput, match="repeated column names"):
            run_experiment(cfg)

    @pytest.mark.parametrize("key", ["data", "test_data"])
    @pytest.mark.parametrize(
        "utility", [{"kind": "additive", "weights": {"0": 1.0}}, {"kind": "set-cover", "universe": [1], "subsets": [[1]]}]
    )
    def test_a_data_path_the_run_never_reads_is_rejected(self, key, utility):
        # A closed-form utility with a generated allocation loads no table.
        with pytest.raises(MalformedInput, match=f"allocation reads no '{key}'"):
            ExperimentConfig.from_json(base_config(utility=utility, **{key: "no_such_file.csv"}))

    def test_a_test_ratio_the_run_never_reads_is_rejected(self):
        # No table is read beside a closed-form utility and a generated
        # allocation, and a test_data file is held out whole, so a test_ratio
        # set there would be ignored. Left out, it reads as 0.2.
        with pytest.raises(MalformedInput, match="allocation reads no 'test_ratio'"):
            ExperimentConfig.from_json(base_config(test_ratio=0.2))
        kde = {"utility": {"kind": "kde", "label": "y"}, "data": "train.csv", "test_data": "test.csv"}
        with pytest.raises(MalformedInput, match="'test_ratio' is not read beside 'test_data'"):
            ExperimentConfig.from_json(base_config(**kde, test_ratio=0.25))
        with pytest.raises(MalformedInput, match="'test_ratio' is not read beside 'test_data'"):
            ExperimentConfig(**{**base_config(**kde, test_ratio=0.2), "engines": ("bf",)})
        assert ExperimentConfig.from_json(base_config(**kde)).test_ratio == 0.2
        assert ExperimentConfig.from_json(base_config(**kde | {"test_data": None}, test_ratio=0.25)).test_ratio == 0.25

    BOOKING_GROUPS = {"kind": "vertical", "groups": {"A": ["lead_time", "rate"], "B": ["stay_nights", "guests"]}}
    AXIS_MISMATCHES = [
        ({"kind": "logistic-regression"}, BOOKING_GROUPS),
        ({"kind": "kde", "axis": "rows"}, BOOKING_GROUPS),
        ({"kind": "logistic-regression", "axis": "features"}, {"kind": "natural", "group": "month"}),
        ({"kind": "linreg", "axis": "features"}, {"kind": "uniform", "size_range": [1, 3]}),
        ({"kind": "kde", "axis": "features"}, {"kind": "zipfian", "a": 2, "k1": 1, "k2": 0, "k_max": 1}),
    ]

    @pytest.mark.parametrize("utility, allocation", AXIS_MISMATCHES)
    def test_allocation_entries_must_be_on_the_utilitys_axis(self, utility, allocation, monkeypatch):
        # Vertical entries are feature columns and every other kind's are rows;
        # a mismatch used to score one as the other, or fail inside the scorer.
        # It is named when the config is built, before any data loads.
        explained = []
        monkeypatch.setattr(harness, "explain", lambda *args, **kwargs: explained.append(args))
        kind, axis = allocation["kind"], utility.get("axis", "rows")
        need = "features" if kind == "vertical" else "rows"
        message = f"a {kind!r} allocation needs a utility with axis {need!r}, got axis {axis!r}"
        with pytest.raises(MalformedInput, match=re.escape(message)):
            ExperimentConfig.from_json(base_config(utility=utility, allocation=allocation, n_owners=2))
        assert explained == []

    COVER = {"kind": "set-cover", "universe": [1, 2], "subsets": [[1], [2]]}
    EACH_KIND = [
        {"kind": "additive", "weights": {"0": 1.0}}, COVER,
        {"kind": "kde"}, {"kind": "logistic-regression"}, {"kind": "linear-regression"},
    ]

    @pytest.mark.parametrize(
        "over, named",
        [
            ({"utility": {"kind": "mystery"}}, "unknown utility kind 'mystery'"),
            *(({"utility": {**u, "bogus": 1}}, f"unknown {u['kind']} utility keys ['bogus']") for u in EACH_KIND),
            *(({"utility": {"utility": u, "bogus": 1}}, "unknown utility keys ['bogus'] beside 'utility'")
              for u in EACH_KIND),
            ({"utility": {"kind": "additive"}}, "additive utility needs 'weights'"),
            ({"utility": {"kind": "additive", "weights": {"0": 1.0, "a": 2.0}}}, "weights must be an object of entry ids"),
            ({"utility": {"kind": "additive", "weights": {"0": -1.0}}}, "weights must be an object of entry ids"),
            ({"utility": {"kind": "additive", "weights": {"0": 1e308, "1": 1e308}}}, "no overflowing sum"),
            ({"utility": {"kind": "set-cover", "subsets": [[1]]}}, "set-cover utility needs 'universe'"),
            ({"utility": {**COVER, "universe": []}}, "universe must be a non-empty list of integers, got []"),
            ({"utility": {**COVER, "subsets": [[1], ["2"]]}}, "subsets must be a list of lists of integers"),
            ({"utility": {**COVER, "subsets": [[1], [3]]}}, "subset items [3] outside the universe"),
            ({"utility": {"kind": "kde", "eta": "x"}}, "eta must be a finite number or null, got 'x'"),
            ({"utility": {"kind": "kde", "bandwidth_floor": -1}}, "bandwidth_floor must be a finite number >= 0, got -1"),
            ({"utility": {"kind": "kde", "error_cap": 0}}, "error_cap must be a finite number > 0, got 0"),
            ({"utility": {"kind": "kde", "reference": "mean"}}, """reference must be "pool" or "nll", got 'mean'"""),
            ({"utility": {"kind": "kde", "axis": "cols"}}, """axis must be "rows" or "features", got 'cols'"""),
            ({"utility": {"kind": "logreg", "eta": math.inf}}, "eta must be a finite number, got inf"),
            ({"utility": {"kind": "logreg", "iters": "x"}}, "iters must be an integer >= 0, got 'x'"),
            ({"utility": {"kind": "logreg", "lr": 0}}, "lr must be a finite number > 0, got 0"),
            ({"utility": {"kind": "logreg", "l2": -1.0}}, "l2 must be a finite number >= 0, got -1.0"),
            ({"utility": {"kind": "linreg", "eta": True}}, "eta must be a finite number or null, got True"),
            *(({"utility": u, "allocation": a}, f"got axis {u.get('axis', 'rows')!r}") for u, a in AXIS_MISMATCHES),
        ],
    )
    def test_utility_checks_fail_before_the_data_loads(self, over, named, tmp_path):
        # Each is named when the config is built, not the missing data file the run would open.
        with pytest.raises(MalformedInput, match=re.escape(named)) as err:
            ExperimentConfig.from_json(base_config(data=str(tmp_path / "missing.csv"), **over))
        assert "missing.csv" not in str(err.value)

    def test_grid_pair_mode_checks_vertical_groups(self):
        # The groups are checked when the config is built, before any data loads.
        with pytest.raises(MalformedInput, match='"groups" object'):
            ExperimentConfig.from_json(
                base_config(
                    utility={"kind": "linreg", "axis": "features"},
                    allocation={"kind": "vertical", "groups": ["CRIM", "ZN"]},
                    pair={"mode": "grid"},
                )
            )

    def test_zipfian_grid_needs_k_max_at_least_0(self):
        with pytest.raises(MalformedInput, match=re.escape("allocation k_max=-1 (need an integer >= 0)")):
            ExperimentConfig.from_json(
                base_config(allocation={"kind": "zipfian", "grid": True, "k_max": -1}, n_owners=2)
            )

    def test_grid_pair_mode_needs_group_allocation(self):
        for allocation in (base_config()["allocation"], {"kind": "zipfian", "grid": True, "k_max": 1}):
            with pytest.raises(MalformedInput, match='pair mode "grid" needs a natural or vertical allocation'):
                ExperimentConfig.from_json(base_config(pair={"mode": "grid"}, allocation=allocation))


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

    def test_every_config_the_repo_runs_passes_the_checks(self, tmp_path, monkeypatch):
        # A check that rejected one of these would turn a golden or a benchmark run into a failure.
        for path in sorted(GOLDEN.glob("*_config.json")):
            ExperimentConfig.from_json(path)
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
        spec.loader.exec_module(workloads)
        for name, workload in workloads.WORKLOADS.items():
            for seed in (1, 2, 3):
                ExperimentConfig.from_json(workload.write_inputs(seed, 0, tmp_path / name / str(seed)))
                ExperimentConfig.from_json(workload.write_warmup(seed, tmp_path / name / f"warmup{seed}"))

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

    def test_the_sampled_route_fires_its_traced_names(self):
        # 10 owners: the engines' checks and races sample through explain.is_flipped and explain.thompson_top1.
        path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_experiment(ExperimentConfig.from_json(base_config(
                utility={"kind": "additive", "weights": {str(e): 1.0 for e in range(40)}},
                engines=["mc", "svexp"], n_owners=10, allocation={"kind": "uniform", "size_range": [2, 2]},
                sampling={"check_budget": 640, "pair_budget": 320, "arm_budget": 320, "bandit_budget": 1280},
            )))
        finally:
            tracer.close()
        names = [span.name for span in tracer.spans]
        assert names.count("shapley.is_flipped") > 0 and names.count("power.thompson_top1") > 0

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
