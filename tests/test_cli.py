"""Command-line interface: shapley, explain, and experiment subcommands."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from shapcf import cli
from shapcf.cli import main
from shapcf.explain import ExplainConfig


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def additive_files(tmp_path):
    utility = write_json(
        tmp_path / "utility.json",
        {"kind": "additive", "weights": {"0": 5.0, "1": 1.0, "2": 1.0, "3": 2.0}},
    )
    partition = write_json(
        tmp_path / "partition.json",
        {"owners": {"A": [0, 1, 2], "B": [3]}},
    )
    return utility, partition


def write_csv(path, n_rows=30, seed=0):
    rng = np.random.default_rng(seed)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for _ in range(n_rows):
            w.writerow([f"{rng.normal():.6f}", f"{rng.normal():.6f}"])
    return str(path)


class TestShapleyCommand:
    def test_exact_values_to_stdout(self, runner, additive_files):
        utility, partition = additive_files
        res = runner.invoke(main, ["shapley", "--partition", partition, "--utility", utility])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        assert payload["mode"] == "exact"
        assert payload["values"]["A"]["value"] == pytest.approx(7.0)
        assert payload["values"]["B"]["value"] == pytest.approx(2.0)

    def test_mc_values(self, runner, additive_files):
        utility, partition = additive_files
        res = runner.invoke(
            main,
            ["shapley", "--partition", partition, "--utility", utility,
             "--mc", "--budget", "2000", "--seed", "3"],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        assert payload["mode"] == "mc"
        assert payload["budget"] == 2000
        val = payload["values"]["A"]
        assert val["count"] == 2000
        # Two owners: permutation terms are constant, so the estimate is exact.
        assert val["mean"] == pytest.approx(7.0, abs=1e-9)
        assert val["half_width"] == pytest.approx(0.0, abs=1e-12)

    def test_mc_output_does_not_depend_on_the_oracle_memo(self, runner, tmp_path, monkeypatch):
        # Overlapping owners (C holds A's rows, D is empty) make some coalitions
        # compose the same rows, the only case the oracle's memo could hit.
        data = write_csv(tmp_path / "train.csv", n_rows=30, seed=1)
        test = write_csv(tmp_path / "test.csv", n_rows=8, seed=2)
        utility = write_json(tmp_path / "utility.json", {"kind": "kde"})
        partition = write_json(
            tmp_path / "partition.json",
            {"owners": {"A": list(range(0, 8)), "B": list(range(8, 30)), "C": list(range(0, 8)), "D": []}},
        )
        args = ["shapley", "--data", data, "--test-data", test, "--partition", partition,
                "--utility", utility, "--mc", "--budget", "300", "--seed", "4"]
        real = cli.make_oracle
        flags = []

        def spy(*a, cache=True, **k):
            flags.append(cache)
            return real(*a, cache=cache if forced is None else forced, **k)

        monkeypatch.setattr(cli, "make_oracle", spy)
        outputs = []
        for forced in (None, True, False):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
            outputs.append(res.stdout)
        assert flags == [False, False, False]
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["values"]["A"]["count"] == 300

    def test_out_file(self, runner, additive_files, tmp_path):
        utility, partition = additive_files
        out = tmp_path / "values.json"
        res = runner.invoke(
            main,
            ["shapley", "--partition", partition, "--utility", utility, "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["mode"] == "exact"
        assert res.stdout == ""

    def test_data_backed_utility(self, runner, tmp_path):
        data = write_csv(tmp_path / "train.csv", n_rows=30, seed=1)
        test = write_csv(tmp_path / "test.csv", n_rows=8, seed=2)
        utility = write_json(tmp_path / "utility.json", {"kind": "kde"})
        partition = write_json(
            tmp_path / "partition.json",
            {"owners": {"A": list(range(0, 15)), "B": list(range(15, 30))}},
        )
        res = runner.invoke(
            main,
            ["shapley", "--data", data, "--test-data", test,
             "--partition", partition, "--utility", utility],
        )
        assert res.exit_code == 0, res.output
        values = json.loads(res.stdout)["values"]
        assert set(values) == {"A", "B"}
        assert all(np.isfinite(v["value"]) for v in values.values())

    def test_data_backed_needs_data_flag(self, runner, tmp_path):
        utility = write_json(tmp_path / "utility.json", {"kind": "kde"})
        partition = write_json(tmp_path / "partition.json", {"owners": {"A": [0], "B": [1]}})
        res = runner.invoke(main, ["shapley", "--partition", partition, "--utility", utility])
        assert res.exit_code == 2
        assert "--data" in res.stderr

    def test_partition_rows_validated_against_data(self, runner, tmp_path):
        data = write_csv(tmp_path / "train.csv", n_rows=10, seed=1)
        test = write_csv(tmp_path / "test.csv", n_rows=4, seed=2)
        utility = write_json(tmp_path / "utility.json", {"kind": "kde"})
        partition = write_json(
            tmp_path / "partition.json", {"owners": {"A": [0, 1], "B": [99]}}
        )
        res = runner.invoke(
            main,
            ["shapley", "--data", data, "--test-data", test,
             "--partition", partition, "--utility", utility],
        )
        assert res.exit_code == 1
        assert "Error" in res.stderr


    def test_truncated_json_is_a_clean_error(self, runner, additive_files, tmp_path):
        utility, partition = additive_files
        cut_utility = tmp_path / "cut_utility.json"
        cut_utility.write_text(open(utility).read()[:25])
        cut_partition = tmp_path / "cut_partition.json"
        cut_partition.write_text(open(partition).read()[:20])
        for args in (
            ["--partition", partition, "--utility", str(cut_utility)],
            ["--partition", str(cut_partition), "--utility", utility],
        ):
            res = runner.invoke(main, ["shapley", *args])
            assert res.exit_code == 1, res.output
            assert "Error" in res.stderr and "not valid JSON" in res.stderr
            assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_non_integer_entry_ids_are_clean_errors(self, runner, additive_files, tmp_path, bad):
        utility, _ = additive_files
        partition = write_json(tmp_path / "partition.json", {"owners": {"A": [0, bad], "B": [2]}})
        res = runner.invoke(main, ["shapley", "--partition", partition, "--utility", utility])
        assert res.exit_code == 1, res.output
        assert "Error" in res.stderr and "entry ids must be integers" in res.stderr
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_unreadable_data_is_a_clean_error(self, runner, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes("x,y\n1.0,caf\xe9\n".encode("latin-1"))
        utility = write_json(tmp_path / "utility.json", {"kind": "kde"})
        partition = write_json(tmp_path / "partition.json", {"owners": {"A": [0], "B": [1]}})
        res = runner.invoke(main, ["shapley", "--data", str(data), "--partition", partition, "--utility", utility])
        assert res.exit_code == 1, res.output
        assert res.stderr.startswith("Error: ") and str(data) in res.stderr
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_bad_options_are_clean_errors(self, runner, additive_files):
        utility, partition = additive_files
        for args in (
            ["--mc", "--seed", "-1"],
            ["--mc", "--delta", "1.5"],
            ["--mc", "--delta", "0"],
            ["--mc", "--budget", "0"],
            ["--mc", "--budget", "-5"],
        ):
            res = runner.invoke(main, ["shapley", "--partition", partition, "--utility", utility, *args])
            assert res.exit_code != 0, (args, res.output)
            assert "Error" in res.stderr
            assert res.exception is None or isinstance(res.exception, SystemExit)


    def test_bad_set_cover_utility_is_a_clean_error(self, runner, additive_files, tmp_path):
        _, partition = additive_files
        for i, bad in enumerate([{"universe": [1, 2], "subsets": [["a"], [2]]}, {"universe": "x"}]):
            utility = write_json(tmp_path / f"cover{i}.json", {"kind": "set-cover", "subsets": [[1], [2]], **bad})
            res = runner.invoke(main, ["shapley", "--partition", partition, "--utility", utility])
            assert res.exit_code == 1, res.output
            assert "Error" in res.stderr and "set-cover" in res.stderr
            assert res.exception is None or isinstance(res.exception, SystemExit)


class TestExplainCommand:
    def test_bruteforce_writes_result(self, runner, additive_files, tmp_path):
        utility, partition = additive_files
        out = tmp_path / "result.json"
        res = runner.invoke(
            main,
            ["explain", "--engine", "bf", "--partition", partition, "--utility", utility,
             "--a", "A", "--b", "B", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert payload["engine"] == "bf"
        assert payload["status"] == "ok" and payload["success"]
        assert payload["delta"] == [0] and payload["size"] == 1
        assert "wall_time" not in payload
        assert "status=ok size=1" in res.stderr

    def test_sampling_engine_deterministic_per_seed(self, runner, additive_files):
        utility, partition = additive_files

        def run():
            res = runner.invoke(
                main,
                ["explain", "--engine", "svexp", "--partition", partition,
                 "--utility", utility, "--a", "A", "--b", "B", "--seed", "17"],
            )
            assert res.exit_code == 0, res.output
            return json.loads(res.stdout)

        assert run() == run()

    def test_same_owner_is_a_clean_error(self, runner, additive_files):
        utility, partition = additive_files
        res = runner.invoke(
            main,
            ["explain", "--engine", "bf", "--partition", partition, "--utility", utility,
             "--a", "A", "--b", "A"],
        )
        assert res.exit_code == 1
        assert "distinct" in res.stderr

    def test_negative_seed_is_a_clean_error(self, runner, additive_files):
        utility, partition = additive_files
        res = runner.invoke(
            main,
            ["explain", "--engine", "mc", "--partition", partition, "--utility", utility,
             "--a", "A", "--b", "B", "--seed", "-1"],
        )
        assert res.exit_code != 0, res.output
        assert "Error" in res.stderr
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_defaults_are_explain_config_defaults(self):
        defaults = {param.name: param.default for param in main.commands["explain"].params}
        assert defaults["delta"] == ExplainConfig.delta
        assert defaults["epsilon"] == ExplainConfig.epsilon
        assert defaults["budget"] == ExplainConfig.check_budget
        assert defaults["timeout"] == ExplainConfig.timeout

    def test_unknown_engine_rejected(self, runner, additive_files):
        utility, partition = additive_files
        res = runner.invoke(
            main,
            ["explain", "--engine", "warp", "--partition", partition, "--utility", utility,
             "--a", "A", "--b", "B"],
        )
        assert res.exit_code == 2

    def test_precondition_status_in_stderr(self, runner, additive_files):
        utility, partition = additive_files
        res = runner.invoke(
            main,
            ["explain", "--engine", "bf", "--partition", partition, "--utility", utility,
             "--a", "B", "--b", "A"],
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["status"] == "precondition_not_met"
        assert "status=precondition_not_met" in res.stderr


class TestExperimentCommand:
    def make_config(self, tmp_path, seed=9):
        return write_json(
            tmp_path / "exp.json",
            {
                "utility": {"kind": "additive", "weights": {str(i): 1.0 + i for i in range(8)}},
                "engines": ["bf", "svexp"],
                "n_owners": 3,
                "allocation": {"kind": "uniform", "size_range": [1, 6]},
                "trials": 2,
                "seed": seed,
                "sampling": {"check_budget": 1500, "pair_budget": 1000},
            },
        )

    def test_end_to_end(self, runner, tmp_path):
        config = self.make_config(tmp_path)
        out = tmp_path / "run1"
        res = runner.invoke(main, ["experiment", "--config", config, "--out", str(out)])
        assert res.exit_code == 0, res.output
        for name in ("trials.csv", "summary.json", "timings.json"):
            assert (out / name).exists()
        assert "bf:" in res.stdout and "svexp:" in res.stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 4

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        config = self.make_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert runner.invoke(main, ["experiment", "--config", config, "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["experiment", "--config", config, "--out", str(out2)]).exit_code == 0
        for name in ("trials.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_config_is_a_clean_error(self, runner, tmp_path):
        with open(self.make_config(tmp_path)) as fh:
            good = json.load(fh)
        truncated = tmp_path / "truncated.json"
        truncated.write_text(json.dumps(good)[:40])
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("x,y\n1.0,caf\xe9\n".encode("latin-1"))
        kde = {"utility": {"kind": "kde"}, "data": write_csv(tmp_path / "train.csv")}
        configs = [
            write_json(tmp_path / "bad.json", {"engines": ["bf"]}),
            write_json(tmp_path / "kde.json", {**good, "utility": "kde"}),
            write_json(tmp_path / "trials.json", {**good, "trials": "x"}),
            write_json(tmp_path / "engines.json", {**good, "engines": 5}),
            write_json(
                tmp_path / "size_range.json",
                {**good, "allocation": {"kind": "uniform", "size_range": "ab"}},
            ),
            str(truncated),
            write_json(tmp_path / "delta.json", {**good, "sampling": {**good["sampling"], "delta": 1.5}}),
        ] + [
            write_json(tmp_path / f"{key}.json", {**good, "sampling": {**good["sampling"], key: value}})
            for key, value in (
                ("timeout", "x"),
                ("epsilon", "x"),
                ("check_budget", -1),
                ("verify_budget", 0),
                ("arm_budget", 0),
                ("bandit_budget", 0),
                ("pair_budget", 0),
                # Fixed in the library: an error even at the fixed value.
                ("batch", 64),
                ("seed_batch", 8),
                ("bandit_batch", 32),
                ("posterior_draws", 256),
                ("owner_limit", 12),
                ("pair_redraws", 10),
            )
        ] + [
            write_json(tmp_path / f"bad{i}.json", {**good, **bad})
            for i, bad in enumerate(
                [
                    {"n_owners": 5.7},
                    {"trials": 2.5},
                    {"trials": True},
                    {"seed": 1.5},
                    {"seed": -1},
                    {"utility": {"kind": "additive", "weights": {"0": "x"}}},
                    {"utility": {"kind": "additive", "weights": {"a": 1}}},
                    {"utility": {"kind": "set-cover", "universe": [1, 2], "subsets": [["a"], [2]]}},
                    {"utility": {"kind": "set-cover", "universe": "x", "subsets": [[1], [2]]}},
                ]
                + [
                    {**kde, key: path}
                    for key in ("data", "test_data")
                    for path in (5, ["x.csv"], str(tmp_path / "nope.csv"), str(tmp_path), str(latin1))
                ]
                + [
                    {"allocation": {"kind": "zipfian", "a": 2, "k1": 1, "k2": 0, "k_max": 2, key: "x"}}
                    for key in ("a", "k1", "k2", "k_max")
                ]
            )
        ]
        for config in configs:
            res = runner.invoke(main, ["experiment", "--config", config, "--out", str(tmp_path / "o")])
            assert res.exit_code == 1, (config, res.output)
            assert "Error" in res.stderr
            assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
@pytest.mark.parametrize(
    "command,option",
    [("shapley", "--partition"), ("shapley", "--utility"), ("explain", "--partition"),
     ("explain", "--utility"), ("experiment", "--config")],
)
def test_unreadable_json_inputs_are_clean_errors(runner, additive_files, tmp_path, command, option, unreadable):
    utility, partition = additive_files
    if unreadable == "directory":
        bad = tmp_path / "a_directory"
        bad.mkdir()
    else:
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"kind": "caf\xe9"}'.encode("latin-1"))
    args = {
        "shapley": ["--partition", partition, "--utility", utility],
        "explain": ["--engine", "bf", "--a", "A", "--b", "B", "--partition", partition, "--utility", utility],
        "experiment": ["--config", utility, "--out", str(tmp_path / "out")],
    }[command]
    args[args.index(option) + 1] = str(bad)
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 1, res.output
    assert res.stderr.startswith("Error: ") and str(bad) in res.stderr
    assert res.exception is None or isinstance(res.exception, SystemExit)
