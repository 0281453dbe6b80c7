"""Command-line interface: shapley, explain, and experiment subcommands."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from shapcf.cli import main


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
        configs = [
            write_json(tmp_path / "bad.json", {"engines": ["bf"]}),
            write_json(tmp_path / "kde.json", {**good, "utility": "kde"}),
            write_json(tmp_path / "trials.json", {**good, "trials": "x"}),
            write_json(tmp_path / "engines.json", {**good, "engines": 5}),
            str(truncated),
        ]
        for config in configs:
            res = runner.invoke(main, ["experiment", "--config", config, "--out", str(tmp_path / "o")])
            assert res.exit_code == 1, (config, res.output)
            assert "Error" in res.stderr
            assert res.exception is None or isinstance(res.exception, SystemExit)
