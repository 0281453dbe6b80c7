"""Pinned outputs: fixed configs must keep producing the checked-in bytes.

tests/data/golden holds the inputs and the deterministic outputs of one small
svexp experiment, one small mc experiment, one small bf experiment on a
logistic-regression utility and one `shapcf shapley --mc` run. A sampling
rewrite that changes any draw, term or estimate, or a change to the batched
logistic fit that changes a score's bits, shows up here as a byte
difference, which the same-code rerun tests cannot see.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from shapcf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("name", ["svexp", "mc", "logreg"])
def test_experiment_outputs_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the logreg config names its data file relative to it
    out = tmp_path / name
    res = CliRunner().invoke(
        main, ["experiment", "--config", str(GOLDEN / f"{name}_config.json"), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    for artifact in ("trials.csv", "summary.json"):
        assert (out / artifact).read_bytes() == (GOLDEN / name / artifact).read_bytes(), artifact


def test_shapley_mc_output_matches_golden(tmp_path):
    out = tmp_path / "shapley_mc.json"
    res = CliRunner().invoke(
        main,
        ["shapley", "--mc", "--budget", "3000", "--seed", "7",
         "--partition", str(GOLDEN / "shapley_partition.json"),
         "--utility", str(GOLDEN / "shapley_utility.json"),
         "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (GOLDEN / "shapley_mc.json").read_bytes()
