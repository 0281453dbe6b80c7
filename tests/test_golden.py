"""Pinned outputs: fixed configs must keep producing the checked-in bytes.

tests/data/golden holds the inputs and the deterministic outputs of one small
svexp experiment, one small mc experiment, one small bf experiment on a
logistic-regression utility, one small svexp experiment on a KDE utility
(kde_data.csv), one `shapcf shapley --mc` run and one
`shapcf shapley --exact` run on a logistic-regression utility over 7 owners
(logreg_data.csv), which pins shapley_exact on a model oracle. A sampling
rewrite that changes any draw, term or estimate, or a change to the batched
logistic fit or the stacked KDE kernel that changes a score's bits, shows up
here as a byte difference, which the same-code rerun tests cannot see.

svexp and mc have 5 and 6 owners, so their flip checks and races are exact
(explain.EXACT_PREFIXES); svexp_large and mc_large are the same configs at
11 owners (svexp's weights extended to 60 entries), where the engines
sample, and pin the sampled path's draws. three_engines_large runs bf, mc
and svexp on the same 10-owner drawn pairs, one of them swapped: bf's own
exact precondition check next to the sampled pair check mc and svexp share.
grid_vertical (a pair grid over logreg_data.csv's three feature columns)
and grid_zipfian (a zipfian size grid over additive weights, with three
engines) pin the grid layout: every written file but timings.json,
the pairwise_*.csv tables included.

To regenerate after a deliberate change of outputs, from the repository root:

    cd tests/data/golden
    for name in svexp mc logreg kde svexp_large mc_large three_engines_large; do
        PYTHONPATH=../../../src python -m shapcf.cli experiment \
            --config ${name}_config.json --out /tmp/golden-$name
        cp /tmp/golden-$name/trials.csv /tmp/golden-$name/summary.json $name/
    done
    for name in grid_vertical grid_zipfian; do
        PYTHONPATH=../../../src python -m shapcf.cli experiment \
            --config ${name}_config.json --out /tmp/golden-$name
        cp /tmp/golden-$name/trials.csv /tmp/golden-$name/summary.json \
            /tmp/golden-$name/pairwise_*.csv $name/
    done
    PYTHONPATH=../../../src python -m shapcf.cli shapley --mc --budget 3000 \
        --seed 7 --partition shapley_partition.json \
        --utility shapley_utility.json --out shapley_mc.json
    PYTHONPATH=../../../src python -m shapcf.cli shapley --exact --seed 7 \
        --data logreg_data.csv --partition shapley_logreg_partition.json \
        --utility shapley_logreg_utility.json --out shapley_logreg.json

and say in CHANGES.md which files moved and why.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from shapcf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("name", ["svexp", "mc", "logreg", "kde", "svexp_large", "mc_large", "three_engines_large"])
def test_experiment_outputs_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the logreg config names its data file relative to it
    out = tmp_path / name
    res = CliRunner().invoke(
        main, ["experiment", "--config", str(GOLDEN / f"{name}_config.json"), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    for artifact in ("trials.csv", "summary.json"):
        assert (out / artifact).read_bytes() == (GOLDEN / name / artifact).read_bytes(), artifact


@pytest.mark.parametrize("name", ["grid_vertical", "grid_zipfian"])
def test_grid_outputs_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    res = CliRunner().invoke(
        main, ["experiment", "--config", str(GOLDEN / f"{name}_config.json"), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    written = sorted(p.name for p in out.iterdir() if p.name != "timings.json")
    assert written == sorted(p.name for p in (GOLDEN / name).iterdir())
    for artifact in written:
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


def test_shapley_exact_logreg_output_matches_golden(tmp_path):
    out = tmp_path / "shapley_logreg.json"
    res = CliRunner().invoke(
        main,
        ["shapley", "--exact", "--seed", "7",
         "--data", str(GOLDEN / "logreg_data.csv"),
         "--partition", str(GOLDEN / "shapley_logreg_partition.json"),
         "--utility", str(GOLDEN / "shapley_logreg_utility.json"),
         "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (GOLDEN / "shapley_logreg.json").read_bytes()
