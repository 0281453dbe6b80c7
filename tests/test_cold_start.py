"""Cold start: importing shapcf, building an oracle and running an exact route load nothing extra.

Each check runs in a fresh interpreter, since this one has long since
imported whatever the rest of the suite needed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapcf
from shapcf.core import MalformedInput
from shapcf.datasets import Dataset
from shapcf.utility import LogRegUtility

from conftest import make_blobs

SRC = str(Path(shapcf.__file__).resolve().parents[1])


def new_modules(before: str, after: str) -> list[str]:
    """Modules a fresh interpreter imports running `after`, once it has run `before`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import json, sys",
        before,
        "seen = set(sys.modules)",
        after,
        "print(json.dumps(sorted(set(sys.modules) - seen)))",
    ])
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_importing_the_package_loads_neither_statistics_nor_numpy_ma():
    added = new_modules("import numpy", "import shapcf")
    assert "shapcf.utility" in added and "shapcf.metrics" in added
    assert not [m for m in added if m.split(".")[0] in ("statistics", "decimal", "fractions")]
    assert not [m for m in added if m == "numpy.ma" or m.startswith("numpy.ma.")]


def test_importing_the_package_loads_no_numpy_random():
    # Only a request that spawns or draws from a stream needs numpy.random.
    added = new_modules("import numpy", "import shapcf")
    assert "shapcf.power" in added
    assert not [m for m in added if m == "numpy.random" or m.startswith("numpy.random.")]


# Every oracle kind, each scoring sets alone and in a batch (a single-feature
# logistic table of unequal sets standardizes a zero-padded one-column stack),
# then one exact-route request per engine on a 3-owner partition.
ORACLES_AND_EXACT_ROUTES = """
import numpy as np
from shapcf import Dataset, OwnerPartition, explain, make_oracle, spawn_rng

rng = np.random.default_rng(0)
labels = np.arange(40) % 2 * 1.0
wide = Dataset(features=rng.normal(size=(40, 3)) + labels[:, None], feature_names=("x", "y", "z"), labels=labels)
thin = Dataset(features=rng.normal(size=(40, 1)) + labels[:, None], feature_names=("x",), labels=labels)
oracles = [
    make_oracle({"kind": "additive", "weights": {str(i): float(i % 7) for i in range(40)}}),
    make_oracle({"kind": "set-cover", "universe": [1, 2, 3], "subsets": [[1], [2, 3], [1, 3], [2]]}),
    make_oracle({"kind": "kde"}, wide, wide),
    make_oracle({"kind": "logistic-regression"}, wide, wide),
    make_oracle({"kind": "logistic-regression"}, thin, thin),
    make_oracle({"kind": "logistic-regression", "axis": "features"}, wide, wide),
    make_oracle({"kind": "linear-regression"}, wide, wide),
]
for oracle in oracles[2:]:
    limit = 3 if getattr(oracle, "axis", "rows") == "features" else 40
    oracle.values([frozenset(range(0, limit, 2)), frozenset(range(1, limit)), frozenset({0, 1})])
    oracle.value(frozenset(range(limit)))
rows = OwnerPartition({"A": frozenset(range(0, 12)), "B": frozenset(range(12, 15)), "C": frozenset(range(15, 20))})
for oracle in (oracles[0], oracles[3]):
    for i, engine in enumerate(("bf", "mc", "svexp")):
        explain(engine, rows, oracle, "A", "B", spawn_rng(1, i))
"""


def test_oracles_and_exact_routes_import_nothing_after_the_package():
    assert new_modules("import shapcf, numpy.random", ORACLES_AND_EXACT_ROUTES) == []


# A KDE oracle and one call's sets in two nearly full stacks (16 sets of 50
# rows and 13 of 60 against 80 test points).
THREADED_KDE_CALL = """
import threading

import numpy as np
from shapcf import Dataset, make_oracle

rng = np.random.default_rng(0)
train = Dataset(features=rng.normal(size=(300, 2)), feature_names=("x", "y"))
test = Dataset(features=rng.normal(size=(80, 2)), feature_names=("x", "y"))
oracle = make_oracle({"kind": "kde"}, train, test)
sets = [frozenset(rng.choice(300, size=size, replace=False).tolist()) for size in [50] * 16 + [60] * 13]
"""


def test_a_threaded_kde_call_imports_nothing_after_the_package():
    # The call scores both stacks on the caller: it starts no thread and loads no module.
    call = "started = []\nstart = threading.Thread.start\nthreading.Thread.start = lambda t: started.append(t) or start(t)\n"
    added = new_modules(THREADED_KDE_CALL, call + "oracle.values(sets)\nassert not started")
    assert added == []


def explain_fresh(tmp_path: Path, engine: str, n_owners: int, seed: int) -> tuple[list[str], dict]:
    """`shapcf explain`, A over B, on an additive game of `n_owners` in a fresh interpreter: its modules and output."""
    utility = {"kind": "additive", "weights": {str(e): 1.0 + e % 4 for e in range(2 * n_owners + 1)}}
    owners = {"A": [0, 1, 2, 3], "B": [4], **{f"O{i}": [5 + 2 * i, 6 + 2 * i] for i in range(n_owners - 2)}}
    (tmp_path / "utility.json").write_text(json.dumps(utility))
    (tmp_path / "partition.json").write_text(json.dumps({"owners": owners}))
    out = tmp_path / "out.json"
    args = [
        "explain", "--engine", engine, "--a", "A", "--b", "B", "--budget", "2000", "--seed", str(seed),
        "--partition", str(tmp_path / "partition.json"), "--utility", str(tmp_path / "utility.json"), "--out", str(out),
    ]
    added = new_modules("", f"from shapcf.cli import main\nmain({args!r}, standalone_mode=False)")
    return added, json.loads(out.read_text())


@pytest.mark.parametrize("engine", ["bf", "mc"])
def test_an_exact_explain_request_loads_no_numpy_random(tmp_path, engine):
    # Up to 9 owners mc is exact, and bf always is: neither spawns its stream.
    added, payload = explain_fresh(tmp_path, engine, 5, seed=3)
    assert payload["status"] == "ok" and payload["success"] and payload["samples_used"] == 0
    assert "shapcf.cli" in added and "numpy" in added
    assert not [m for m in added if m == "numpy.random" or m.startswith("numpy.random.")]


def test_a_sampled_explain_request_draws_the_explain_stream(tmp_path):
    # At 10 owners mc samples, from the seed's explain stream, as it always has.
    from shapcf import ExplainConfig, explain, load_partition, make_oracle, spawn_rng
    from shapcf.cli import _STREAM_EXPLAIN, _finite

    added, payload = explain_fresh(tmp_path, "mc", 10, seed=3)
    assert "numpy.random" in added and payload["samples_used"] > 0
    partition = load_partition(tmp_path / "partition.json")
    oracle = make_oracle(json.loads((tmp_path / "utility.json").read_text()))
    rng = spawn_rng(3, _STREAM_EXPLAIN)
    expected = explain("mc", partition, oracle, "A", "B", rng, config=ExplainConfig(check_budget=2000)).to_dict()
    assert payload == _finite(expected)


class TestLogisticLabels:
    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 2.5)])
    def test_any_two_labels_score_as_zero_and_one(self, lo, hi):
        ds = make_blobs(40, n_features=2, seed=5)
        relabelled = Dataset(
            features=ds.features,
            feature_names=ds.feature_names,
            labels=np.where(ds.labels == 1.0, hi, lo),
            label_name="y",
        )
        sets = [frozenset(range(0, 40, 3)), frozenset(range(20)), frozenset(i for i in range(40) if ds.labels[i] == 0.0)]
        assert LogRegUtility(relabelled, relabelled).values(sets) == LogRegUtility(ds, ds).values(sets)

    def test_three_classes_still_raise(self):
        ds = make_blobs(30, n_features=2, seed=6)
        three = Dataset(features=ds.features, feature_names=ds.feature_names, labels=np.arange(30) % 3 * 1.0)
        with pytest.raises(MalformedInput, match="labels must be binary, found 3 classes"):
            LogRegUtility(three, three)
