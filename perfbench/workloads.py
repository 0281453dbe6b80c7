"""Seeded inputs for the benchmark workloads.

Each workload turns (seed, experiment index) into the files that
`shapcf experiment` reads: a CSV data file where the utility needs one and a
JSON experiment config. Nothing else reaches the program. Budgets are those
the acceptance tests run the engines at.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WARMUP_INDEX = 2**20  # experiment index of the warm-up inputs, apart from the timed ones

SAMPLING = {
    "check_budget": 2000,
    "verify_budget": 4000,
    "arm_budget": 1200,
    "bandit_budget": 12000,
    "epsilon": 0.05,
    "pair_budget": 800,
}


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int  # trials per experiment
    nominal_s: float  # rough wall time of one experiment, sets the count
    warmup_trials: int  # trials of the untimed warm-up experiment
    why: str

    def experiments(self, seconds: float) -> int:
        """Experiments in a run of about `seconds`; fixed by the arguments alone."""
        return max(2, math.ceil(seconds / self.nominal_s))

    def write_inputs(self, seed: int, index: int, dest: Path, trials: int | None = None) -> Path:
        dest.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([int(seed) % 2**64, int(index), list(WORKLOADS).index(self.name)])
        config = {"trials": trials or self.trials, "seed": int(rng.integers(2**31))}
        config.update(_BUILDERS[self.name](rng, dest))
        path = dest / "config.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
        return path

    def write_warmup(self, seed: int, dest: Path) -> Path:
        """A small experiment drawn apart from the timed ones."""
        return self.write_inputs(seed, WARMUP_INDEX, dest, trials=self.warmup_trials)


def _blobs_csv(rng: np.random.Generator, dest: Path, rows: int, features: int, sep: float) -> str:
    """Two unit-variance Gaussian clusters at +-sep/2 on every axis, labelled 0/1."""
    half = rows // 2
    x = np.vstack([
        rng.normal(-sep / 2, 1.0, size=(half, features)),
        rng.normal(sep / 2, 1.0, size=(rows - half, features)),
    ])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(rows - half, dtype=int)])
    order = rng.permutation(rows)
    with (dest / "data.csv").open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([f"f{j}" for j in range(features)] + ["y"])
        for i in order:
            out.writerow([repr(float(v)) for v in x[i]] + [int(y[i])])
    return "data.csv"


def _kde_svexp(rng: np.random.Generator, dest: Path) -> dict:
    return {
        "data": _blobs_csv(rng, dest, rows=400, features=2, sep=0.8),
        "test_ratio": 0.2,
        "utility": {"kind": "kde", "label": "y"},
        "engines": ["svexp"],
        "n_owners": 6,
        "allocation": {"kind": "uniform", "size_range": [10, 20]},
        "sampling": dict(SAMPLING),
    }


def _logreg_bf(rng: np.random.Generator, dest: Path) -> dict:
    return {
        "data": _blobs_csv(rng, dest, rows=280, features=4, sep=1.0),
        "test_ratio": 0.2,
        "utility": {"kind": "logistic-regression", "label": "y", "iters": 200},
        "engines": ["bf"],
        "n_owners": 5,
        # 3-4 rows per owner, not 3-6: see README.md, "Why owners hold 3-4 rows"
        "allocation": {"kind": "uniform", "size_range": [3, 4]},
        "sampling": {"pair_budget": SAMPLING["pair_budget"]},
    }


def _additive_mc(rng: np.random.Generator, dest: Path) -> dict:
    weights = rng.pareto(1.5, size=300)
    return {
        "utility": {"kind": "additive", "weights": {str(i): float(w) for i, w in enumerate(weights)}},
        "engines": ["mc"],
        "n_owners": 6,
        # A holds 2^3 entries, B 2^1, fillers 2^U{0..4}; the pair is A over B.
        "allocation": {"kind": "zipfian", "a": 2, "k1": 3, "k2": 1, "k_max": 4},
        "pair": {"mode": "designated", "a": "A", "b": "B"},
        "sampling": {k: SAMPLING[k] for k in ("check_budget", "verify_budget", "pair_budget")},
    }


_BUILDERS = {"kde-svexp": _kde_svexp, "logreg-bf": _logreg_bf, "additive-mc": _additive_mc}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kde-svexp", trials=3, nominal_s=2.1, warmup_trials=1,
            why="KDE utility with the greedy svexp engine: sampling-bound, the bandit race dominates",
        ),
        Workload(
            "logreg-bf", trials=10, nominal_s=1.6, warmup_trials=4,
            why="logistic-regression utility with exact bf search: oracle-bound, no sampling in the engine",
        ),
        Workload(
            "additive-mc", trials=150, nominal_s=2.2, warmup_trials=30,
            why="cheap additive utility with the mc engine: flip-check-bound, heavy cache writes",
        ),
    )
}
