"""Experiment harness: owner allocation generators, trial runner, reports.

A run is fully described by a JSON config (data paths, utility, allocation,
engines, trial count, seed) and is deterministic given its seed: every
randomized stage draws from its own named child stream, so trials.csv and
summary.json are byte-identical across reruns. Wall-clock numbers go to a
separate timings.json, which is the only non-deterministic artifact.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import (
    COUNT_RULE,
    MalformedInput,
    OwnerPartition,
    Rule,
    SizeOverflow,
    check_values,
    is_integer,
    spawn_rng,
)
from .datasets import Dataset, load_csv, read_json, split_dataset
from .explain import ENGINES, CounterfactualResult, ExplainConfig, _Request, explain
from .metrics import mean_jaccard, size_stats, success_rate
from .shapley import is_flipped  # unused here; perfbench/tracing.py wraps this name
from .utility import DATA_BACKED_KINDS, AdditiveUtility, SetCoverUtility, make_oracle, normalize_kind, unwrap_config

# RNG stream tags; stable across releases so seeds stay meaningful.
_STREAM_SPLIT = 0
_STREAM_PARTITION = 1
_STREAM_PAIR = 2
_STREAM_ENGINE = 3

PAIR_MODES = ("random", "designated", "grid")

# Random pairs drawn at most while their checks stay undecided.
_PAIR_REDRAWS = 10

_AT_LEAST_0: Rule = ("an integer >= 0", lambda v: is_integer(v) and v >= 0)
_AT_LEAST_2: Rule = ("an integer >= 2", lambda v: is_integer(v) and v >= 2)
_INTEGER: Rule = ("an integer", is_integer)
# Allocation keys and the values they accept; the generators check the ranges.
_ALLOCATION_RULES: dict[str, Rule] = {
    "a": _INTEGER,
    "k1": _INTEGER,
    "k2": _INTEGER,
    "k_max": _AT_LEAST_0,
    "size_range": (
        "two integers [lo, hi]",
        lambda v: v is None
        or isinstance(v, (list, tuple)) and len(v) == 2 and all(is_integer(x) for x in v),
    ),
}


def _draw_rows(pool: Sequence[int], size: int, rng: np.random.Generator) -> frozenset[int]:
    idx = rng.choice(len(pool), size=int(size), replace=False)
    return frozenset(int(pool[i]) for i in idx)


def gen_uniform(
    dataset: Dataset,
    n: int,
    rng: np.random.Generator,
    *,
    size_range: tuple[int, int] | None = None,
) -> OwnerPartition:
    """n owners with independently drawn row sets of uniform random size.

    Sizes are uniform on [lo, hi] (defaults to [1, row count]); each owner's
    rows are drawn without replacement from the full dataset independently of
    the other owners, so owners may overlap.
    """
    return _uniform_from_pool(range(len(dataset)), n, rng, size_range=size_range)


def _uniform_from_pool(
    pool: Sequence[int],
    n: int,
    rng: np.random.Generator,
    *,
    size_range: tuple[int, int] | None = None,
) -> OwnerPartition:
    m = len(pool)
    lo, hi = size_range if size_range is not None else (1, m)
    if not 1 <= lo <= hi:
        raise MalformedInput(f"bad size_range [{lo}, {hi}]")
    if hi > m:
        raise SizeOverflow(f"owner size bound {hi} exceeds the {m} available entries")
    owners = {}
    for i in range(int(n)):
        size = int(rng.integers(lo, hi + 1))
        owners[f"O{i}"] = _draw_rows(pool, size, rng)
    return OwnerPartition(owners)


def gen_zipfian(
    dataset: Dataset,
    n: int,
    rng: np.random.Generator,
    *,
    a: int = 3,
    k1: int,
    k2: int,
    k_max: int = 4,
) -> OwnerPartition:
    """Power-law owner sizes a^k with a designated pair A (a^k1) and B (a^k2).

    Filler owners draw their exponent uniformly from {0..k_max}. Sizes beyond
    the dataset raise SizeOverflow.
    """
    return _zipfian_from_pool(range(len(dataset)), n, rng, a=a, k1=k1, k2=k2, k_max=k_max)


def _zipfian_from_pool(
    pool: Sequence[int],
    n: int,
    rng: np.random.Generator,
    *,
    a: int,
    k1: int,
    k2: int,
    k_max: int,
) -> OwnerPartition:
    if n < 2:
        raise MalformedInput(f"need at least 2 owners, got {n}")
    if min(k1, k2, k_max) < 0 or max(k1, k2) > k_max:
        raise MalformedInput(f"exponents must satisfy 0 <= k1, k2 <= k_max, got {k1}, {k2}, {k_max}")
    if a < 2:
        raise MalformedInput(f"zipfian base must be >= 2, got {a}")
    m = len(pool)
    if a ** k_max > m:
        raise SizeOverflow(f"largest owner size {a ** k_max} exceeds the {m} available entries")
    owners = {"A": _draw_rows(pool, a ** k1, rng), "B": _draw_rows(pool, a ** k2, rng)}
    for i in range(2, int(n)):
        k = int(rng.integers(0, k_max + 1))
        owners[f"O{i}"] = _draw_rows(pool, a ** k, rng)
    return OwnerPartition(owners)


def gen_natural(dataset: Dataset) -> OwnerPartition:
    """Exact partition of rows by the dataset's group column."""
    if dataset.groups is None:
        raise MalformedInput("natural allocation needs a dataset with a group column")
    owners: dict[str, set[int]] = {}
    for row, g in enumerate(dataset.groups):
        owners.setdefault(g, set()).add(row)
    if len(owners) < 2:
        raise MalformedInput("natural allocation needs at least 2 distinct groups")
    return OwnerPartition({g: frozenset(rows) for g, rows in owners.items()})


def gen_vertical(dataset: Dataset, groups: Mapping[str, Sequence[str]]) -> OwnerPartition:
    """Exact partition of feature columns into named owner groups.

    Groups must be disjoint and cover every feature; entry ids are feature
    column positions, for use with axis="features" utilities.
    """
    index = {name: i for i, name in enumerate(dataset.feature_names)}
    owners: dict[str, frozenset[int]] = {}
    seen: set[str] = set()
    for owner, names in groups.items():
        bad = [n for n in names if n not in index]
        if bad:
            raise MalformedInput(f"unknown feature names {bad} in group {owner!r}")
        dup = [n for n in names if n in seen]
        if dup:
            raise MalformedInput(f"features {dup} appear in more than one group")
        seen.update(names)
        owners[str(owner)] = frozenset(index[n] for n in names)
    missing = sorted(set(index) - seen)
    if missing:
        raise MalformedInput(f"features {missing} are not covered by any group")
    return OwnerPartition(owners)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see from_json for the file shape."""

    utility: dict
    engines: tuple[str, ...]
    n_owners: int
    allocation: dict
    trials: int
    seed: int
    data: str | None = None
    test_data: str | None = None
    test_ratio: float = 0.2
    pair: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "ExperimentConfig":
        if isinstance(source, (str, Path)):
            source = read_json(source, "experiment config")
        if not isinstance(source, dict):
            raise MalformedInput("experiment config must be a JSON object")

        def get(key: str, cast=None, *default):
            if key not in source and not default:
                raise MalformedInput(f"experiment config needs {key!r}")
            value = source.get(key, *default)
            if cast is None:
                return value
            try:
                return cast(value)
            except (TypeError, ValueError):
                raise MalformedInput(f"experiment config has a bad {key!r}: {value!r}") from None

        utility = get("utility", dict)
        engines = get("engines")
        allocation = get("allocation", dict)
        trials = get("trials")
        seed = get("seed")
        n_owners = source.get("n_owners", 2)
        pair = get("pair", dict, {})
        if pair.get("mode") not in (None, *PAIR_MODES):
            raise MalformedInput(
                f"unknown pair mode {pair['mode']!r}; expected one of {list(PAIR_MODES)}"
            )
        for key in ("data", "test_data"):
            path = source.get(key)
            if path is not None and not isinstance(path, str):
                raise MalformedInput(f"experiment config has a bad {key!r}: {path!r} (need a path)")
        if not isinstance(engines, (list, tuple)) or not engines:
            raise MalformedInput(f"experiment config's 'engines' must be a non-empty list, got {engines!r}")
        unknown = [e for e in engines if not isinstance(e, str) or e not in ENGINES]
        if unknown or len(set(engines)) < len(engines):
            raise MalformedInput(f"'engines' must name distinct engines of {sorted(ENGINES)}, got {engines}")
        check_values(
            "experiment values",
            [
                ("trials", trials, _AT_LEAST_0),
                ("seed", seed, _AT_LEAST_0),
                ("n_owners", n_owners, _AT_LEAST_2),
                *(
                    (f"allocation {key}", value, _ALLOCATION_RULES[key])
                    for key, value in allocation.items()
                    if key in _ALLOCATION_RULES
                ),
            ],
        )
        return cls(
            utility=utility,
            engines=tuple(engines),
            n_owners=n_owners,
            allocation=allocation,
            trials=trials,
            seed=seed,
            data=source.get("data"),
            test_data=source.get("test_data"),
            test_ratio=get("test_ratio", float, 0.2),
            pair=pair,
            sampling=get("sampling", dict, {}),
        )

    def explain_config(self) -> ExplainConfig:
        keys = {f.name for f in fields(ExplainConfig)}
        picked = {k: v for k, v in self.sampling.items() if k in keys}
        counts = ("pair_budget",)  # the harness's own sampling key
        unknown = set(self.sampling) - keys - set(counts)
        if unknown:
            raise MalformedInput(f"unknown sampling keys {sorted(unknown)}")
        check_values(
            "sampling values",
            ((key, self.sampling[key], COUNT_RULE) for key in counts if key in self.sampling),
        )
        return ExplainConfig(**picked)

    @property
    def pair_budget(self) -> int:
        if "pair_budget" in self.sampling:
            return int(self.sampling["pair_budget"])
        return self.explain_config().check_budget


@dataclass(frozen=True)
class TrialRecord:
    cell: str
    trial: int
    engine: str
    a: str
    b: str
    status: str
    size: int
    success: bool
    timed_out: bool
    budget_exhausted: bool
    samples_used: int
    subsets_tested: int
    initial_diff: float
    initial_half_width: float
    delta_entries: tuple[int, ...]
    runtime_s: float  # wall clock; excluded from deterministic artifacts


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    summary: dict
    grids: dict[str, dict[str, list[list[float | None]]]]
    grid_axes: tuple[list[str], list[str]] | None


def load_split(
    data: str | Path,
    test_data: str | Path | None,
    test_ratio: float,
    seed: int,
    *,
    label: str | None = None,
    group: str | None = None,
) -> tuple[Dataset, Dataset]:
    """Train and test sets: `data` and `test_data`, or `data` split on the seed's split stream."""
    full = load_csv(data, label=label, group=group)
    if test_data is not None:
        return full, load_csv(test_data, label=label, group=group)
    return split_dataset(full, test_ratio, spawn_rng(seed, _STREAM_SPLIT))


def _load_data(cfg: ExperimentConfig) -> tuple[Dataset | None, Dataset | None]:
    inner = unwrap_config(cfg.utility)
    kind = normalize_kind(inner["kind"])
    alloc_kind = cfg.allocation.get("kind")
    needs = kind in DATA_BACKED_KINDS or alloc_kind in ("natural", "vertical")
    if not needs:
        return None, None
    if cfg.data is None:
        raise MalformedInput(f"utility kind {kind!r} / allocation {alloc_kind!r} needs a data file")
    return load_split(
        cfg.data, cfg.test_data, cfg.test_ratio, cfg.seed,
        label=inner.get("label"), group=cfg.allocation.get("group"),
    )


def _synthetic_pool(oracle) -> list[int]:
    if isinstance(oracle, AdditiveUtility):
        return sorted(oracle.weights)
    if isinstance(oracle, SetCoverUtility):
        return list(range(1, len(oracle.game.subsets) + 1))
    raise MalformedInput("generated allocations need a data file for this utility kind")


def _make_partition(
    cfg: ExperimentConfig,
    train: Dataset | None,
    oracle,
    rng: np.random.Generator | None,
    cell_params: dict,
) -> OwnerPartition:
    alloc = cfg.allocation
    kind = alloc.get("kind")
    if kind == "uniform":
        size_range = alloc.get("size_range")
        size_range = tuple(size_range) if size_range else None
        if train is not None:
            return gen_uniform(train, cfg.n_owners, rng, size_range=size_range)
        return _uniform_from_pool(_synthetic_pool(oracle), cfg.n_owners, rng, size_range=size_range)
    if kind == "zipfian":
        params = dict(
            a=alloc.get("a", 3),
            k1=cell_params.get("k1", alloc.get("k1", 0)),
            k2=cell_params.get("k2", alloc.get("k2", 0)),
            k_max=alloc.get("k_max", 4),
        )
        if train is not None:
            return gen_zipfian(train, cfg.n_owners, rng, **params)
        return _zipfian_from_pool(_synthetic_pool(oracle), cfg.n_owners, rng, **params)
    if kind == "natural":
        if train is None:
            raise MalformedInput("natural allocation needs a data file")
        return gen_natural(train)
    if kind == "vertical":
        if train is None:
            raise MalformedInput("vertical allocation needs a data file")
        groups = alloc.get("groups")
        if not isinstance(groups, dict):
            raise MalformedInput('vertical allocation needs a "groups" object')
        return gen_vertical(train, groups)
    raise MalformedInput(f"unknown allocation kind {kind!r}")


def _cells(cfg: ExperimentConfig, train: Dataset | None, oracle) -> list[tuple[str, dict]]:
    """Grid cells: (label, params). A single anonymous cell when not gridded."""
    alloc = cfg.allocation
    mode = cfg.pair.get("mode")
    if alloc.get("kind") == "zipfian" and alloc.get("grid"):
        k_max = alloc.get("k_max", 4)
        return [
            (f"k{k1}-k{k2}", {"k1": k1, "k2": k2})
            for k1 in range(k_max + 1)
            for k2 in range(k_max + 1)
        ]
    if mode == "grid":
        if alloc.get("kind") not in ("natural", "vertical"):
            raise MalformedInput('pair mode "grid" needs a natural or vertical allocation')
        ids = _make_partition(cfg, train, oracle, None, {}).owner_ids()
        return [(f"{a}->{b}", {"a": a, "b": b}) for a in ids for b in ids if a != b]
    return [("", {})]


def _select_pair(
    partition: OwnerPartition,
    oracle,
    rng: np.random.Generator,
    cfg: ExperimentConfig,
    ecfg: ExplainConfig,
    cell_params: dict,
) -> _Request:
    """Choose an ordered pair with a above b: its checked request, which every engine shares.

    Designated pairs are checked once; random pairs are re-drawn on undecided
    checks up to _PAIR_REDRAWS times, after which the last pair is kept (engines then
    report the undecided precondition). A pair drawn the wrong way round is
    kept as the swapped twin of its request.
    """

    def check(a: str, b: str) -> _Request:
        pair = _Request("pair", partition, oracle, a, b, rng, ecfg)
        pair.precheck(cfg.pair_budget)
        return pair

    mode = cfg.pair.get("mode")
    if mode is None:
        designated = "a" in cell_params or cfg.allocation.get("kind") == "zipfian"
        mode = "designated" if designated else "random"
    if mode != "random":
        # Grid cells name both owners; otherwise the pair config (or "A"/"B").
        a = str(cell_params.get("a", cfg.pair.get("a", "A")))
        b = str(cell_params.get("b", cfg.pair.get("b", "B")))
        return check(a, b)
    ids = partition.owner_ids()
    for _ in range(_PAIR_REDRAWS):
        i, j = rng.choice(len(ids), size=2, replace=False)
        pair = check(ids[int(i)], ids[int(j)])
        if pair.last.verdict == "not_flipped":
            return pair
        if pair.last.verdict == "flipped":
            return pair.swapped()
    return pair.swapped() if pair.last.estimate.mean < 0.0 else pair


def _run_cell(
    cfg: ExperimentConfig,
    ecfg: ExplainConfig,
    train: Dataset | None,
    oracle,
    cell_idx: int,
    cell: tuple[str, dict],
    served: OwnerPartition | None,
) -> tuple[list[TrialRecord], OwnerPartition | None]:
    """The cell's trials, and the partition the oracle's memo now serves.

    The memo is emptied whenever a trial's partition differs from `served`,
    the partition it was filled for: drawn allocations share almost no
    coalitions across trials, while natural and vertical ones rebuild the
    same partition in every trial and cell and keep their memo.
    """
    label, params = cell
    records: list[TrialRecord] = []
    for trial in range(cfg.trials):
        rng_part = spawn_rng(cfg.seed, _STREAM_PARTITION, cell_idx, trial)
        partition = _make_partition(cfg, train, oracle, rng_part, params)
        if partition != served:
            oracle.clear_cache()
            served = partition
        rng_pair = spawn_rng(cfg.seed, _STREAM_PAIR, cell_idx, trial)
        pair = _select_pair(partition, oracle, rng_pair, cfg, ecfg, params)
        for eng_idx, engine in enumerate(cfg.engines):
            rng_eng = spawn_rng(cfg.seed, _STREAM_ENGINE, cell_idx, trial, eng_idx)
            t0 = time.monotonic()
            res: CounterfactualResult = explain(
                engine, partition, oracle, pair.a, pair.b, rng_eng, config=ecfg, pair=pair
            )
            records.append(
                TrialRecord(
                    cell=label,
                    trial=trial,
                    engine=engine,
                    a=pair.a,
                    b=pair.b,
                    status=res.status,
                    size=res.size,
                    success=res.success,
                    timed_out=res.timed_out,
                    budget_exhausted=res.budget_exhausted,
                    samples_used=res.samples_used,
                    subsets_tested=res.subsets_tested,
                    initial_diff=res.initial_diff,
                    initial_half_width=res.initial_half_width,
                    delta_entries=res.delta,
                    runtime_s=time.monotonic() - t0,
                )
            )
    return records, served


def run_experiment(
    cfg: ExperimentConfig,
    *,
    datasets: tuple[Dataset | None, Dataset | None] | None = None,
) -> ExperimentResult:
    """Run all cells and trials; deterministic given cfg.seed.

    `datasets` injects preloaded (train, test) sets, bypassing file loading.
    """
    train, test = datasets if datasets is not None else _load_data(cfg)
    oracle = make_oracle(cfg.utility, train, test)
    ecfg = cfg.explain_config()
    cells = _cells(cfg, train, oracle)
    records: list[TrialRecord] = []
    served = None
    for i, cell in enumerate(cells):
        cell_records, served = _run_cell(cfg, ecfg, train, oracle, i, cell, served)
        records += cell_records

    grids, axes = _build_grids(cfg, records, cells)
    summary = summarize(cfg, records, grids, axes)
    return ExperimentResult(config=cfg, records=records, summary=summary, grids=grids, grid_axes=axes)


def _build_grids(
    cfg: ExperimentConfig, records: list[TrialRecord], cells: list[tuple[str, dict]]
) -> tuple[dict, tuple[list[str], list[str]] | None]:
    if len(cells) < 2:
        return {}, None
    zipf_grid = cfg.allocation.get("kind") == "zipfian" and cfg.allocation.get("grid")
    if zipf_grid:
        k_max = cfg.allocation.get("k_max", 4)
        rows = [f"k{k}" for k in range(k_max + 1)]
        cols = list(rows)
    else:
        ids = sorted({p["a"] for _, p in cells} | {p["b"] for _, p in cells})
        rows, cols = list(ids), list(ids)
    grids: dict[str, dict[str, list[list[float | None]]]] = {}
    by_cell: dict[tuple[str, str], list[TrialRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.cell, rec.engine), []).append(rec)
    for engine in cfg.engines:
        size_grid: list[list[float | None]] = []
        rate_grid: list[list[float | None]] = []
        for r in rows:
            size_row: list[float | None] = []
            rate_row: list[float | None] = []
            for c in cols:
                cell_label = f"{r}-{c}" if zipf_grid else f"{r}->{c}"
                recs = by_cell.get((cell_label, engine), [])
                sizes = [x.size for x in recs if x.status == "ok" and x.success]
                size_row.append(float(np.mean(sizes)) if sizes else None)
                rate_row.append(success_rate([(x.status, x.success, x.timed_out) for x in recs]))
            size_grid.append(size_row)
            rate_grid.append(rate_row)
        grids[engine] = {"size": size_grid, "success": rate_grid}
    return grids, (rows, cols)


def summarize(
    cfg: ExperimentConfig,
    records: list[TrialRecord],
    grids: dict,
    axes: tuple[list[str], list[str]] | None = None,
) -> dict:
    engines: dict[str, dict] = {}
    for engine in cfg.engines:
        recs = [r for r in records if r.engine == engine]
        ok = [r for r in recs if r.status == "ok" and not r.timed_out]
        succ = [r for r in ok if r.success]
        statuses: dict[str, int] = {}
        for r in recs:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        engines[engine] = {
            "trials": len(recs),
            "completed": len(ok),
            "statuses": statuses,
            "success_rate": success_rate([(r.status, r.success, r.timed_out) for r in recs]),
            "sizes": size_stats([r.size for r in succ]),
            "mean_samples": float(np.mean([r.samples_used for r in recs])) if recs else None,
        }
    agreement: dict[str, float | None] = {}
    by_key: dict[tuple[str, int, str], TrialRecord] = {
        (r.cell, r.trial, r.engine): r for r in records
    }
    for i, e1 in enumerate(cfg.engines):
        for e2 in cfg.engines[i + 1:]:
            pairs = []
            for (cell, trial, eng), r1 in by_key.items():
                if eng != e1:
                    continue
                r2 = by_key.get((cell, trial, e2))
                if r2 is None:
                    continue
                if r1.status == "ok" and r1.success and r2.status == "ok" and r2.success:
                    pairs.append((r1.delta_entries, r2.delta_entries))
            agreement[f"{e1}|{e2}"] = mean_jaccard(pairs)
    return {
        "engines": engines,
        "agreement": agreement,
        "n_records": len(records),
        "config": {
            "engines": list(cfg.engines),
            "n_owners": cfg.n_owners,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "allocation": cfg.allocation,
            "utility": unwrap_config(cfg.utility),
            "pair": cfg.pair,
            "sampling": cfg.sampling,
        },
        "pairwise": None if not grids else {
            "rows": axes[0] if axes else None,
            "cols": axes[1] if axes else None,
            "tables": grids,
        },
    }


_CSV_FIELDS = [f.name for f in fields(TrialRecord) if f.name != "runtime_s"]


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write trials.csv, summary.json, grid CSVs (deterministic) + timings.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    trials_path = out / "trials.csv"
    with trials_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_FIELDS)
        for r in result.records:
            w.writerow([
                ";".join(str(e) for e in r.delta_entries) if name == "delta_entries"
                else getattr(r, name)
                for name in _CSV_FIELDS
            ])
    written.append(trials_path)

    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    written.append(summary_path)

    if result.grids and result.grid_axes:
        rows, cols = result.grid_axes
        for engine, tables in result.grids.items():
            for name, table in tables.items():
                path = out / f"pairwise_{engine}_{name}.csv"
                with path.open("w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow([""] + cols)
                    for label, row in zip(rows, table):
                        w.writerow([label] + ["" if v is None else repr(v) for v in row])
                written.append(path)

    timings_path = out / "timings.json"
    timings = {
        "note": "wall-clock seconds; not covered by the determinism contract",
        "trials": [
            {"cell": r.cell, "trial": r.trial, "engine": r.engine, "runtime_s": r.runtime_s}
            for r in result.records
        ],
        "total_s": sum(r.runtime_s for r in result.records),
    }
    timings_path.write_text(json.dumps(timings, indent=2) + "\n")
    written.append(timings_path)
    return written
