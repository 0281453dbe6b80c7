"""Experiment harness: owner allocation generators, trial runner, reports.

A run is fully described by a JSON config (data paths, utility, allocation,
engines, trial count, seed) and is deterministic given its seed: every
randomized stage draws from its own named child stream, so trials.csv and
summary.json are byte-identical across reruns. A trial's pair and engine
streams are spawned only where a request draws from them (explain.draws):
an exact request with a designated pair needs neither. Wall-clock numbers
go to a separate timings.json, which is the only non-deterministic
artifact.

Trials are independent, so a cell's trials run in windows (_run_cell):
where the oracle shares work across a values() call, the pair checks of a
window's trials share one call, and then each round of their engines'
exact runs another (explain.window and explain.select_pairs). Then each
trial's engines run in turn through explain, replaying what the rounds
scored. A window changes oracle traffic only, never an output.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    COUNT_RULE,
    MalformedInput,
    OwnerId,
    OwnerPartition,
    Rule,
    SizeOverflow,
    check_values,
    is_integer,
    is_number,
    spawn_rng,
)
from .datasets import Dataset, check_test_ratio, load_csv, read_json, split_dataset
from .explain import ENGINES, CounterfactualResult, ExplainConfig, draws, explain, select_pairs, window
from .metrics import mean_jaccard, size_stats, success_rate
from .shapley import is_flipped  # unused here; perfbench/tracing.py wraps this name
from .utility import DATA_BACKED, check_config, make_oracle

# RNG stream tags; stable across releases so seeds stay meaningful.
_STREAM_SPLIT = 0
_STREAM_PARTITION = 1
_STREAM_PAIR = 2
_STREAM_ENGINE = 3

# Each pair mode and the keys it reads beside "mode", with their defaults:
# a designated pair is a over b. README's Experiment config lists this table.
PAIR_MODES: dict[str, dict[str, str]] = {"random": {}, "designated": {"a": "A", "b": "B"}, "grid": {}}

_AT_LEAST_0: Rule = ("an integer >= 0", lambda v: is_integer(v) and v >= 0)
_AT_LEAST_2: Rule = ("an integer >= 2", lambda v: is_integer(v) and v >= 2)
_INTEGER: Rule = ("an integer", is_integer)
# Allocation keys and the values they accept; _RANGES checks a generated kind's ranges.
_ALLOCATION_RULES: dict[str, Rule] = {
    "a": _INTEGER,
    "grid": ("true or false", lambda v: isinstance(v, bool)),
    "k1": _INTEGER,
    "k2": _INTEGER,
    "k_max": _AT_LEAST_0,
    "size_range": (
        "two integers [lo, hi]",
        lambda v: v is None
        or isinstance(v, (list, tuple)) and len(v) == 2 and all(is_integer(x) for x in v),
    ),
}
_OBJECT: Rule = ("a JSON object", lambda v: isinstance(v, dict))
_PATH: Rule = ("a path", lambda v: v is None or isinstance(v, str))
# The shape of each config field that is not a count.
_SHAPES: dict[str, Rule] = {
    "engines": (
        f"a non-empty list of distinct engines of {sorted(ENGINES)}",
        lambda v: isinstance(v, (list, tuple)) and bool(v)
        and all(isinstance(e, str) and e in ENGINES for e in v) and len(set(v)) == len(v),
    ),
    "allocation": _OBJECT,
    "data": _PATH,
    "test_data": _PATH,
    "test_ratio": ("a number", lambda v: v is None or is_number(v)),
    "pair": _OBJECT,
    "sampling": _OBJECT,
}

# gen_zipfian's default largest exponent; a zipfian grid without k_max spans it too.
_K_MAX = 4


def _draw_rows(pool: Sequence[int], size: int, rng: np.random.Generator) -> frozenset[int]:
    idx = rng.choice(len(pool), size=int(size), replace=False)
    return frozenset(map(pool.__getitem__, idx.tolist()))


def _uniform_ranges(*, size_range: tuple[int, int] | None) -> None:
    """Raise MalformedInput unless size_range is [lo, hi] with 1 <= lo <= hi; None (the whole pool) is not checked."""
    if size_range is not None and not 1 <= size_range[0] <= size_range[1]:
        raise MalformedInput(f"bad size_range [{size_range[0]}, {size_range[1]}]")


def _zipfian_ranges(*, a: int, k1: int, k2: int, k_max: int) -> None:
    """Raise MalformedInput unless 0 <= k1, k2 <= k_max and a >= 2."""
    if min(k1, k2, k_max) < 0 or max(k1, k2) > k_max:
        raise MalformedInput(f"exponents must satisfy 0 <= k1, k2 <= k_max, got {k1}, {k2}, {k_max}")
    if a < 2:
        raise MalformedInput(f"zipfian base must be >= 2, got {a}")


def gen_uniform(
    pool: Sequence[int],
    n: int,
    rng: np.random.Generator,
    *,
    size_range: tuple[int, int] | None = None,
) -> OwnerPartition:
    """n owners with independently drawn entry sets of uniform random size.

    Sizes are uniform on [lo, hi] (defaults to [1, len(pool)]); each owner's
    entries are drawn without replacement from the pool of entry ids (a
    dataset's rows are range(len(dataset))) independently of the other
    owners, so owners may overlap.
    """
    m = len(pool)
    lo, hi = size_range if size_range is not None else (1, m)
    _uniform_ranges(size_range=(lo, hi))
    if hi > m:
        raise SizeOverflow(f"owner size bound {hi} exceeds the {m} available entries")
    owners = {}
    for i in range(int(n)):
        size = int(rng.integers(lo, hi + 1))
        owners[f"O{i}"] = _draw_rows(pool, size, rng)
    return OwnerPartition(owners)


def gen_zipfian(
    pool: Sequence[int],
    n: int,
    rng: np.random.Generator,
    *,
    a: int = 3,
    k1: int = 0,
    k2: int = 0,
    k_max: int = _K_MAX,
) -> OwnerPartition:
    """Power-law owner sizes a^k with a designated pair A (a^k1) and B (a^k2).

    Entries are drawn from the pool of entry ids, as in gen_uniform. Filler
    owners draw their exponent uniformly from {0..k_max}. Sizes beyond the
    pool raise SizeOverflow.
    """
    if n < 2:
        raise MalformedInput(f"need at least 2 owners, got {n}")
    _zipfian_ranges(a=a, k1=k1, k2=k2, k_max=k_max)
    m = len(pool)
    if a ** k_max > m:
        raise SizeOverflow(f"largest owner size {a ** k_max} exceeds the {m} available entries")
    owners = {"A": _draw_rows(pool, a ** k1, rng), "B": _draw_rows(pool, a ** k2, rng)}
    for i in range(2, int(n)):
        k = int(rng.integers(0, k_max + 1))
        owners[f"O{i}"] = _draw_rows(pool, a ** k, rng)
    return OwnerPartition(owners)


_GENERATORS = {"uniform": gen_uniform, "zipfian": gen_zipfian}
# Each generator's range check, which it runs too; it takes the generator's keywords.
_RANGES = {"uniform": _uniform_ranges, "zipfian": _zipfian_ranges}
# Each allocation kind and the keys it reads beside "kind": a generated kind's
# generator keywords and zipfian's grid, natural's group column, vertical's
# groups. README's Experiment config lists this table.
_ALLOCATION_KEYS = {
    "uniform": ("size_range",),
    "zipfian": ("a", "k1", "k2", "k_max", "grid"),
    "natural": ("group",),
    "vertical": ("groups",),
}


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


def _vertical_groups(groups: Mapping[str, Sequence[str]]) -> None:
    """Raise MalformedInput unless every group is a list of feature names."""
    for owner, names in groups.items():
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise MalformedInput(f"group {owner!r} must be a list of feature names, got {names!r}")


def gen_vertical(dataset: Dataset, groups: Mapping[str, Sequence[str]]) -> OwnerPartition:
    """Exact partition of feature columns into named owner groups.

    Groups must be disjoint and cover every feature; entry ids are feature
    column positions, for use with axis="features" utilities.
    """
    _vertical_groups(groups)
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


def _needs_data(utility_kind: str, alloc_kind: str) -> bool:
    """Whether a run loads a table: for a data-backed utility or an allocation built from the table."""
    return utility_kind in DATA_BACKED or alloc_kind in ("natural", "vertical")


def _only(section: str, obj: dict, keys: Iterable[str]) -> None:
    """Raise MalformedInput naming every key of `obj` outside `keys`."""
    stray = set(obj) - set(keys)
    if stray:
        raise MalformedInput(f"unknown {section} keys {sorted(stray, key=str)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment, checked when it is built; README's Experiment config lists its keys.

    Any value or key the run would reject or ignore raises MalformedInput
    here, before any data loads: the utility's kind, keys and values by
    utility.check_config, the rest (the allocation against the utility's
    axis too) here and by ExplainConfig. Construction also resolves what
    the run reads off the sampling and pair sections: the engines'
    explain_config, the pair_budget (check_budget unless set) and the
    pair_mode (designated for a zipfian allocation, else random, unless
    set); and the test_ratio, 0.2 unless set.
    """

    utility: dict
    engines: tuple[str, ...]
    allocation: dict
    trials: int
    seed: int
    n_owners: int = 2
    data: str | None = None
    test_data: str | None = None
    test_ratio: float | None = None
    pair: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)
    explain_config: ExplainConfig = field(init=False)
    pair_budget: int = field(init=False)
    pair_mode: str = field(init=False)

    def __post_init__(self) -> None:
        utility_kind, utility = check_config(self.utility)
        for key, (need, ok) in _SHAPES.items():
            if not ok(getattr(self, key)):
                raise MalformedInput(f"experiment config has a bad {key!r}: {getattr(self, key)!r} (need {need})")
        alloc, pair, sampling = self.allocation, self.pair, self.sampling
        kind = alloc.get("kind")
        if kind not in _ALLOCATION_KEYS:
            raise MalformedInput(f"unknown allocation kind {kind!r}; expected one of {sorted(_ALLOCATION_KEYS)}")
        # A zipfian grid sets k1 and k2 per cell.
        grid = kind == "zipfian" and alloc.get("grid") is True
        _only("zipfian grid" if grid else f"{kind} allocation", alloc,
              {"kind", *_ALLOCATION_KEYS[kind]} - ({"k1", "k2"} if grid else set()))
        if kind == "vertical":
            if not isinstance(alloc.get("groups"), dict):
                raise MalformedInput('vertical allocation needs a "groups" object')
            _vertical_groups(alloc["groups"])
        if kind == "natural" and not isinstance(alloc.get("group"), str):
            raise MalformedInput(f'natural allocation needs a "group" column name, got {alloc.get("group")!r}')
        # A vertical allocation's entries are feature columns, every other kind's
        # training rows; every data-backed oracle's axis defaults to rows.
        need, axis = "features" if kind == "vertical" else "rows", utility.get("axis", "rows")
        if utility_kind in DATA_BACKED and axis != need:
            raise MalformedInput(f"a {kind!r} allocation needs a utility with axis {need!r}, got axis {axis!r}")
        if not _needs_data(utility_kind, kind):
            for key in ("data", "test_data", "test_ratio"):
                if getattr(self, key) is not None:
                    raise MalformedInput(f"a {utility_kind!r} utility with a {kind!r} allocation reads no {key!r}")
        if self.test_ratio is not None and self.test_data is not None:
            raise MalformedInput("'test_ratio' is not read beside 'test_data', which is held out whole")
        mode = pair.get("mode")
        if mode is None:
            mode = "designated" if kind == "zipfian" else "random"
        if mode not in PAIR_MODES:
            raise MalformedInput(f"unknown pair mode {mode!r}; expected one of {list(PAIR_MODES)}")
        _only(f"{mode} pair", pair, ("mode", *PAIR_MODES[mode]))
        if mode == "grid" and kind not in ("natural", "vertical"):
            raise MalformedInput('pair mode "grid" needs a natural or vertical allocation')
        check_values(
            "experiment values",
            [
                ("trials", self.trials, _AT_LEAST_0),
                ("seed", self.seed, _AT_LEAST_0),
                ("n_owners", self.n_owners, _AT_LEAST_2),
                *((f"allocation {key}", alloc[key], rule) for key, rule in _ALLOCATION_RULES.items() if key in alloc),
            ],
        )
        # The data-free part of what the generator and the loader check, on
        # the generator's own defaults for the keys the allocation leaves out.
        if kind in _RANGES:
            params = {key: alloc[key] for key in _ALLOCATION_KEYS[kind] if key in alloc and key != "grid"}
            _RANGES[kind](**_GENERATORS[kind].__kwdefaults__ | params)
        test_ratio = 0.2 if self.test_ratio is None else self.test_ratio
        check_test_ratio(test_ratio)
        names = {f.name for f in fields(ExplainConfig)}
        _only("sampling", sampling, {*names, "pair_budget"})
        ecfg = ExplainConfig(**{key: value for key, value in sampling.items() if key in names})
        budget = sampling.get("pair_budget", ecfg.check_budget)
        check_values("sampling values", [("pair_budget", budget, COUNT_RULE)])
        for key, value in (
            ("engines", tuple(self.engines)), ("test_ratio", float(test_ratio)),
            ("explain_config", ecfg), ("pair_budget", int(budget)), ("pair_mode", mode),
        ):
            object.__setattr__(self, key, value)

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "ExperimentConfig":
        """The config in a JSON file, or its parsed object, as the constructor checks it."""
        if isinstance(source, (str, Path)):
            source = read_json(source, "experiment config")
        if not isinstance(source, dict):
            raise MalformedInput("experiment config must be a JSON object")
        keys = [f for f in fields(cls) if f.init]
        _only("experiment config", source, (f.name for f in keys))
        missing = [f.name for f in keys if f.name not in source and f.default is f.default_factory is MISSING]
        if missing:
            raise MalformedInput(f"experiment config needs {', '.join(map(repr, missing))}")
        return cls(**source)


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
    # Wall clock: each window's cell, trials and select_pairs_s; excluded from deterministic artifacts.
    windows: list[dict]


def load_split(
    data: str | Path,
    test_data: str | Path | None,
    test_ratio: float,
    seed: int,
    *,
    label: str | None = None,
    group: str | None = None,
) -> tuple[Dataset, Dataset]:
    """Train and test sets: `data` and `test_data`, or `data` split on the seed's split stream.

    `test_data` must have `data`'s feature columns, in the same order.
    """
    full = load_csv(data, label=label, group=group)
    if test_data is not None:
        test = load_csv(test_data, label=label, group=group)
        if test.feature_names != full.feature_names:
            raise MalformedInput(
                f"{test_data}: feature columns {list(test.feature_names)} differ from"
                f" {data}'s {list(full.feature_names)}"
            )
        return full, test
    return split_dataset(full, test_ratio, spawn_rng(seed, _STREAM_SPLIT))


def _load_data(cfg: ExperimentConfig) -> tuple[Dataset | None, Dataset | None]:
    kind, utility = check_config(cfg.utility)
    alloc_kind = cfg.allocation.get("kind")
    if not _needs_data(kind, alloc_kind):
        return None, None
    if cfg.data is None:
        raise MalformedInput(f"utility kind {kind!r} / allocation {alloc_kind!r} needs a data file")
    return load_split(
        cfg.data, cfg.test_data, cfg.test_ratio, cfg.seed,
        label=utility.get("label"), group=cfg.allocation.get("group"),
    )


def _make_partition(
    cfg: ExperimentConfig,
    train: Dataset | None,
    pool: Sequence[int],
    rng: np.random.Generator | None,
    cell_params: dict,
) -> OwnerPartition:
    alloc = cfg.allocation
    if alloc["kind"] == "natural":
        return gen_natural(train)
    if alloc["kind"] == "vertical":
        return gen_vertical(train, alloc["groups"])
    # A zipfian grid cell's k1 and k2 stand in for the allocation's.
    params = {key: value for key, value in alloc.items() if key not in ("kind", "grid")} | cell_params
    return _GENERATORS[alloc["kind"]](pool, cfg.n_owners, rng, **params)


class _Cell(NamedTuple):
    """One grid cell: its trial label, its allocation or pair parameters, its table position."""

    label: str
    params: dict
    row: int
    col: int


def _cells(cfg: ExperimentConfig, train: Dataset | None, pool: Sequence[int]) -> tuple[list[_Cell], list[str] | None]:
    """The grid's cells and its axis labels (rows and columns alike); one anonymous cell when not gridded."""
    alloc = cfg.allocation
    if cfg.pair_mode == "grid":
        ids = _make_partition(cfg, train, pool, None, {}).owner_ids()
        cells = [
            _Cell(f"{a}->{b}", {"a": a, "b": b}, i, j)
            for i, a in enumerate(ids)
            for j, b in enumerate(ids)
            if a != b
        ]
        return cells, list(ids)
    if alloc.get("grid"):
        ks = range(alloc.get("k_max", _K_MAX) + 1)
        cells = [_Cell(f"k{k1}-k{k2}", {"k1": k1, "k2": k2}, k1, k2) for k1 in ks for k2 in ks]
        return cells, [f"k{k}" for k in ks]
    return [_Cell("", {}, 0, 0)], None


def _run_cell(
    cfg: ExperimentConfig,
    train: Dataset | None,
    oracle,
    cell_idx: int,
    cell: _Cell,
    served: list[OwnerPartition],
) -> tuple[list[TrialRecord], list[dict], list[OwnerPartition]]:
    """The cell's trials, its windows' timings, and the partitions the oracle's memo now serves.

    Trials run in windows of explain.window trials, judged on the first
    trial's partition: their pairs are selected, and the cell's engines run
    in lock-step rounds that score into the pairs' tables, together
    (select_pairs); then each trial's engines run in turn through explain,
    replaying those tables. The memo is emptied before a
    window with a partition it was not filled for
    (`served`): drawn allocations share almost no coalitions across
    trials, while natural and vertical ones rebuild the same partition in
    every trial and cell and keep their memo. So with drawn partitions it
    never holds more than one window's sets. A window's select_pairs call
    serves all its trials, so its wall time is recorded once, by window.
    """
    records: list[TrialRecord] = []
    windows: list[dict] = []

    def partition_of(trial: int) -> OwnerPartition:
        rng = spawn_rng(cfg.seed, _STREAM_PARTITION, cell_idx, trial)
        return _make_partition(cfg, train, oracle.pool, rng, cell.params)

    if not cfg.trials:
        return records, windows, served
    # A grid cell's pair or a designated one (the pair config's, or the
    # defaults) is fixed for the cell; None draws a random pair per trial.
    fixed = None if cfg.pair_mode == "random" else tuple(
        str(cell.params.get(key, cfg.pair.get(key, default))) for key, default in PAIR_MODES["designated"].items()
    )
    first = partition_of(0)
    width = window(oracle, first)
    for start in range(0, cfg.trials, width):
        trials = range(start, min(cfg.trials, start + width))
        partitions = [first if trial == 0 else partition_of(trial) for trial in trials]
        if not all(p in served for p in partitions):
            oracle.clear_cache()
            served = partitions
        rngs = [
            spawn_rng(cfg.seed, _STREAM_PAIR, cell_idx, trial) if fixed is None or draws("pair", partition) else None
            for trial, partition in zip(trials, partitions)
        ]
        t0 = time.monotonic()
        pairs = select_pairs(partitions, oracle, rngs, cfg.explain_config, cfg.pair_budget, fixed, cfg.engines)
        windows.append({"cell": cell.label, "trials": list(trials), "select_pairs_s": time.monotonic() - t0})
        for trial, partition, pair in zip(trials, partitions, pairs):
            for eng_idx, engine in enumerate(cfg.engines):
                rng_eng = None
                if draws(engine, partition):
                    rng_eng = spawn_rng(cfg.seed, _STREAM_ENGINE, cell_idx, trial, eng_idx)
                t0 = time.monotonic()
                res: CounterfactualResult = explain(
                    engine, partition, oracle, pair.a, pair.b, rng_eng, config=cfg.explain_config, pair=pair
                )
                records.append(
                    TrialRecord(
                        cell=cell.label,
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
    return records, windows, served


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all cells and trials; deterministic given cfg.seed."""
    train, test = _load_data(cfg)
    oracle = make_oracle(cfg.utility, train, test)
    cells, axis = _cells(cfg, train, oracle.pool)
    records: list[TrialRecord] = []
    windows: list[dict] = []
    served: list[OwnerPartition] = []
    for i, cell in enumerate(cells):
        cell_records, cell_windows, served = _run_cell(cfg, train, oracle, i, cell, served)
        records += cell_records
        windows += cell_windows

    grids, axes = _build_grids(cfg.engines, records, cells, axis)
    summary = summarize(cfg, records, grids, axes)
    return ExperimentResult(
        config=cfg, records=records, summary=summary, grids=grids, grid_axes=axes, windows=windows
    )


def _build_grids(
    engines: Sequence[str], records: list[TrialRecord], cells: list[_Cell], axis: list[str] | None
) -> tuple[dict, tuple[list[str], list[str]] | None]:
    """Per engine, the mean success size and the success rate of each cell, at its position."""
    if axis is None:
        return {}, None
    by_cell: dict[tuple[str, str], list[TrialRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.cell, rec.engine), []).append(rec)
    grids: dict[str, dict[str, list[list[float | None]]]] = {}
    for engine in engines:
        size_grid: list[list[float | None]] = [[None] * len(axis) for _ in axis]
        rate_grid: list[list[float | None]] = [[None] * len(axis) for _ in axis]
        for cell in cells:
            recs = by_cell.get((cell.label, engine), [])
            sizes = [x.size for x in recs if x.status == "ok" and x.success]
            size_grid[cell.row][cell.col] = float(np.mean(sizes)) if sizes else None
            rate_grid[cell.row][cell.col] = success_rate([(x.status, x.success, x.timed_out) for x in recs])
        grids[engine] = {"size": size_grid, "success": rate_grid}
    return grids, (axis, axis)


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
    # Each (cell, trial)'s successful explanations, by engine, in record order.
    found: dict[tuple[str, int], dict[str, tuple[int, ...]]] = {}
    for r in records:
        if r.status == "ok" and r.success:
            found.setdefault((r.cell, r.trial), {})[r.engine] = r.delta_entries
    agreement = {
        f"{e1}|{e2}": mean_jaccard([(by[e1], by[e2]) for by in found.values() if e1 in by and e2 in by])
        for i, e1 in enumerate(cfg.engines)
        for e2 in cfg.engines[i + 1:]
    }
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
            "utility": check_config(cfg.utility)[1],
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
    try:
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
            "windows": result.windows,
            "total_s": sum(r.runtime_s for r in result.records) + sum(w["select_pairs_s"] for w in result.windows),
        }
        timings_path.write_text(json.dumps(timings, indent=2) + "\n")
        written.append(timings_path)
    except OSError as exc:
        raise MalformedInput(f"{out}: cannot write the outputs ({exc})") from None
    return written
