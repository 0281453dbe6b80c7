"""Command-line interface: shapley, explain, and experiment subcommands.

Every command first pays for `import shapcf`, which loads every submodule,
numpy most of it (`python -X importtime -c "import shapcf.cli"` shows the
split). numpy.random loads only when a command first spawns a random
stream: shapley --mc always, explain only for a request that samples
(explain.draws), and experiment only for a stage that draws (a data split,
a drawn allocation or pair, a sampled request). Building an oracle and
running an exact route load nothing more (tests/test_cold_start.py).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .core import MalformedInput, OwnerPartition, ShapcfError, spawn_rng
from .datasets import load_partition, read_json
from .explain import ENGINES, ExplainConfig, draws, explain as run_engine
from .harness import ExperimentConfig, load_split, run_experiment, write_outputs
from .shapley import shapley_exact_all, shapley_mc
from .utility import DATA_BACKED, UtilityOracle, check_config, make_oracle

# Stream tags for CLI-level randomness, disjoint from the harness tags.
_STREAM_SHAPLEY = 100
_STREAM_EXPLAIN = 101


def _inputs(command):
    """The options naming a partition and its utility, shared by shapley and explain."""
    options = [
        click.option("--data", type=click.Path(exists=True), default=None, help="CSV with the pooled data."),
        click.option("--test-data", type=click.Path(exists=True), default=None, help="Separate held-out CSV."),
        click.option("--test-ratio", type=float, default=0.2, show_default=True),
        click.option("--partition", "partition_path", type=click.Path(exists=True), required=True),
        click.option("--utility", "utility_path", type=click.Path(exists=True), required=True),
    ]
    for option in reversed(options):
        command = option(command)
    return command


def _load_inputs(
    data: str | None,
    test_data: str | None,
    test_ratio: float,
    partition_path: str,
    utility_path: str,
    seed: int,
    *,
    cache: bool = True,
) -> tuple[OwnerPartition, UtilityOracle]:
    """The partition and its utility's oracle; a data-backed utility's data is split on `seed`.

    The utility file is read and checked before any other file; a
    closed-form utility given --data or --test-data, which it never reads,
    is a usage error. Every entry of the partition must be one the oracle
    scores, in its pool.
    """
    cfg = read_json(utility_path, "utility file")
    kind, utility = check_config(cfg)
    train = test = None
    if kind in DATA_BACKED:
        if data is None:
            raise click.UsageError(f"utility kind {kind!r} needs --data")
        train, test = load_split(data, test_data, test_ratio, seed, label=utility.get("label"))
    else:
        for flag, path in (("--data", data), ("--test-data", test_data)):
            if path is not None:
                raise click.UsageError(f"utility kind {kind!r} reads no data file: drop {flag}")
    partition = load_partition(partition_path)
    oracle = make_oracle(cfg, train, test, cache=cache)
    stray = sorted(partition.universe().difference(oracle.pool))
    if stray:
        raise MalformedInput(
            f"partition entries {stray[:8]} are not among the {len(oracle.pool)} entry ids of the {oracle.kind} utility"
        )
    return partition, oracle


def _finite(value):
    """`value` with every non-finite float (an unbounded half-width) as None, JSON's null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(payload: dict, out: str | None) -> None:
    """Write `payload` as strict JSON: a non-finite float is written as null."""
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise MalformedInput(f"{out}: cannot write the file ({exc})") from None
        click.echo(f"wrote {out}", err=True)
    else:
        click.echo(text, nl=False)


@click.group()
def main() -> None:
    """Shapley valuation of data owners and counterfactual transfer sets."""


@main.command()
@_inputs
@click.option("--exact", "mode", flag_value="exact", default=True, help="Exact enumeration (default).")
@click.option("--mc", "mode", flag_value="mc", help="Monte Carlo permutation sampling.")
@click.option("--delta", type=click.FloatRange(0, 1, min_open=True, max_open=True), default=0.95,
              show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=100_000, show_default=True,
              help="Permutations for --mc.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
def shapley(data, test_data, test_ratio, partition_path, utility_path, mode, delta, budget, seed, out):
    """Value every owner in a partition."""
    try:
        # shapley_mc memoises its coalitions itself; only the exact route reuses the oracle's memo.
        partition, oracle = _load_inputs(
            data, test_data, test_ratio, partition_path, utility_path, seed, cache=mode == "exact"
        )
        if mode == "exact":
            values = shapley_exact_all(partition, oracle)
            payload = {
                "mode": "exact",
                "values": {o: {"value": v} for o, v in values.items()},
            }
        else:
            rng = spawn_rng(seed, _STREAM_SHAPLEY)
            ests = shapley_mc(partition, oracle, rng, delta=delta, budget=budget)
            payload = {
                "mode": "mc",
                "delta": delta,
                "budget": budget,
                "values": {
                    o: {"mean": e.mean, "half_width": e.half_width, "count": e.count}
                    for o, e in ests.items()
                },
            }
        _emit(payload, out)
    except ShapcfError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command(name="explain")
@click.option("--engine", type=click.Choice(sorted(ENGINES)), required=True)
@_inputs
@click.option("--a", "owner_a", required=True, help="Owner currently ranked higher.")
@click.option("--b", "owner_b", required=True, help="Owner to lift above --a.")
@click.option("--delta", type=float, default=ExplainConfig.delta, show_default=True)
@click.option("--epsilon", type=float, default=ExplainConfig.epsilon, show_default=True)
@click.option("--budget", type=int, default=ExplainConfig.check_budget, show_default=True,
              help="Permutations per flip check.")
@click.option("--timeout", type=float, default=ExplainConfig.timeout, show_default=True,
              help="Wall-clock limit, seconds.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def explain_cmd(engine, data, test_data, test_ratio, partition_path, utility_path,
                owner_a, owner_b, delta, epsilon, budget, timeout, seed, out):
    """Find a transfer set from owner --a to owner --b that flips their ranking."""
    try:
        ecfg = ExplainConfig(delta=delta, epsilon=epsilon, check_budget=budget, timeout=timeout)
        partition, oracle = _load_inputs(data, test_data, test_ratio, partition_path, utility_path, seed)
        rng = spawn_rng(seed, _STREAM_EXPLAIN) if draws(engine, partition) else None
        result = run_engine(engine, partition, oracle, owner_a, owner_b, rng, config=ecfg)
        _emit(result.to_dict(), out)
        click.echo(f"status={result.status} size={result.size} wall_time={result.wall_time:.3f}s", err=True)
    except ShapcfError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def experiment(config_path, out_dir):
    """Run a configured batch of explanation trials and write reports."""
    try:
        cfg = ExperimentConfig.from_json(config_path)
        result = run_experiment(cfg)
        written = write_outputs(result, out_dir)
        for path in written:
            click.echo(f"wrote {path}", err=True)
        for engine, stats in result.summary["engines"].items():
            click.echo(
                f"{engine}: trials={stats['trials']} completed={stats['completed']} "
                f"success_rate={stats['success_rate']} mean_size={stats['sizes']['mean']}"
            )
    except ShapcfError as exc:
        raise click.ClickException(str(exc)) from exc


if __name__ == "__main__":
    main(prog_name="shapcf", args=sys.argv[1:])
