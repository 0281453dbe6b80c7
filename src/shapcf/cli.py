"""Command-line interface: shapley, explain, and experiment subcommands."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .core import ShapcfError, spawn_rng
from .datasets import Dataset, load_partition, read_json, validate_partition
from .explain import ENGINES, ExplainConfig, explain as run_engine
from .harness import ExperimentConfig, load_split, run_experiment, write_outputs
from .shapley import shapley_exact_all, shapley_mc
from .utility import DATA_BACKED_KINDS, make_oracle, normalize_kind, unwrap_config

# Stream tags for CLI-level randomness, disjoint from the harness tags.
_STREAM_SHAPLEY = 100
_STREAM_EXPLAIN = 101


def _load_utility_inputs(
    utility_path: str,
    data: str | None,
    test_data: str | None,
    test_ratio: float,
    seed: int,
) -> tuple[dict, Dataset | None, Dataset | None]:
    cfg = read_json(utility_path, "utility file")
    inner = unwrap_config(cfg)
    kind = normalize_kind(inner["kind"])
    if kind not in DATA_BACKED_KINDS:
        return cfg, None, None
    if data is None:
        raise click.UsageError(f"utility kind {kind!r} needs --data")
    return (cfg, *load_split(data, test_data, test_ratio, seed, label=inner.get("label")))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
        click.echo(f"wrote {out}", err=True)
    else:
        click.echo(text, nl=False)


@click.group()
def main() -> None:
    """Shapley valuation of data owners and counterfactual transfer sets."""


@main.command()
@click.option("--data", type=click.Path(exists=True), default=None, help="CSV with the pooled data.")
@click.option("--test-data", type=click.Path(exists=True), default=None, help="Separate held-out CSV.")
@click.option("--test-ratio", type=float, default=0.2, show_default=True)
@click.option("--partition", "partition_path", type=click.Path(exists=True), required=True)
@click.option("--utility", "utility_path", type=click.Path(exists=True), required=True)
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
        cfg, train, test = _load_utility_inputs(utility_path, data, test_data, test_ratio, seed)
        partition = load_partition(partition_path)
        if train is not None:
            axis = unwrap_config(cfg).get("axis", "rows")
            validate_partition(partition, train, axis=axis)
        # shapley_mc memoises its coalitions itself; only the exact route reuses the oracle's memo.
        oracle = make_oracle(cfg, train, test, cache=mode == "exact")
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
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--test-data", type=click.Path(exists=True), default=None)
@click.option("--test-ratio", type=float, default=0.2, show_default=True)
@click.option("--partition", "partition_path", type=click.Path(exists=True), required=True)
@click.option("--utility", "utility_path", type=click.Path(exists=True), required=True)
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
        cfg, train, test = _load_utility_inputs(utility_path, data, test_data, test_ratio, seed)
        partition = load_partition(partition_path)
        if train is not None:
            axis = unwrap_config(cfg).get("axis", "rows")
            validate_partition(partition, train, axis=axis)
        oracle = make_oracle(cfg, train, test)
        ecfg = ExplainConfig(delta=delta, epsilon=epsilon, check_budget=budget, timeout=timeout)
        rng = spawn_rng(seed, _STREAM_EXPLAIN)
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
