"""Benchmark for shapcf: end-to-end and per-layer metrics on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kde-svexp --seed 1 --seconds 30 --trace 0

A run generates its inputs from the seed: a fixed number of experiments (set
by --seconds) and a small warm-up experiment. Set-up (cold import, config
parse, data load, oracle construction) is timed in several fresh
interpreters. One more fresh interpreter runs the warm-up untimed, then every
experiment one after another through the public `shapcf experiment` path:
ExperimentConfig.from_json, run_experiment, write_outputs. Times are wall
times calibrated against a fixed reference loop (see README.md). The warm-up
is run once more in a fresh interpreter and its trials.csv and summary.json
must match byte for byte. Every answer is checked against exact
differentials after its experiment's timing stops.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the layer functions
and reports per-layer metrics instead. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every run must end within 180 s
IMPORT_SAMPLES = 3
SETUP_PROBES = 1  # set-up-only processes; the timed worker and the rerun add two samples


class BenchError(Exception):
    """The program or its outputs are unusable; the run prints no result."""


def _worker_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SHAPCF_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_worker(root: Path, args: list[str], result_dir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    log = result_dir / f"worker-{args[0]}.log"
    with log.open("w") as fh:
        proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root), stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[0]} worker passed the run deadline") from None
        finally:  # on every way out, no worker is left running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise BenchError(f"{args[0]} worker exited {code}:\n{log.read_text()[-3000:]}")
    report = json.loads((result_dir / "result.json").read_text())
    (result_dir / "result.json").unlink()
    if not Path(report["module"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported shapcf from {report['module']}, not from this checkout")
    for exp in [report.get("experiment"), report.get("warmup"), *report.get("experiments", [])]:
        if exp is not None and exp["error"] is None:
            _check_outputs(Path(exp["dir"]) / "out", exp["attempted"])
    return report


def _check_outputs(out: Path, attempted: int) -> None:
    """Malformed output aborts the run."""
    with (out / "trials.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != attempted:
        raise BenchError(f"{out}: trials.csv has {len(rows)} rows, {attempted} were attempted")
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("n_records") != attempted:
        raise BenchError(f"{out}: summary.json n_records {summary.get('n_records')} != {attempted}")


def _same_outputs(first: Path, second: Path) -> list[str]:
    return [
        name for name in ("trials.csv", "summary.json")
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]


def _import_times(root: Path, deadline: float) -> dict[str, float]:
    """Cumulative cold-import seconds per module, median over child processes."""
    wanted = ("shapcf", "shapcf.metrics", "shapcf.utility")
    samples: dict[str, list[float]] = {m: [] for m in wanted}
    line = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import shapcf"],
            cwd=root, env=_worker_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"import shapcf failed:\n{proc.stderr[-3000:]}")
        for m in line.finditer(proc.stderr):
            if m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {m: statistics.median(v) for m, v in samples.items()}


def _environment() -> str:
    import ctypes
    import glob
    from importlib.metadata import version

    import numpy

    blas = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            blas = str(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, scipy {version('scipy')}, "
        f"nproc {os.cpu_count()}, blas threads {blas}"
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _end_to_end(setups: list[dict], run: dict, attempted: int, failed: int) -> dict:
    """Calibrated times (see worker.CalibratedClock); counts over the timed experiments."""
    exps = run["experiments"]
    sizes = [s for r in exps for s in r["sizes"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s", len(setups)),
        "run_s": (statistics.fmean(r["run_s"] for r in exps), "s", len(exps)),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB", 1),
        "ok_ratio": (1.0 - _ratio(failed, attempted), "ratio", attempted),
        "mean_set_size": (statistics.fmean(sizes) if sizes else 0.0, "entries", len(sizes)),
    }


def _per_layer(t: dict[str, float], trials: int, reports: list[dict], imports: dict, overhead: float) -> dict:
    g = t.get
    flips = g("shapley.is_flipped.count", 0) + g("harness.pair_check.count", 0)
    flip_samples = g("shapley.is_flipped.samples", 0) + g("harness.pair_check.samples", 0)
    flip_undecided = g("shapley.is_flipped.undecided", 0) + g("harness.pair_check.undecided", 0)
    races = g("power.thompson_top1.count", 0)
    race_samples = g("power.thompson_top1.samples", 0)
    permutations = flip_samples + race_samples
    draw_s = (
        g("shapley.is_flipped.self_s", 0) + g("harness.pair_check.self_s", 0)
        + g("power.thompson_top1.self_s", 0)
    )
    calls, evals = g("util.calls", 0), g("util.evals", 0)
    engine_s = g("explain.request.s", 0)
    return {
        "core.permutations": (permutations, "count"),
        "core.draws_per_s": (_ratio(permutations, draw_s), "1/s"),
        "utility.calls": (calls, "count"),
        "utility.evals": (evals, "count"),
        "utility.hit_ratio": (_ratio(calls - evals, calls), "ratio"),
        "utility.eval_ms": (1e3 * _ratio(g("util.eval_s", 0), evals), "ms"),
        "utility.lookup_us": (1e6 * _ratio(g("util.busy_s", 0) - g("util.eval_s", 0), calls - evals), "us"),
        "utility.busy_s": (g("util.busy_s", 0), "s"),
        "utility.warnings": (sum(r["warnings"] for r in reports), "count"),
        "shapley.flip_checks": (flips, "count"),
        "shapley.flip_samples": (flip_samples, "count"),
        "shapley.samples_per_check": (_ratio(flip_samples, flips), "count"),
        "shapley.flip_s": (g("shapley.is_flipped.s", 0) + g("harness.pair_check.s", 0), "s"),
        "shapley.flip_self_s": (g("shapley.is_flipped.self_s", 0) + g("harness.pair_check.self_s", 0), "s"),
        "shapley.undecided_ratio": (_ratio(flip_undecided, flips), "ratio"),
        "shapley.exact_diffs": (g("shapley.diff_shapley_exact.count", 0), "count"),
        "shapley.exact_share": (_ratio(g("shapley.diff_shapley_exact.s", 0), engine_s), "ratio"),
        "power.races": (races, "count"),
        "power.race_samples": (race_samples, "count"),
        "power.samples_per_race": (_ratio(race_samples, races), "count"),
        "power.race_share": (_ratio(g("power.thompson_top1.s", 0), engine_s), "ratio"),
        "power.race_self_share": (_ratio(g("power.thompson_top1.self_s", 0), engine_s), "ratio"),
        "power.unconverged_ratio": (_ratio(g("power.thompson_top1.unconverged", 0), races), "ratio"),
        "explain.requests": (g("explain.request.count", 0), "count"),
        "explain.subsets_tested": (g("explain.request.subsets_tested", 0), "count"),
        "explain.self_s": (g("explain.request.self_s", 0), "s"),
        "explain.outside_oracle_share": (_ratio(engine_s - g("explain.util_s", 0), engine_s), "ratio"),
        "harness.pair_checks": (g("harness.pair_check.count", 0), "count"),
        "harness.pair_checks_per_trial": (_ratio(g("harness.pair_check.count", 0), trials), "count"),
        "harness.pair_s": (g("harness.pair_check.s", 0), "s"),
        "harness.write_s": (sum(r["write_s"] for r in reports), "s"),
        "shapcf.import_s": (imports["shapcf"], "s"),
        "metrics.import_s": (imports["shapcf.metrics"], "s"),
        "utility.import_s": (imports["shapcf.utility"], "s"),
        "harness.load_s": (g("harness.load.s", 0), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def run(root: Path, workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[workload_name]
    work = HERE / "_work" / f"{workload_name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    dirs = [work / f"exp{k}" for k in range(workload.experiments(seconds))]
    for k, d in enumerate(dirs):
        workload.write_inputs(seed, k, d)
    warmup = work / "warmup"
    workload.write_warmup(seed, warmup)
    compileall.compile_dir(root / "src" / "shapcf", quiet=1)
    print(f"# {workload_name} seed={seed} experiments={len(dirs)} x {workload.trials} trials; {_environment()}")

    # Set-up in fresh processes: the probes, the timed worker and the rerun.
    setups = [] if trace else [
        _run_worker(root, ["setup", str(warmup)], warmup, deadline) for _ in range(SETUP_PROBES)
    ]
    args = ["run", str(warmup), *map(str, dirs)] + (["--trace"] if trace else [])
    report = _run_worker(root, args, warmup, deadline)
    exps = report["experiments"]

    # Same-code determinism: the warm-up experiment again, in a fresh process.
    again = work / "again"
    again.mkdir()
    for name in ("config.json", "data.csv"):
        if (warmup / name).exists():
            shutil.copy(warmup / name, again / name)
    rerun = _run_worker(root, ["once", str(again)], again, deadline)
    setups += [report, rerun]
    problems = []
    first, second = report["warmup"], rerun["experiment"]
    if first["error"] is None and second["error"] is None:
        problems += [f"warm-up {name} differs between runs" for name in _same_outputs(warmup / "out", again / "out")]
    elif (first["error"] is None) != (second["error"] is None):
        problems.append("warm-up experiment raised in one run only")

    attempted = sum(r["attempted"] for r in exps)
    failed = 0
    for r in exps:
        name = Path(r["dir"]).name
        failed += len(r["failures"]) + len(r["contradictions"])
        print(f"# {name}: run {r['run_s']:.3f} s calibrated, {r['run_raw_s']:.3f} s wall")
        for f in r["failures"]:
            print(f"# failure in {name}: {f}")
        for c in r["contradictions"]:
            print(f"# contradiction in {name}: {c}")
        if r["error"] is not None:
            failed += r["attempted"] - len(r["statuses"])
            print(f"# {name} raised:\n{r['error']}", file=sys.stderr)
    for p in problems:
        print(f"# determinism check failed: {p}")

    if trace:
        totals = layer_totals([d / "spans.jsonl" for d in dirs])
        untraced = sum(r["run_raw_s"] for r in report["untraced"])
        overhead = sum(r["run_raw_s"] for r in exps[: len(report["untraced"])]) - untraced
        rows = _per_layer(totals, attempted, exps, _import_times(root, deadline), overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in rows.items()}
        for name, (v, u) in rows.items():
            print(f"{name:32s} {v:14.6g} {u}")
        print(f"# tracing overhead: {overhead:.3f} s over {untraced:.3f} s untraced, first {len(report['untraced'])} experiments")
    else:
        rows = _end_to_end(setups, report, attempted, failed)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in rows.items()}
        for name, (v, u, n) in rows.items():
            print(f"{name:16s} {v:12.6g} {u:8s} n={n}")
        print(
            f"# wall time: setup_s {statistics.median(r['setup_raw_s'] for r in setups):.6g} s, "
            f"run_s {statistics.fmean(r['run_raw_s'] for r in exps):.6g} s; mean reference pass "
            f"{sum(r['reference_s'] for r in exps) / sum(r['reference_passes'] for r in exps):.6g} s"
        )
        requests = [s for r in exps for s in r["request_s"]]
        if requests:
            print(f"# explain_p50_s {statistics.median(requests):.6g} s wall n={len(requests)} (printed only, see README)")
    print(
        f"# attempted={attempted} failed={failed} warnings={sum(r['warnings'] for r in exps)} "
        f"contradictions={sum(len(r['contradictions']) for r in exps)} determinism={'ok' if not problems else 'FAILED'}"
    )
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so workers are stopped
    root = Path.cwd().resolve()
    if not (root / "src" / "shapcf" / "__init__.py").is_file():
        print("perfbench: run from the root of a shapcf checkout (src/shapcf not found)", file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
