"""Experiments in a fresh interpreter: set-up, the timed runs, then checks.

Usage:
    python3 perfbench/worker.py setup DIR
    python3 perfbench/worker.py once DIR
    python3 perfbench/worker.py run WARMUP_DIR DIR [DIR ...] [--trace]

Each DIR holds the config.json (and data file) made by workloads.py. `setup`
only times the set-up. `once` sets up and runs DIR's experiment untimed, for
the determinism check. `run` sets up, runs WARMUP_DIR's experiment untimed,
then times every DIR's experiment one after another in this process and
checks its answers after its timing stops. Every mode writes result.json
into the first DIR it names; experiments write out/ into their DIR.
"""

import time

# Duration of one reference pass at the machine speed that calibrated times
# are expressed in (see "Calibrated time" in README.md).
REFERENCE_S = 0.011
_CHECKPOINT_S = 0.2  # longest stretch of a timed region between two reference passes
_PRICED = 3  # experiments a traced run also runs untraced, to measure the tracing overhead
_REF_LOOKUPS = 8_000
# Frozen-set keys in a dict larger than the L2 cache, as in the oracle's memo
# cache; built once, before anything is timed.
_REF_TABLE = {frozenset((i, i * 7 % 301, i * 13 % 401)): float(i) for i in range(16_384)}


def reference_pass() -> float:
    """Seconds taken by a fixed interpreter-bound loop; independent of shapcf."""
    t0 = time.perf_counter()
    table, n, acc = _REF_TABLE, len(_REF_TABLE), 0.0
    for j in range(_REF_LOOKUPS):
        i = j * 7919 % n
        acc += table.get(frozenset((i, i * 7 % 301, i * 13 % 401)), 0.0)
    return time.perf_counter() - t0


_REF_BEFORE_SETUP = reference_pass()
_T0 = time.perf_counter()  # before anything heavy is imported

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


class CalibratedClock:
    """Wall time of a region, with the machine's speed factored out.

    `checkpoint()` closes the current segment once _CHECKPOINT_S seconds
    have passed and times a reference pass; the pass itself is not counted. Each
    segment is rescaled by REFERENCE_S over the mean of the passes on either
    side of it, so a machine that runs the reference slower counts the
    segment shorter by the same factor.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.raw = self.calibrated = self.ref_s = 0.0
        self.passes = 0

    def start(self) -> None:
        self.raw = self.calibrated = self.ref_s = 0.0
        self.passes = 0
        self._ref = reference_pass() if self.enabled else REFERENCE_S
        self._t = time.perf_counter()

    def checkpoint(self) -> None:
        if self.enabled and time.perf_counter() - self._t >= _CHECKPOINT_S:
            self._close()

    def stop(self) -> None:
        self._close()

    def _close(self) -> None:
        seg = time.perf_counter() - self._t
        ref = reference_pass() if self.enabled else REFERENCE_S
        self.raw += seg
        self.calibrated += seg * REFERENCE_S / ((self._ref + ref) / 2.0)
        self.passes += 1
        self.ref_s += ref
        self._ref = ref
        self._t = time.perf_counter()


def _setup(config_path: Path):
    """Cold import, config parse, dataset load and split, oracle construction."""
    import shapcf
    from shapcf import ExperimentConfig, load_csv, make_oracle, spawn_rng, split_dataset

    cfg = ExperimentConfig.from_json(config_path)
    train = test = None
    if cfg.data is not None:
        label = cfg.utility.get("label")
        full = load_csv(config_path.parent / cfg.data, label=label)
        train, test = split_dataset(full, cfg.test_ratio, spawn_rng(cfg.seed))
    make_oracle(cfg.utility, train, test)
    return shapcf


def _timed_setup(config_path: Path) -> dict:
    shapcf = _setup(config_path)
    raw = time.perf_counter() - _T0
    ref = (_REF_BEFORE_SETUP + reference_pass()) / 2.0
    return {"setup_raw_s": raw, "setup_s": raw * REFERENCE_S / ref, "module": shapcf.__file__}


def _exact_check(captured: list[tuple]) -> list[str]:
    """Contradictions between the answers and exact differentials."""
    from shapcf import Transfer, apply_transfer, diff_shapley_exact

    found = []
    for partition, oracle, a, b, res in captured:
        if res.status == "ok" and res.success:
            moved = apply_transfer(partition, Transfer(a, b, frozenset(res.delta)))
            d = diff_shapley_exact(moved, oracle, a, b)
            if not d < 0.0:
                found.append(f"{res.engine} {a}->{b} delta={list(res.delta)}: exact diff after transfer {d!r} >= 0")
        elif res.status == "precondition_not_met":
            d = diff_shapley_exact(partition, oracle, a, b)
            if d > 0.0:
                found.append(f"{res.engine} {a}->{b}: precondition_not_met but exact diff {d!r} > 0")
    return found


def _failure(res) -> str | None:
    if res.timed_out or res.status == "timeout":
        return "timeout"
    if res.status == "precondition_undecided":
        return "precondition_undecided"
    if res.status == "ok" and not res.success:
        return "ok_unverified"
    return None


class Runner:
    """Runs experiments through the public harness path in this process."""

    def __init__(self) -> None:
        import importlib

        self.harness = importlib.import_module("shapcf.harness")
        self.dispatch = self.harness.explain
        self.clock = CalibratedClock(enabled=False)
        self.captured: list[tuple] = []
        self.request_s: list[float] = []
        self.harness.explain = self._capture

    def _capture(self, engine, partition, oracle, a, b, *args, **kwargs):
        self.clock.checkpoint()
        t0 = time.perf_counter()
        res = self.dispatch(engine, partition, oracle, a, b, *args, **kwargs)
        self.request_s.append(time.perf_counter() - t0)
        self.captured.append((partition, oracle, a, b, res))
        return res

    def experiment(self, exp_dir: Path, calibrate: bool) -> dict:
        """One experiment: config parse, run_experiment, write_outputs."""
        harness = self.harness
        self.captured, self.request_s = [], []
        self.clock.enabled = calibrate
        error = None
        cwd = os.getcwd()
        os.chdir(exp_dir)  # relative data paths resolve against the config's directory
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                self.clock.start()
                try:
                    result = harness.run_experiment(harness.ExperimentConfig.from_json("config.json"))
                    t1 = time.perf_counter()
                    harness.write_outputs(result, exp_dir / "out")
                    write_s = time.perf_counter() - t1
                    attempted = result.config.trials * len(result.config.engines)
                except Exception:  # a raise is a failed run; report it, do not crash
                    error = traceback.format_exc()
                    write_s = 0.0
                    raw = json.loads((exp_dir / "config.json").read_text())
                    attempted = raw["trials"] * len(raw["engines"])
                self.clock.stop()
        finally:
            os.chdir(cwd)
        captured = self.captured
        self.captured = []
        return {
            "dir": str(exp_dir),
            "run_raw_s": self.clock.raw,
            "run_s": self.clock.calibrated,
            "reference_passes": self.clock.passes,
            "reference_s": self.clock.ref_s,
            "write_s": write_s,
            "attempted": attempted,
            "error": error,
            "request_s": self.request_s,
            "statuses": [res.status for *_, res in captured],
            "failures": [
                f"{kind}: {res.engine} {a}->{b} size={res.size} samples={res.samples_used}"
                for _, _, a, b, res in captured
                if (kind := _failure(res))
            ],
            "sizes": [res.size for *_, res in captured if res.status == "ok" and res.success],
            "warnings": sum(1 for w in caught if issubclass(w.category, RuntimeWarning)),
            "contradictions": _exact_check(captured),
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> None:
    mode, dirs, trace = argv[0], [Path(p).resolve() for p in argv[1:] if p != "--trace"], "--trace" in argv
    report = _timed_setup(dirs[0] / "config.json")
    if mode == "once":
        report["experiment"] = Runner().experiment(dirs[0], calibrate=False)
    elif mode == "run":
        runner = Runner()
        report["warmup"] = runner.experiment(dirs[0], calibrate=False)
        if trace:
            # the first experiments untraced, to price the tracing, then every experiment traced
            report["untraced"] = [runner.experiment(d, calibrate=False) for d in dirs[1:1 + _PRICED]]
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        report["experiments"] = []
        for d in dirs[1:]:
            report["experiments"].append(runner.experiment(d, calibrate=not trace))
            if trace:
                tracer.write(d / "spans.jsonl")
                tracer.reset()
        report["peak_rss_mb"] = _peak_rss_mb()
        if trace:
            tracer.close()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    (dirs[0] / "result.json").write_text(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
