"""Layer spans recorded from outside the library.

The tracer replaces public functions at the names their callers import (for
example `shapcf.explain.is_flipped`, which the engines call) with wrappers
that record a span per call, and wraps `UtilityOracle.value` with counters.
Oracle calls are too many to keep one span each, so every span carries the
count and time of the oracle calls made directly under it. Spans stay in
memory and are written out once, after the timed region.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "util", "info")

    def __init__(self, sid: int, parent: int | None, request: int | None, name: str):
        self.id = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = _clock()
        self.end = 0.0
        # oracle calls made directly under this span: calls, evaluations,
        # seconds in all calls, seconds in evaluating calls
        self.util = [0, 0, 0.0, 0.0]
        self.info: dict = {}

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "request": self.request, "name": self.name,
            "start": self.start, "end": self.end, "util": self.util, "info": self.info,
        }


def _flip_info(res) -> dict:
    return {"samples": res.estimate.count, "verdict": res.verdict}


def _race_info(res) -> dict:
    return {"samples": res.samples, "converged": res.converged}


def _request_info(res) -> dict:
    return {"status": res.status, "success": res.success, "subsets_tested": res.subsets_tested}


class Tracer:
    """Installs the layer wrappers; `close()` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request: int | None = None
        self._requests = 0
        self._outside = Span(-1, None, None, "outside")
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        harness = importlib.import_module("shapcf.harness")
        explain = importlib.import_module("shapcf.explain")
        utility = importlib.import_module("shapcf.utility")
        self._wrap(harness, "explain", "explain.request", _request_info, request=True)
        self._wrap(harness, "is_flipped", "harness.pair_check", _flip_info)
        self._wrap(harness, "load_csv", "harness.load")
        self._wrap(harness, "split_dataset", "harness.load")
        self._wrap(harness, "make_oracle", "harness.load")
        self._wrap(explain, "is_flipped", "shapley.is_flipped", _flip_info)
        self._wrap(explain, "diff_shapley_exact", "shapley.diff_shapley_exact")
        self._wrap(explain, "thompson_top1", "power.thompson_top1", _race_info)
        self._wrap_value(utility.UtilityOracle)

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in [self._outside, *self.spans]:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def reset(self) -> None:
        """Drop the spans recorded so far; the wrappers stay installed."""
        self.spans.clear()
        self._outside.util[:] = [0, 0, 0.0, 0.0]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, module, attr: str, name: str, describe=None, *, request: bool = False) -> None:
        original = getattr(module, attr)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if request:
                self._requests += 1
                self._request = self._requests
            parent = stack[-1].id if stack else None
            span = Span(len(spans), parent, self._request, name)
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
                if request:
                    self._request = None
            if describe is not None:
                span.info = describe(result)
            return result

        self._patch(module, attr, wrapper)

    def _wrap_value(self, cls) -> None:
        original = cls.value
        stack, outside = self._stack, self._outside

        def value(oracle, composed):
            evals = oracle.evals
            t0 = _clock()
            result = original(oracle, composed)
            dt = _clock() - t0
            util = (stack[-1] if stack else outside).util
            util[0] += 1
            util[2] += dt
            if oracle.evals != evals:
                util[1] += 1
                util[3] += dt
            return result

        self._patch(cls, "value", value)


def _self_times(spans: list[dict]) -> dict[int, float]:
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {
        s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) - s["util"][2]
        for s in spans
    }


def layer_totals(span_files: list[Path]) -> dict[str, float]:
    """Raw per-layer sums over the span files of one run."""
    t: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        t[key] = t.get(key, 0.0) + v

    for path in span_files:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        self_s = _self_times([s for s in spans if s["id"] >= 0])
        for s in spans:
            calls, evals, busy, eval_s = s["util"]
            add("util.calls", calls)
            add("util.evals", evals)
            add("util.busy_s", busy)
            add("util.eval_s", eval_s)
            if s["request"] is not None:
                add("explain.util_s", busy)
            if s["id"] < 0:
                continue
            name, dur, info = s["name"], s["end"] - s["start"], s["info"]
            add(f"{name}.count", 1)
            add(f"{name}.s", dur)
            add(f"{name}.self_s", self_s[s["id"]])
            if "samples" in info:
                add(f"{name}.samples", info["samples"])
            if info.get("verdict") == "undecided":
                add(f"{name}.undecided", 1)
            if info.get("converged") is False:
                add(f"{name}.unconverged", 1)
            if "subsets_tested" in info:
                add(f"{name}.subsets_tested", info["subsets_tested"])
    return t
