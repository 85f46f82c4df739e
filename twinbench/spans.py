"""Spans recorded around the public functions of each twinarch layer.

The traced run wraps the layers' functions from outside the package:
`Instrumentation` replaces each function listed in `LAYER_FUNCTIONS`
with a wrapper that records one span (name, start, end, parent,
thread, count) on a `SpanRecorder`, and puts the originals back when
it exits. Spans stay in memory until the run ends.

`self_times` and `layer_metrics` turn the spans into per-op numbers.
A span's self time is its duration minus the part of it that its
child spans cover. Spans are assigned to the op whose interval holds
their start; spans of other threads (the model engine's worker) are
assigned the same way but are never subtracted from the op thread's
time, because they run while the op thread waits.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

# A span is a list: [name, start, end, parent, thread, count].
NAME, START, END, PARENT, THREAD, COUNT = range(6)


def _len(result, args) -> int:
    return len(result)


def _points(result, args) -> int:
    return sum(len(shadow.trace) for shadow in result)


def _dropped(result, args) -> int:
    return len(args[0]) - len(result.measurements)


# (module, function or Class.method, span name, count of the result).
# A name that the package no longer defines stops the traced run
# (`MissingFunctions`): its layer would otherwise read 0, which looks
# like a gain. A change that renames or removes one updates this table.
LAYER_FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("twinarch.storage", "SharedStorage.crud_read", "storage.read", _len),
    ("twinarch.storage", "SharedStorage.all_records", "storage.read", _len),
    ("twinarch.storage", "SharedStorage.crud_create", "storage.write", None),
    ("twinarch.storage", "SharedStorage.crud_update", "storage.write", None),
    ("twinarch.storage", "SharedStorage.crud_delete", "storage.write", None),
    ("twinarch.storage", "SharedStorage.upsert", "storage.write", None),
    ("twinarch.storage", "SharedStorage.replay", "storage.replay", None),
    ("twinarch.shadows", "ShadowManager.get_shadow", "shadows.get", _points),
    ("twinarch.shadows", "ShadowManager.update_from_measurement",
     "shadows.update", None),
    ("twinarch.wire", "parse_ultralight", "wire.parse", _len),
    ("twinarch.wire", "parse_ngsi_ld", "wire.parse", _len),
    ("twinarch.wire", "parse_ditto_thing", "wire.parse", _len),
    ("twinarch.wire", "parse_dtdl_telemetry", "wire.parse", _len),
    ("twinarch.processing", "process", "processing", _dropped),
    ("twinarch.adapters", "P2DAdapter.ingest", "adapters.ingest", None),
    ("twinarch.adapters", "D2PAdapter.emit_alert", "adapters.feedback", None),
    ("twinarch.adapters", "D2PAdapter.emit_commands", "adapters.feedback",
     None),
    ("twinarch.simulation", "ModelEngine.model_execution", "simulation.exec",
     None),
    ("twinarch.simulation", "ModelEngine.drain", "simulation.wait", None),
    ("twinarch.services", "StateMonitor.get_state", "services.state", None),
    ("twinarch.services", "Predictor.prediction", "services.forecast", None),
    ("twinarch.services", "SolutionFinder.find_solution", "services.search",
     None),
    ("twinarch.services", "DeviationDetector.detect_deviation",
     "services.detect", None),
    ("twinarch.services", "FeedbackExecutor.execute_feedback",
     "services.feedback", None),
    ("twinarch.tracing", "Tracer.record", "tracing.record", None),
    ("twinarch.tracing", "check_trace", "tracing.check", None),
    ("twinarch.harness", "PhysicalHarness.emit", "harness", None),
    ("twinarch.harness", "PhysicalHarness.receive", "harness", None),
    ("twinarch.orchestrator", "TwinManager.new_scenario_sim", "orchestrator",
     None),
)


class SpanRecorder:
    """Keeps spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: Callable | None = None,
             method: bool = False) -> Callable:
        """Wrap `fn` so each call records one span. `count(result, args)`
        fills the span's count; for a method, `args` leaves out self."""
        spans = self.spans
        first_arg = 1 if method else 0
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result, args[first_arg:])
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as gzip'd JSON lines, thread ids made small."""
        threads: dict[int, int] = {}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                thread = threads.setdefault(span[THREAD], len(threads))
                fh.write(json.dumps([span[NAME], span[START], span[END],
                                     span[PARENT], thread, span[COUNT]])
                         + "\n")


class MissingFunctions(LookupError):
    """Some entries of the function table are not defined any more."""


class Instrumentation:
    """Context manager that wraps the layer functions while active.

    Entering raises `MissingFunctions`, and wraps nothing, when any
    entry of the table names a function the package does not define.
    """

    def __init__(self, recorder: SpanRecorder,
                 table: Iterable[tuple] = LAYER_FUNCTIONS) -> None:
        self.recorder = recorder
        self.table = tuple(table)
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        targets = []
        missing = []
        for module_name, path, name, count in self.table:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".", 1)
                owner = getattr(module, class_name, None)
                original = None if owner is None else vars(owner).get(attr)
            else:
                owner, attr = module, path
                original = getattr(module, path, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
            else:
                targets.append((owner, attr, original, name, count,
                                owner is not module))
        if missing:
            raise MissingFunctions(
                "not defined any more, update spans.LAYER_FUNCTIONS: "
                + ", ".join(missing))
        for owner, attr, original, name, count, method in targets:
            if method:
                self._wrap_method(owner, attr, original, name, count)
            else:
                self._wrap_function(original, name, count)
        return self

    def _wrap_method(self, cls, method: str, raw, name: str, count) -> None:
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.recorder.wrap(raw.__func__, name,
                                                     count, method=True))
        else:
            wrapped = self.recorder.wrap(raw, name, count, method=True)
        self._restore.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def _wrap_function(self, original, name: str, count) -> None:
        wrapped = self.recorder.wrap(original, name, count)
        # callers bind the function under their own module's name
        for other_name, other in list(sys.modules.items()):
            if other is None or not (other_name == "twinarch"
                                     or other_name.startswith("twinarch.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, attr, original))
                    setattr(other, attr, wrapped)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Self times and per-op layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append((end - start) - covered)
    return out


def assign_to_ops(spans: Sequence[Sequence],
                  ops: Sequence[tuple[float, float]]) -> list[int]:
    """Index of the op whose [start, end) holds each span's start, or -1.
    `ops` must be sorted and disjoint."""
    starts = [start for start, _ in ops]
    out = []
    for span in spans:
        i = bisect.bisect_right(starts, span[START]) - 1
        out.append(i if i >= 0 and span[START] < ops[i][1] else -1)
    return out


# span name -> metric of its self time per op
_SELF_METRIC = {
    "storage.read": "storage.read_self_ms_per_op",
    "storage.write": "storage.write_self_ms_per_op",
    "shadows.get": "shadows.get_self_ms_per_op",
    "shadows.update": "shadows.update_self_ms_per_op",
    "wire.parse": "wire.parse_self_ms_per_op",
    "processing": "processing.self_ms_per_op",
    "adapters.ingest": "adapters.ingest_self_ms_per_op",
    "adapters.feedback": "adapters.feedback_self_ms_per_op",
    "simulation.exec": "simulation.exec_self_ms_per_op",
    "services.state": "services.state_self_ms_per_op",
    "services.forecast": "services.forecast_self_ms_per_op",
    "services.search": "services.search_self_ms_per_op",
    "services.detect": "services.detect_self_ms_per_op",
    "services.feedback": "services.feedback_self_ms_per_op",
    "tracing.record": "tracing.record_self_ms_per_op",
    "harness": "harness.self_ms_per_op",
}
# span name -> metric that sums the spans' counts
_COUNT_METRIC = {
    "storage.read": "storage.read_records_per_op",
    "shadows.get": "shadows.points_materialized_per_op",
    "wire.parse": "wire.measurements_per_op",
    "processing": "processing.dropped_per_op",
}
# span name -> metric that counts calls entering the layer
_CALLS_METRIC = {
    "storage.read": "storage.read_calls_per_op",
    "storage.write": "storage.write_calls_per_op",
    "shadows.get": "shadows.get_calls_per_op",
    "services.state": "services.state_calls_per_op",
    "tracing.record": "tracing.record_calls_per_op",
    "simulation.exec": "simulation.scenarios_per_op",
}


def union(intervals: Iterable[tuple[float, float]],
          ) -> list[tuple[float, float]]:
    """The intervals merged into sorted, disjoint ones."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def overlap(a: Sequence[tuple[float, float]],
            b: Sequence[tuple[float, float]]) -> float:
    """Total length covered by both of two sorted, disjoint lists of
    intervals."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(spans: Sequence[Sequence],
                  ops: Sequence[tuple[float, float]],
                  op_thread: int) -> dict[str, float]:
    """Per-op layer metrics from spans and the ops' intervals.

    Covers every per-layer metric of `BENCHMARK.json` that spans alone
    give; the caller adds journal bytes and the tracing overhead.

    `simulation.wait_ms_per_op` is the op thread's whole time in
    `drain`, which holds the worker thread's spans; the hand-off is the
    part of that wait in which no span of another thread runs.
    """
    n_ops = len(ops)
    if n_ops == 0:
        raise ValueError("no ops to divide by")
    selfs = self_times(spans)
    op_of = assign_to_ops(spans, ops)
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    waits: list[tuple[float, float]] = []
    other_threads: list[tuple[float, float]] = []
    covered_on_op_thread = 0.0
    durations: dict[str, list[float]] = {"storage.replay": [],
                                          "tracing.check": []}
    for index, span in enumerate(spans):
        name = span[NAME]
        if name in durations:
            durations[name].append(span[END] - span[START])
        if op_of[index] < 0:
            continue
        self_s[name] = self_s.get(name, 0.0) + selfs[index]
        if span[COUNT] is not None:
            counts[name] = counts.get(name, 0) + span[COUNT]
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != name:
            calls[name] = calls.get(name, 0) + 1
        if span[THREAD] != op_thread:
            if parent < 0:
                other_threads.append((span[START], span[END]))
            continue
        if name == "simulation.wait":
            waits.append((span[START], span[END]))
        if name != "orchestrator":
            covered_on_op_thread += selfs[index]

    out: dict[str, float] = {}
    for name, metric in _SELF_METRIC.items():
        out[metric] = self_s.get(name, 0.0) * 1e3 / n_ops
    for name, metric in _COUNT_METRIC.items():
        out[metric] = counts.get(name, 0) / n_ops
    for name, metric in _CALLS_METRIC.items():
        out[metric] = calls.get(name, 0) / n_ops
    wait = self_s.get("simulation.wait", 0.0)
    out["simulation.wait_ms_per_op"] = wait * 1e3 / n_ops
    out["simulation.handoff_ms_per_op"] = (
        (wait - overlap(sorted(waits), union(other_threads))) * 1e3 / n_ops)
    op_time = sum(end - start for start, end in ops)
    out["orchestrator.self_ms_per_op"] = (
        (op_time - covered_on_op_thread) * 1e3 / n_ops)
    for name, metric in (("storage.replay", "storage.replay_ms"),
                         ("tracing.check", "tracing.check_ms")):
        values = durations[name]
        out[metric] = sum(values) * 1e3 / len(values) if values else 0.0
    return out
