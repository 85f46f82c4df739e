"""One benchmark run of one workload, in a fresh process.

`run.py` starts this file with a fixed PYTHONHASHSEED and `src` on the
path. It prints a details line and then one JSON result line:

    python3 twinbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-probe]

With `--trace 0` it measures the end-to-end metrics (all but
`setup_s`, which `run.py` adds). With `--trace 1` it alternates untraced
and traced sessions, and reports the per-layer metrics.
`--setup-probe` only sets the workload up and prints the
`time.perf_counter()` reading at which the first op could start.
Outside set-up probes, a spinner process at SCHED_IDLE priority keeps
the worker's CPU from idling while sessions run (`cpu_kept_busy`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import twinarch  # noqa: E402  (fails here when the checkout lacks src/)
from spans import Instrumentation, SpanRecorder, layer_metrics  # noqa: E402
from spec import as_metrics, metric_units  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402

ROOT = HERE.parent
STATE = ROOT / ".twinbench"
MIN_OPS = 100             # op_ms_p90 needs at least this many samples
BLOCKS = 5                # a run's sessions, in time order, for block_*


def _check_source() -> None:
    # measure the checkout's own sources, never an installed copy
    expected = (ROOT / "src" / "twinarch").resolve()
    if Path(twinarch.__file__).resolve().parent != expected:
        raise SystemExit(f"twinarch imported from {twinarch.__file__}, "
                         f"not from {expected}")


def run_session(workload, index: int) -> Session:
    """One session; an exception fails every op the session would run."""
    gc.collect()
    try:
        session = workload.session(index)
    except Exception:
        traceback.print_exc()
        return Session(failed=workload.ops_per_session,
                       problems=["session raised"])
    for problem in session.problems[:5]:
        print(f"{workload.name} session {index}: {problem}", file=sys.stderr)
    return session


# Runs on the worker's CPU at SCHED_IDLE priority, which takes the CPU
# only when nothing else there can run, and exits with the worker.
SPINNER = """\
import os
parent = os.getppid()
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("ready", flush=True)
while os.getppid() == parent:
    pass
"""


@contextmanager
def cpu_kept_busy():
    """Keep the worker's CPU from idling while the block runs.

    The prediction loop sleeps 1 ms in `ModelEngine.drain` for every
    what-if candidate, and the CPU idles meanwhile. A virtual CPU that
    idles goes back to the host, and how soon it runs again when the
    sleep ends depends on the host's other guests: in their busy phases
    that made prediction ops up to twice as slow, with 11-32 % of the
    CPU's time stolen. The spinner inherits the worker's CPU and gives
    way to every runnable thread of the worker at once.
    """
    spinner = subprocess.Popen([sys.executable, "-c", SPINNER],
                               stdout=subprocess.PIPE, text=True)
    try:
        if spinner.stdout.readline().strip() != "ready":
            raise RuntimeError("the idle spinner did not start")
        yield
    finally:
        spinner.terminate()
        spinner.wait()
        spinner.stdout.close()


def cpu_ticks(cpu: int) -> tuple[int, int]:
    """(steal, total) clock ticks of one CPU so far, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                ticks = [int(field) for field in line.split()[1:]]
                return ticks[7], sum(ticks)
    raise LookupError(f"cpu{cpu} is not in /proc/stat")


def host_probe_ms() -> float:
    """Time of a fixed standard-library kernel that builds and scans
    small dicts, as the program's store does: a reading of the host's
    speed at that moment, for the diagnostics only."""
    start = time.perf_counter()
    rows = [{"key": i, "value": i * 0.5} for i in range(20_000)]
    sum(row["value"] for row in rows if row["key"] % 3)
    return (time.perf_counter() - start) * 1e3


def run_phase(workload, seconds: float,
              ) -> tuple[list[Session], float, list[float]]:
    """Sessions until `seconds` have passed and at least MIN_OPS ops ran;
    the peak resident memory after the first of them, before the
    benchmark's own record of op times has grown; and host probes taken
    between sessions, BLOCKS + 1 of them spread over the phase. The
    first probe follows the memory reading, which it would raise."""
    sessions: list[Session] = []
    probes: list[float] = []
    ops = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or ops < MIN_OPS:
        if sessions and len(probes) < BLOCKS and (
                time.perf_counter() >= start + len(probes) * seconds / BLOCKS):
            probes.append(host_probe_ms())
        session = run_session(workload, 1 + len(sessions))
        sessions.append(session)
        if len(sessions) == 1:
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
        ops += max(len(session.ops), session.failed)
    probes.append(host_probe_ms())
    return sessions, peak_rss_mb, probes


def run_alternating(workload, seconds: float, recorder: SpanRecorder,
                    ) -> tuple[list[Session], list[Session]]:
    """Untraced and traced sessions in turn, so that both see the same
    host conditions and their difference is the tracing overhead."""
    untraced: list[Session] = []
    traced: list[Session] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_session(workload, 1 + 2 * len(traced)))
        with Instrumentation(recorder):
            traced.append(run_session(workload, 2 + 2 * len(traced)))
    return untraced, traced


def _durations(sessions: list[Session]) -> list[float]:
    return [end - start for s in sessions for start, end in s.ops]


def ops_per_s(sessions: list[Session]) -> float:
    """Ops over the time spent building sessions and running their ops;
    output checks and replays are left out."""
    busy = sum(s.build_s for s in sessions) + sum(_durations(sessions))
    return sum(len(s.ops) for s in sessions) / busy


def op_growth(sessions: list[Session]) -> float:
    """Median step time in the last tenth of each session over that in
    its first tenth, pooled over sessions."""
    first, last = [], []
    for session in sessions:
        tenth = len(session.steps) // 10
        if tenth:
            first += session.steps[:tenth]
            last += session.steps[-tenth:]
    return statistics.median(last) / statistics.median(first)


def end_to_end(sessions: list[Session], peak_rss_mb: float) -> dict:
    """Every end-to-end metric but `setup_s`, which run.py measures."""
    durations = _durations(sessions)
    replay_s = sum(s.replay_s for s in sessions)
    return {
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_p90": statistics.quantiles(durations, n=10)[-1] * 1e3,
        "ops_per_s": ops_per_s(sessions),
        "peak_rss_mb": peak_rss_mb,
        "op_growth": op_growth(sessions),
        "replay_records_per_s":
            sum(s.replay_lines for s in sessions) / replay_s,
    }


def block_medians_ms(sessions: list[Session]) -> list[float]:
    """Median op time of each of BLOCKS runs of consecutive sessions,
    of sizes that differ by at most one session."""
    count = min(BLOCKS, len(sessions))
    bounds = [len(sessions) * i // count for i in range(count + 1)]
    blocks = [sessions[a:b] for a, b in zip(bounds, bounds[1:])]
    return [statistics.median(_durations(block)) * 1e3
            for block in blocks if _durations(block)]


def spread(values: list[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / statistics.median(values)


def per_layer(untraced: list[Session], traced: list[Session],
              recorder: SpanRecorder) -> dict:
    ops = [op for s in traced for op in s.ops]
    values = layer_metrics(recorder.spans, ops, threading.get_ident())
    values["storage.journal_bytes_per_op"] = (
        sum(s.journal_op_bytes for s in traced) / len(ops))
    values["trace.overhead_pct"] = (
        ops_per_s(untraced) / ops_per_s(traced) - 1.0) * 100.0
    return values


def layer_shares(metrics: dict[str, float]) -> dict:
    """Each layer's time per op as a share of all layers' time per op.
    The caller's wait in `drain` counts only as its hand-off part, since
    the worker thread's spans run inside it."""
    times = {re.sub(r"[._]self_ms_per_op$|_ms_per_op$", "", name): value
             for name, value in metrics.items()
             if name.endswith("_ms_per_op")
             and name != "simulation.wait_ms_per_op"}
    total = sum(times.values())
    return {name: round(value / total, 4) for name, value in sorted(
        times.items(), key=lambda item: -item[1])}


def measure(workload, args) -> tuple[list[Session], dict, dict]:
    """The timed part of a run: its sessions, the result's metrics, and
    the run's diagnostics."""
    if args.trace:
        recorder = SpanRecorder()
        untraced, traced = run_alternating(workload, args.seconds, recorder)
        values = per_layer(untraced, traced, recorder)
        metrics = as_metrics(values, metric_units("per_layer"))
        spans_path = (STATE / "spans"
                      / f"{args.workload}-seed{args.seed}.jsonl.gz")
        recorder.write(spans_path)
        return untraced + traced, metrics, {
            "spans": str(spans_path.relative_to(ROOT)),
            "span_count": len(recorder.spans),
            "layer_shares": layer_shares(values)}
    sessions, peak_rss_mb, probes = run_phase(workload, args.seconds)
    units = metric_units("end_to_end")
    del units["setup_s"]
    metrics = as_metrics(end_to_end(sessions, peak_rss_mb), units)
    blocks = block_medians_ms(sessions)
    return sessions, metrics, {"block_op_ms_p50": blocks,
                               "block_spread": spread(blocks),
                               "host_probe_ms": probes,
                               "host_probe_spread": spread(probes)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    _check_source()
    # One CPU for the whole process: the model engine's worker thread
    # and the caller then hand off without cross-CPU wake-ups, which a
    # virtual machine with busy neighbours makes slow and erratic.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=STATE / "tmp"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        if args.setup_probe:
            print(repr(time.perf_counter()))
            return 0
        with cpu_kept_busy():
            warmup = run_session(workload, 0)
            steal_before, total_before = cpu_ticks(cpu)
            sessions, metrics, details = measure(workload, args)
            steal_after, total_after = cpu_ticks(cpu)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(max(len(s.ops), s.failed) for s in sessions)
    failed = sum(s.failed for s in sessions)
    details.update(
        sessions=len(sessions), ops=attempted,
        warmup_problems=warmup.problems,
        steal_pct=100.0 * (steal_after - steal_before)
        / max(1, total_after - total_before))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not warmup.problems,
        "attempted": attempted, "failed": failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
