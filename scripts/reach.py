#!/usr/bin/env python3
"""List the lines of `src/twinarch` that the package's own entry points
never execute.

Under the standard library's `trace` module (line counts only), this
runs, in one process:

* both demo loops, `twinarch run --check` and the `scripts/run_*_demo.py`
  narrators, from copies of `configs/demo` staged in a temporary
  directory, so the tracked `out/` is not rewritten;
* every CLI subcommand on those runs' journals and on `fixtures/`,
  `ingest` from stdin, a second time into the ultralight journal so
  that a store opens on a journal with history, and once over
  `--listen`;
* one session of each twinbench workload, with `twinbench/workloads.py`
  loaded by path.

It then prints, per module, the count and the numbers of the executable
lines that never ran, and the total. Lines that run only on an error
path show up too: read the list as where to look, not as dead code.

    PYTHONPATH=src python3 scripts/reach.py [--seed N]

It runs by hand, not in the test suite; traced, it takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import runpy
import shutil
import socket
import sys
import tempfile
import threading
import time
import trace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "twinarch"
FIXTURES = REPO / "fixtures"
NAMESPACES = ("Measurements", "Shadows", "SimResults", "States", "Plans",
              "Feedback")
# (format, payload file, extra flags) of each parse and ingest call
PAYLOADS = (
    ("ultralight", "ultralight_traffic.txt",
     ["--device", "TLF01", "--map", "f=vehicleFlow"]),
    ("ditto", "ditto_thing.json", []),
    ("dtdl", "dtdl_telemetry.json",
     ["--model", str(FIXTURES / "dtdl_interface.json")]),
    ("ngsi-ld", "ngsi_ld_traffic_flow.json", []),
)


def _main(path: str, argv: list[str], stdin: str = "") -> int:
    """The exit code of `python path argv`, run in this process with
    its output discarded; `path` may also be a module, as for `-m`."""
    saved = sys.argv, sys.stdin
    sys.argv, sys.stdin = [path, *argv], io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if path.endswith(".py"):
                runpy.run_path(path, run_name="__main__")
            else:
                runpy.run_module(path, run_name="__main__")
    except SystemExit as exit:
        return exit.code
    finally:
        sys.argv, sys.stdin = saved
    raise RuntimeError(f"{path} returned without an exit code")


def _cli(argv: list[str], stdin: str = "") -> int:
    return _main("twinarch", argv, stdin)


def _send(path: Path, lines: str) -> None:
    """Connect to an `ingest --listen` socket, send, read to the end."""
    deadline = time.monotonic() + 10
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        while True:     # until the server has bound and listens
            try:
                client.connect(str(path))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        client.sendall(lines.encode("utf-8"))
        client.shutdown(socket.SHUT_WR)
        while client.recv(4096):
            pass


def _stage_demos(tmp: Path) -> dict[str, Path]:
    """Copies of the demo manifests, each writing under its own copy."""
    demo = tmp / "demo"
    shutil.copytree(REPO / "configs" / "demo", demo)
    manifests = {}
    for manifest in sorted(demo.glob("*/manifest.json")):
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["output_dir"] = "out"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        manifests[manifest.parent.name] = manifest
    return manifests


def _run_cli(tmp: Path) -> None:
    codes = []
    manifests = _stage_demos(tmp)
    for name, manifest in manifests.items():
        loop = "prediction" if name == "prediction" else "monitoring"
        codes.append(_cli(["run", "--loop", loop, "--config", str(manifest),
                           "--check"]))
    for loop in ("monitoring", "prediction"):
        codes.append(_main(str(REPO / "scripts" / f"run_{loop}_demo.py"),
                           ["--config", str(manifests[loop])]))
    journals = sorted(tmp.glob("demo/*/out/journal.jsonl"))
    codes.append(_cli(["catalog"]))
    codes.append(_cli(["catalog", "--check"]))
    for kind in ("iso", "traceability"):
        for fmt in ("text", "json"):
            codes.append(_cli(["report", kind, "--format", fmt]))
    for fmt, payload, flags in PAYLOADS:
        path = FIXTURES / payload
        codes.append(_cli(["parse", "--format", fmt, *flags, str(path)]))
        codes.append(_cli(["ingest", "--format", fmt, "--device", "d1",
                           "--journal", str(tmp / f"ingest-{fmt}.jsonl"),
                           *flags], stdin=path.read_text(encoding="utf-8")))
    # a journal with history is replayed, and its revisions continue
    fmt, payload, flags = PAYLOADS[0]
    codes.append(_cli(["ingest", "--format", fmt, "--device", "d1",
                       "--journal", str(tmp / f"ingest-{fmt}.jsonl"), *flags],
                      stdin=(FIXTURES / payload).read_text(encoding="utf-8")))
    listen = tmp / "ingest.sock"
    client = threading.Thread(target=_send, args=(listen, "f|35\nf|36\n"))
    client.start()
    codes.append(_cli(["ingest", "--format", "ultralight", "--device", "d1",
                       "--map", "f=vehicleFlow", "--listen", str(listen)]))
    client.join(timeout=10)
    for journal in journals:
        for namespace in NAMESPACES:
            codes.append(_cli(["store", "dump", "--journal", str(journal),
                               "--namespace", namespace]))
        codes.append(_cli(["shadow", "get", "--journal", str(journal),
                           "--from", "2024-12-10T12:00:00Z",
                           "--to", "2024-12-10T12:00:05Z"]))
        codes.append(_cli(["service", "predict", "--journal", str(journal),
                           "--entity", "TLF01", "--horizon", "3",
                           "--thresholds", str(REPO / "configs" / "demo"
                                               / "monitoring"
                                               / "thresholds.json")]))
    # a stored what-if carries its model and scenario: `sim run` input
    prediction = tmp / "demo" / "prediction" / "out" / "journal.jsonl"
    for line in prediction.read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        if doc["key"]["namespace"] == "SimResults":
            scenario = tmp / "scenario.json"
            scenario.write_text(json.dumps(doc["body"]), encoding="utf-8")
            codes.append(_cli(["sim", "run", "--scenario", str(scenario)]))
            break
    print(f"cli: {len(codes)} calls, exit codes {sorted(set(codes))}",
          file=sys.stderr)


def _run_workloads(tmp: Path, seed: int) -> None:
    path = REPO / "twinbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_twinbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for name, workload_class in workloads.WORKLOADS.items():
        workdir = tmp / "bench" / name
        workdir.mkdir(parents=True)
        workload = workload_class(seed, workdir)
        workload.setup()
        session = workload.session(1)
        print(f"{name}: {len(session.ops)} ops, {session.failed} failed",
              file=sys.stderr)


def _ranges(lines: list[int]) -> str:
    """`[3, 4, 5, 9]` as `3-5 9`."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][-1] + 1:
            runs[-1][1:] = [line]
        else:
            runs.append([line])
    return " ".join("-".join(map(str, run)) for run in runs)


def _never_executed(counts: dict) -> dict[str, list[int]]:
    ran: dict[str, set[int]] = {}
    for (filename, line), _ in counts.items():
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    missed = {}
    for module in sorted(PACKAGE.rglob("*.py")):
        # line 0 is the code object's own start, not a source line
        executable = set(trace._find_executable_linenos(str(module))) - {0}
        name = str(module.relative_to(PACKAGE.parent))
        missed[name] = sorted(executable
                              - ran.get(str(module.resolve()), set()))
    return missed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="twinbench workload seed")
    args = parser.parse_args()
    if "twinarch" in sys.modules:
        raise SystemExit("import twinarch inside the trace, not before")
    # no ignoredirs: `trace` caches "ignore" by module base name, so an
    # ignored stdlib `__init__` would hide every package `__init__` here
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tracer.runfunc(_run_cli, Path(tmp))
        tracer.runfunc(_run_workloads, Path(tmp), args.seed)
    missed = _never_executed(tracer.results().counts)
    for name, lines in missed.items():
        print(f"{len(lines):5d}  {name}: {_ranges(lines)}")
    print(f"{sum(map(len, missed.values())):5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
