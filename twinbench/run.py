"""Run one workload of the twinarch benchmark and print its metrics.

    python3 twinbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It measures the sources under
`src/twinarch` of that checkout. The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the line before it holds the run's metadata (git revision,
Python version, CPU count, load average) and diagnostics, which also go
to `.twinbench/results/`.

Each run happens in a fresh worker process with a fixed
PYTHONHASHSEED (see worker.py). With `--trace 0` this script first
starts `SETUP_PROBES` more processes that only set the workload up, and
reports their median as `setup_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("monitoring-history", "prediction-search", "ingest-replay")
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0       # the whole run, probes included


def git_revision(root: Path) -> str:
    """HEAD's commit from the .git directory, or "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: argparse.Namespace, env: dict, timeout: float,
            *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "twinarch" / "__init__.py").is_file():
        print(f"run.py: no twinarch sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            probe = _worker(args, env, deadline - time.monotonic(),
                            "--setup-probe")
            if probe.returncode != 0:
                return probe.returncode
            # the probe prints perf_counter() when its set-up is done;
            # on Linux that clock is shared between processes
            setup_samples.append(float(probe.stdout.split()[-1]) - start)

    run = _worker(args, env, deadline - time.monotonic())
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples),
            "unit": metric_units("end_to_end")["setup_s"]}
        details["setup_samples_s"] = setup_samples

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_revision": git_revision(ROOT),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    record = {"meta": meta, "details": details, "result": result}
    results = ROOT / ".twinbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
