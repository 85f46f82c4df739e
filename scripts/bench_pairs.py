"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload prediction-search --seeds 1-10

For each seed it runs `python3 twinbench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, with S the `run_seconds`
of `BENCHMARK.json`; an odd seed runs the parent first, an even seed
the change. Every run prints one line with
its end-to-end metrics and the median of its `host_probe_ms` samples,
the worker's timing of a fixed reference loop, so a run can be read
against the host's speed at the time.

The summary gives, for every end-to-end metric of `BENCHMARK.json`,
each side's median and quartiles, how much worse the change's median
is than the parent's (as a share of the parent's, next to the
metric's bound), and the number of pairs the change won. Which
direction is better comes from `BENCHMARK.json`; a tie wins for
neither side. The exit status is 1 when any run is not `correct` or
has failed operations, and 2 when a run cannot be made at all.
Standard library only; it writes nothing outside the checkouts'
own `.twinbench/` result directories.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'1-10' for a range, '11' for one seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int,
             seconds: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details) from its last two
    lines of output."""
    proc = subprocess.run(
        [sys.executable, "twinbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed} exited "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {s: {} for s in sides}
    pairs: list[dict[str, dict]] = []
    bad_runs = 0
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair: dict[str, dict] = {}
        for side in order:
            try:
                result, details = run_once(sides[side], args.workload,
                                           seed, seconds)
            except (RuntimeError, OSError, ValueError, IndexError) as exc:
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 2
            metrics = {name: m["value"]
                       for name, m in result["metrics"].items()}
            pair[side] = metrics
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            if not result["correct"] or result["failed"]:
                bad_runs += 1
            probe = statistics.median(details["host_probe_ms"])
            shown = " ".join(f"{name}={value:.4g}"
                             for name, value in metrics.items())
            print(f"seed {seed:>3} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"host_probe_ms={probe:.3f} {shown}", flush=True)
        pairs.append(pair)

    print(f"\n{args.workload}, {len(pairs)} pairs, {seconds:g} s runs; "
          "median [q1, q3]")
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        if name not in values["parent"] or name not in values["change"]:
            continue
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s][name])
                                      for s in ("parent", "change"))
        wins = sum(1 for pair in pairs
                   if (pair["change"][name] < pair["parent"][name] if lower
                       else pair["change"][name] > pair["parent"][name]))
        worse = (cm - pm) / pm if lower else (pm - cm) / pm
        print(f"{name:<22} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {metric['unit']}  "
              f"worse by {worse:+.1%} (bound {metric['bound']:.0%})  "
              f"change won {wins}/{len(pairs)}")
    if bad_runs:
        print(f"bench_pairs: {bad_runs} run(s) not correct or with failed "
              "operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
