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

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload prediction-search --seeds 1-10 --concurrent 0

With `--concurrent CPU` both runs of a pair start at the same time,
each pinned to that one CPU (the affinity is set in the child
processes, and their workers inherit it), so the two share whatever
the host gives that CPU during the run. After each pair it prints the
change/parent ratio of every end-to-end metric and of every
`block_op_ms_p50` block (the median op time of each fifth of a run's
sessions, in time order, so block k of one side ran at about the time
of block k of the other), and the summary adds the median ratio with
its quartiles. Both sides get half
the CPU, so the metrics themselves are not comparable with the
bounds; the alternating runs stay the record for those.
"""

from __future__ import annotations

import argparse
import json
import os
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


def start_run(checkout: Path, workload: str, seed: int, seconds: int,
              cpu: int | None = None) -> subprocess.Popen:
    """Start one benchmark run, pinned to `cpu` when one is given."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(
        [sys.executable, "twinbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, preexec_fn=pin)


def finish_run(proc: subprocess.Popen, checkout: Path,
               seed: int) -> tuple[dict, dict]:
    """Wait for a run; returns (result, details) from its last two
    lines of output."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed} exited "
                           f"{proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def show_ratios(label: str, ratios: list[float]) -> str:
    q1, q2, q3 = quartiles(ratios)
    return f"{label:<22} change/parent {q2:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--concurrent", type=int, metavar="CPU",
                        help="run both sides of a pair at once on this CPU")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {s: {} for s in sides}
    pairs: list[dict[str, dict]] = []
    ratios: dict[str, list[float]] = {}
    bad_runs = 0
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair: dict[str, dict] = {}
        blocks: dict[str, list[float]] = {}
        procs: dict[str, subprocess.Popen] = {}
        for side in order:
            try:
                if args.concurrent is not None and not procs:
                    # both runs start before either is waited for
                    procs = {s: start_run(sides[s], args.workload, seed,
                                          seconds, args.concurrent)
                             for s in order}
                result, details = finish_run(
                    procs.get(side) or start_run(sides[side], args.workload,
                                                 seed, seconds),
                    sides[side], seed)
            except (RuntimeError, OSError, ValueError, IndexError) as exc:
                for proc in procs.values():
                    proc.kill()
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 2
            blocks[side] = details["block_op_ms_p50"]
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
        if args.concurrent is not None:
            per_pair = {name: pair["change"][name] / pair["parent"][name]
                        for name in pair["parent"] if pair["parent"][name]}
            per_block = [change / parent for change, parent
                         in zip(blocks["change"], blocks["parent"])]
            for name, ratio in per_pair.items():
                ratios.setdefault(name, []).append(ratio)
            ratios.setdefault("block_op_ms_p50", []).extend(per_block)
            print(f"seed {seed:>3} change/parent "
                  + " ".join(f"{name}={r:.3f}" for name, r in per_pair.items())
                  + "  blocks " + " ".join(f"{r:.3f}" for r in per_block),
                  flush=True)

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
    if ratios:
        print(f"\nconcurrent on CPU {args.concurrent}: median ratio [q1, q3] "
              "over pairs (blocks: over every block of every pair)")
        for name, values_of in ratios.items():
            print(show_ratios(name, values_of))
    if bad_runs:
        print(f"bench_pairs: {bad_runs} run(s) not correct or with failed "
              "operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
