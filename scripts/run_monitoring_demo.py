#!/usr/bin/env python3
"""Run the bundled monitoring demo and narrate what happened.

Ten ticks of rising traffic on one sensor: telemetry flows in, the
shadow and the one-step simulation are fused into a twin state each
tick, and feedback goes back out (ok messages first, then congestion
alerts once density crosses the band).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from twinarch.configs import load_manifest
from twinarch.orchestrator import run_loop

DEMO = Path(__file__).resolve().parent.parent / "configs/demo/monitoring/manifest.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEMO))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    manifest = load_manifest(args.config, loop="monitoring")
    output, manager = run_loop(manifest, "monitoring", seed=args.seed,
                               check=True)
    try:
        for entity, state in output.states.items():
            print(f"{entity}: {state.describe()} [{state.provenance.value}]")
        alerts = [f for f in output.feedbacks if f.variant == "alert"]
        warned = [f for f in alerts if f.severity is not None
                  and f.severity.value != "Info"]
        print(f"feedback messages: {len(output.feedbacks)} "
              f"({len(warned)} congestion alerts)")
        if warned:
            print(f"first alert: {warned[0].message!r}")
        report = output.report
        assert report is not None
        print(report.describe())
        return 0 if report.ok else 3
    finally:
        manager.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
