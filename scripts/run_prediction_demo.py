#!/usr/bin/env python3
"""Run the bundled prediction demo and narrate the what-if search.

Twelve ticks of steadily climbing traffic are ingested, the forecast
projects the climb past its threshold, and the solution finder
simulates each candidate plan before delivering the cheapest feasible
one back to the signal controller.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from twinarch.configs import load_manifest
from twinarch.orchestrator import run_loop

DEMO = Path(__file__).resolve().parent.parent / "configs/demo/prediction/manifest.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEMO))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    manifest = load_manifest(args.config, loop="prediction")
    output, manager = run_loop(manifest, "prediction", seed=args.seed,
                               check=True)
    try:
        plan = output.plan
        if plan is None:
            print("no feasible plan; alert delivered instead")
        else:
            actions = ", ".join(
                f"{a.name}({', '.join(f'{k}={v}' for k, v in a.arguments.items())})"
                for a in plan.actions)
            print(f"plan for {plan.entity_id}: {actions}")
            print(f"expected {manifest.run.sim.objective_metric}: "
                  f"{plan.expected_objective:.4f}")
            print(f"scenarios simulated: {len(plan.scenario_ids)} "
                  f"(chosen: {plan.scenario_ids[0]})")
        print(f"harness acks: {len(manager.harness.acks)}")
        report = output.report
        assert report is not None
        print(report.describe())
        return 0 if report.ok else 3
    finally:
        manager.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
