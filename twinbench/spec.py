"""The metric names and units that `BENCHMARK.json` declares.

The benchmark prints exactly these, in this order, with these units;
`metric_units` is the one place the code learns them from.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_units(section: str, path: Path = SPEC_PATH) -> dict[str, str]:
    """Name -> unit of every metric in `section` ("end_to_end" or
    "per_layer") of the benchmark spec, in the spec's order."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def as_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    """The result's `metrics` object: every metric in `units`, none
    other; a value missing for a declared metric is an error."""
    extra = values.keys() - units.keys()
    missing = units.keys() - values.keys()
    if extra or missing:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(extra)}; "
                       f"declared but not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}
