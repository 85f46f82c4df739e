"""Run manifests: loading, validation, and typed views.

A manifest bundles everything one run needs: the harness, the run
wiring, deviation thresholds, and the candidate catalog. Each section
can be inline JSON or a path string, resolved relative to the manifest
file. Validation is strict and happens before any run starts; every
problem raises ConfigError with the offending path.

    {"harness": {...} | "harness.json",
     "run": {...} | "run.json",
     "thresholds": {...} | "thresholds.json",    (prediction loops)
     "candidates": {...} | "candidates.json",    (prediction loops)
     "output_dir": "out"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .adapters import AdapterConfig, Direction
from .errors import ConfigError
from .harness import Fault, FaultKind, HarnessConfig
from .services import (FORECAST_METHODS, Band, CandidateSolution, Action,
                       FeedbackConfig, PredictorConfig, SimulationSettings)
from .shadows import ShadowType
from .simulation import ModelSpec
from .tracing import SequenceTemplate
from .wire.common import Source


def _require(doc: dict, key: str, kind: type, where: str) -> object:
    if key not in doc:
        raise ConfigError(f"{where}: missing {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool
                                       and isinstance(value, bool)):
        raise ConfigError(
            f"{where}: {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


def _convert(doc: dict, key: str, kind: type, default: object,
             where: str) -> object:
    """`kind(doc.get(key, default))`; a value that does not convert is
    a ConfigError naming the field."""
    value = doc.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"{where}.{key}: not a {kind.__name__}: {value!r}") from exc


def read_json(path: Path, what: str) -> object:
    """Parse a JSON file; an absent or malformed one is a ConfigError."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _load_section(manifest: dict, key: str, base: Path,
                  required: bool) -> dict | None:
    section = manifest.get(key)
    if section is None:
        if required:
            raise ConfigError(f"manifest: missing section {key!r}")
        return None
    if isinstance(section, str):
        section = read_json(base / section, f"manifest: {key} file")
    if not isinstance(section, dict):
        raise ConfigError(f"manifest: section {key!r} must be an object")
    return section


@dataclass(frozen=True)
class RunConfig:
    entity_id: str
    tick_interval: float
    max_ticks: int
    horizon: int
    model: ModelSpec
    sim: SimulationSettings
    predictor: PredictorConfig
    shadow_types: tuple[ShadowType, ...]
    adapter: AdapterConfig
    device_registry: dict[str, dict]
    feedback: FeedbackConfig
    check_template: SequenceTemplate | None = None


@dataclass(frozen=True)
class Manifest:
    harness: HarnessConfig
    run: RunConfig
    bands: dict[str, Band] = field(default_factory=dict)
    candidates: tuple[CandidateSolution, ...] = ()
    output_dir: Path = Path("out")


def _parse_harness(doc: dict) -> HarnessConfig:
    where = "harness"
    device_id = _require(doc, "device_id", str, where)
    fmt = doc.get("format", "ultralight")
    try:
        source = Source(fmt)
    except ValueError as exc:
        raise ConfigError(f"{where}: unknown format {fmt!r}") from exc
    schedule = doc.get("schedule", [])
    if not isinstance(schedule, list):
        raise ConfigError(f"{where}: schedule must be a list")
    pairs = []
    for item in schedule:
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], int)
                or not isinstance(item[1], (int, float))):
            raise ConfigError(f"{where}: schedule entries are [tick, value]")
        pairs.append((item[0], float(item[1])))
    faults = []
    for item in doc.get("faults", []):
        try:
            faults.append(Fault(tick=int(item[0]),
                                kind=FaultKind(item[1]),
                                param=int(item[2]) if len(item) > 2 else 1))
        except (ValueError, IndexError, TypeError) as exc:
            raise ConfigError(f"{where}: bad fault entry {item!r}") from exc
    try:
        return HarnessConfig(
            device_id=device_id, format=source, schedule=tuple(pairs),
            latency=int(doc.get("latency", 0)), faults=tuple(faults),
            response_gain=float(doc.get("response_gain", 1.0)),
            entity_type=doc.get("entity_type", "Device"),
            attribute=doc.get("attribute", "vehicleFlow"),
            short_key=doc.get("short_key", "f"),
            jitter_sigma=float(doc.get("jitter_sigma", 0.0)),
            seed=int(doc.get("seed", 0)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_run(doc: dict) -> RunConfig:
    where = "run"
    entity_id = _require(doc, "entity_id", str, where)
    model_doc = _require(doc, "model", dict, where)
    try:
        model = ModelSpec.from_json(model_doc)
    except KeyError as exc:
        raise ConfigError(f"{where}.model: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.model: {exc}") from exc
    for key in ("low_latency_ingest", "feedback_on_change_only"):
        # removed run variants; older manifests carry both as false
        if doc.get(key, False) is not False:
            raise ConfigError(f"{where}.{key}: removed; only false is "
                              f"accepted, got {doc[key]!r}")
    sim_doc = doc.get("sim", {})
    sim_where = f"{where}.sim"
    sim = SimulationSettings(
        model_id=model.model_id,
        objective_metric=sim_doc.get("objective_metric", "density"),
        input_metric=sim_doc.get("input_metric", "vehicleFlow"),
        input_name=sim_doc.get("input_name", "inflow"),
        horizon=_convert(sim_doc, "horizon", int, 10, sim_where),
        step_size=_convert(sim_doc, "step_size", float, 1.0, sim_where),
        seed=_convert(sim_doc, "seed", int, 0, sim_where))
    pred_doc = doc.get("predictor", {})
    pred_where = f"{where}.predictor"
    method = pred_doc.get("method", "linear")
    if method not in FORECAST_METHODS:
        raise ConfigError(f"{pred_where}.method: unknown forecast method "
                          f"{method!r}; one of {sorted(FORECAST_METHODS)}")
    predictor = PredictorConfig(
        method=method,
        window=_convert(pred_doc, "window", int, 10, pred_where),
        min_window=_convert(pred_doc, "min_window", int, 3, pred_where),
        moving_average_k=_convert(pred_doc, "moving_average_k", int, 3,
                                  pred_where),
        attributes=tuple(pred_doc["attributes"])
        if "attributes" in pred_doc else None)
    shadow_types = []
    for item in doc.get("shadow_types", []):
        try:
            shadow_types.append(ShadowType(
                name=item["name"],
                attribute_set=frozenset(item["attributes"]),
                entity_type=item.get("entity_type", "Device")))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{where}.shadow_types: {exc}") from exc
    if not shadow_types:
        raise ConfigError(f"{where}: at least one shadow type is required")
    adapter_doc = doc.get("adapter", {})
    fmt = adapter_doc.get("format", "ultralight")
    try:
        source = Source(fmt)
    except ValueError as exc:
        raise ConfigError(f"{where}.adapter: unknown format {fmt!r}") from exc
    adapter = AdapterConfig(
        direction=Direction.P2D, format=source,
        device_filter=dict(adapter_doc.get("device_filter", {})),
        attribute_map=dict(adapter_doc.get("attribute_map", {})),
        entity_type=adapter_doc.get("entity_type", "Device"),
        dtdl_model=adapter_doc.get("dtdl_model"))
    feedback_doc = doc.get("feedback", {})
    feedback = FeedbackConfig(
        alert_templates=dict(feedback_doc.get("alert_templates", {})),
        display_names=dict(feedback_doc.get("display_names", {})),
        default_template=feedback_doc.get(
            "default_template", "{metric} out of range on {name}"),
        ok_message=feedback_doc.get("ok_message", "system ok"))
    template = None
    if "check_template" in doc:
        try:
            template = SequenceTemplate.from_json(doc["check_template"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{where}.check_template: {exc}") from exc
    tick_interval = _convert(doc, "tick_interval", float, 1.0, where)
    max_ticks = _convert(doc, "max_ticks", int, 10, where)
    horizon = _convert(doc, "horizon", int, 5, where)
    if tick_interval <= 0:
        raise ConfigError(f"{where}: tick_interval must be > 0")
    if max_ticks < 1:
        raise ConfigError(f"{where}: max_ticks must be >= 1")
    if horizon < 1:
        raise ConfigError(f"{where}: horizon must be >= 1")
    return RunConfig(
        entity_id=entity_id, tick_interval=tick_interval,
        max_ticks=max_ticks, horizon=horizon, model=model, sim=sim,
        predictor=predictor, shadow_types=tuple(shadow_types),
        adapter=adapter,
        device_registry=dict(doc.get("device_registry", {})),
        feedback=feedback, check_template=template)


def parse_bands(doc: object) -> dict[str, Band]:
    """The `bands` of a thresholds document, each validated."""
    specs = doc.get("bands", {}) if isinstance(doc, dict) else None
    if not isinstance(specs, dict):
        raise ConfigError("thresholds: expected {\"bands\": {...}}")
    bands = {}
    for metric, spec in specs.items():
        if not isinstance(spec, dict):
            raise ConfigError(f"thresholds: band {metric!r} must be an object")
        try:
            bands[metric] = Band(
                lo=float(spec["lo"]), hi=float(spec["hi"]),
                critical_multiplier=float(spec.get("critical_multiplier",
                                                   0.5)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"thresholds: band {metric!r}: {exc}") from exc
    if not bands:
        raise ConfigError("thresholds: no bands configured")
    return bands


def _parse_candidates(doc: dict) -> tuple[CandidateSolution, ...]:
    candidates = []
    for item in doc.get("candidates", []):
        if not isinstance(item, dict) or "id" not in item:
            raise ConfigError(f"candidates: entries need an 'id': {item!r}")
        actions = []
        for action in item.get("actions", []):
            try:
                actions.append(Action(
                    name=action["name"], target=action.get("target", ""),
                    arguments=dict(action.get("args", {}))))
            except (KeyError, TypeError) as exc:
                raise ConfigError(
                    f"candidates: {item['id']}: bad action: {exc}") from exc
        candidates.append(CandidateSolution(
            candidate_id=item["id"], actions=tuple(actions)))
    return tuple(candidates)


def load_manifest(path: str | Path, loop: str = "monitoring") -> Manifest:
    """Load and validate a manifest for the given loop kind."""
    path = Path(path)
    doc = read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    base = path.parent
    harness = _parse_harness(_load_section(doc, "harness", base,
                                           required=True))
    run = _parse_run(_load_section(doc, "run", base, required=True))
    needs_services = loop == "prediction"
    thresholds_doc = _load_section(doc, "thresholds", base,
                                   required=needs_services)
    candidates_doc = _load_section(doc, "candidates", base, required=False)
    if needs_services and candidates_doc is None:
        raise ConfigError("manifest: prediction loop needs 'candidates'")
    bands = parse_bands(thresholds_doc) if thresholds_doc else {}
    candidates = _parse_candidates(candidates_doc) if candidates_doc else ()
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("manifest: output_dir must be a string")
    return Manifest(harness=harness, run=run, bands=bands,
                    candidates=candidates, output_dir=base / output_dir)
