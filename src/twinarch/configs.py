"""Run manifests: loading, validation, and typed views.

A manifest bundles everything one run needs: the harness, the run
wiring, deviation thresholds, and the candidate catalog. Each section
can be inline JSON or a path string, resolved relative to the manifest
file. Validation is strict and happens before any run starts; every
problem, a key that nothing reads included, raises ConfigError with
the offending path. Defaults live in the dataclasses built here, and
those of `run.sim`, the run's what-if template, in `_SIM_DEFAULTS`. A
model or scenario document, in a manifest or for `twinarch sim run`,
is read the same way and validated as it loads.

    {"harness": {...} | "harness.json",
     "run": {...} | "run.json",
     "thresholds": {...} | "thresholds.json",    (prediction loops)
     "candidates": {...} | "candidates.json",    (prediction loops)
     "output_dir": "out"}
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .adapters import AdapterConfig, Direction
from .clock import parse_rfc3339
from .errors import ConfigError, InvalidSpec, SchemaViolation, UnmappableAction
from .harness import Fault, FaultKind, HarnessConfig
from .services import (FORECAST_METHODS, Band, CandidateSolution, Action,
                       FeedbackConfig, PredictorConfig, check_action)
from .shadows import ShadowType
from .simulation import (MAX_HORIZON, ModelSpec, SimScenario,
                         validate_scenario, validate_spec)
from .tracing import SequenceTemplate
from .wire.common import Source, is_number
from .wire.dtdl import parse_model


def _fields(doc: object, where: str,
            converters: dict[str, Callable[[object], object]],
            required: tuple[str, ...] = ()) -> dict:
    """The keys of one manifest object that are present, each through
    its converter; the dataclass built from them supplies every
    default. A key with no converter, a missing required key, or a
    value its converter refuses is a ConfigError naming it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = sorted(set(doc) - set(converters))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where}: missing {key!r}")
    fields = {}
    for key, value in doc.items():
        try:
            fields[key] = converters[key](value)
        except KeyError as exc:
            raise ConfigError(f"{where}.{key}: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from exc
    return fields


def _json_type(kind: type | tuple[type, ...],
               name: str) -> Callable[[object], object]:
    """A converter that passes a JSON value of one type through. JSON
    true and false are booleans, never numbers, though Python's bool
    is an int."""
    def check(value: object) -> object:
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"must be {name}, got {type(value).__name__}")
        return value
    return check


_text = _json_type(str, "a string")
_object = _json_type(dict, "an object")
_list = _json_type(list, "a list")
_int = _json_type(int, "an integer")


def _count(value: object) -> int:
    if _int(value) < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _number(value: object) -> int | float:
    # json.loads also reads NaN, Infinity and ints beyond a float's range
    if not is_number(value):
        raise ValueError(f"must be a finite number, got {reprlib.repr(value)}")
    return value


def _float(value: object) -> float:
    return float(_number(value))


def _name(value: object) -> str:
    if not _text(value):
        raise ValueError("must not be empty")
    return value


def _texts(value: object) -> tuple[str, ...]:
    return tuple(_text(item) for item in _list(value))


def _mapping(convert: Callable[[object], object]
             ) -> Callable[[object], dict]:
    """A converter for an object whose values each go through
    `convert`; a refused value names its key."""
    def check(value: object) -> dict:
        fields = {}
        for key, item in _object(value).items():
            try:
                fields[key] = convert(item)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{key}: {exc}") from exc
        return fields
    return check


def _items(value: object, where: str,
           parse: Callable[[object, str], object]) -> tuple:
    """`parse(item, path)` for each item of a manifest list."""
    return tuple(parse(item, f"{where}[{index}]")
                 for index, item in enumerate(_list(value)))


def read_json(path: Path, what: str) -> object:
    """Parse a JSON file; an absent or malformed one is a ConfigError."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


# numbers pass through unconverted, so a stored copy writes the same bytes
_numbers = _mapping(_number)
_MODEL = {"model_id": _text, "kind": _text, "parameters": _numbers,
          "inputs": _texts, "outputs": _texts, "version": _int}
_SCENARIO = {"scenario_id": _text, "model_id": _text,
             "initial_state": _numbers,
             "input_series": _mapping(
                 lambda value: [_number(item) for item in _list(value)]),
             "horizon": _int, "step_size": _number, "overrides": _numbers,
             "seed": _int, "entity_id": _text, "objective_metric": _text,
             "base_time": lambda value: parse_rfc3339(_text(value))}


def model_spec(doc: object, where: str) -> ModelSpec:
    """A model document, with every key of `ModelSpec.encoded`,
    checked against its kind."""
    spec = ModelSpec(**_fields(doc, where, _MODEL,
                               required=("model_id", "kind")))
    try:
        validate_spec(spec)
    except InvalidSpec as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return spec


def sim_scenario(doc: object, where: str, spec: ModelSpec) -> SimScenario:
    """A scenario document, with every key of `SimScenario.encoded`,
    checked against the model it runs on."""
    scenario = SimScenario(**_fields(doc, where, _SCENARIO,
                                     required=("scenario_id", "model_id")))
    if scenario.model_id != spec.model_id:
        raise ConfigError(f"{where}: model_id {scenario.model_id!r} is not "
                          f"the model's {spec.model_id!r}")
    try:
        validate_scenario(scenario, spec)
    except InvalidSpec as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return scenario


@dataclass(frozen=True)
class RunConfig:
    entity_id: str
    model: ModelSpec
    sim: SimScenario        # the what-if template each scenario starts from
    shadow_types: tuple[ShadowType, ...]
    input_metric: str       # the metric that feeds the template's input
    predictor: PredictorConfig = PredictorConfig()
    adapter: AdapterConfig = AdapterConfig(Direction.P2D)
    feedback: FeedbackConfig = FeedbackConfig()
    tick_interval: float = 1.0
    max_ticks: int = 10
    horizon: int = 5
    device_registry: dict[str, dict] = field(default_factory=dict)
    check_template: SequenceTemplate | None = None

    def __post_init__(self) -> None:
        if not self.shadow_types:
            raise ValueError("at least one shadow type is required")
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be > 0")
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be 1..{MAX_HORIZON}")


@dataclass(frozen=True)
class Manifest:
    harness: HarnessConfig
    run: RunConfig
    bands: dict[str, Band] = field(default_factory=dict)
    candidates: tuple[CandidateSolution, ...] = ()
    output_dir: Path = Path("out")


def _schedule(value: object) -> tuple[tuple[int, float], ...]:
    pairs = []
    for item in _list(value):
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"entries are [tick, value], got {item!r}")
        pairs.append((_int(item[0]), _float(item[1])))
    return tuple(pairs)


def _faults(value: object) -> tuple[Fault, ...]:
    faults = []
    for item in _list(value):
        try:
            faults.append(Fault(_int(item[0]), FaultKind(item[1]),
                                *map(_int, item[2:])))
        except (ValueError, IndexError, TypeError, KeyError) as exc:
            raise ValueError(f"bad fault entry {item!r}") from exc
    return tuple(faults)


_HARNESS = {"device_id": _text, "format": Source, "schedule": _schedule,
            "latency": _int, "faults": _faults, "response_gain": _float,
            "entity_type": _text, "attribute": _text, "short_key": _text,
            "jitter_sigma": _float, "seed": _int}


def _parse_harness(doc: dict) -> HarnessConfig:
    fields = _fields(doc, "harness", _HARNESS, required=("device_id",))
    try:
        return HarnessConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"harness: {exc}") from exc


def _forecast_method(value: object) -> str:
    if value not in FORECAST_METHODS:
        raise ValueError(f"unknown forecast method {value!r}; "
                         f"one of {sorted(FORECAST_METHODS)}")
    return value


def dtdl_interface(value: object, where: str) -> dict:
    """A DTDL interface model, checked once by the DTDL parser's own
    rules, so a bad model is not reported against every payload."""
    try:
        parse_model(_object(value))
    except (TypeError, SchemaViolation) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return value


def _removed_switch(value: object) -> bool:
    # removed run variants; older manifests carry both as false
    if value is not False:
        raise ValueError(f"removed; only false is accepted, got {value!r}")
    return value


_REMOVED_SWITCHES = ("low_latency_ingest", "feedback_on_change_only")
_SIM = {"objective_metric": _text, "input_metric": _text,
        "input_name": _text, "horizon": _int, "step_size": _float,
        "seed": _int}
# the run.sim defaults that a SimScenario does not already have
_SIM_DEFAULTS = {"objective_metric": "density", "input_metric": "vehicleFlow",
                 "input_name": "inflow", "horizon": 10}
_PREDICTOR = {"method": _forecast_method, "window": _count,
              "min_window": _count, "moving_average_k": _count,
              "attributes": _texts}
_SHADOW_TYPE = {"name": _text, "attributes": _texts, "entity_type": _text}
_ADAPTER = {"format": Source, "device_filter": _object,
            "attribute_map": _mapping(_name), "entity_type": _text,
            "dtdl_model": lambda value: dtdl_interface(
                value, "run.adapter.dtdl_model")}
_FEEDBACK = {"alert_templates": _object, "display_names": _object,
             "default_template": _text, "ok_message": _text}


def _inbound_adapter(doc: object) -> AdapterConfig:
    """The run's P2D adapter; a format it could parse no payload with
    is refused here, not once per payload."""
    config = AdapterConfig(Direction.P2D,
                           **_fields(doc, "run.adapter", _ADAPTER))
    if config.format is Source.INTERNAL:
        raise ValueError("format internal has no wire parser")
    if config.format is Source.DTDL and config.dtdl_model is None:
        raise ValueError("format dtdl needs a dtdl_model")
    return config


def _shadow_type(doc: object, where: str) -> ShadowType:
    fields = _fields(doc, where, _SHADOW_TYPE,
                     required=("name", "attributes"))
    return ShadowType(fields.pop("name"), fields.pop("attributes"), **fields)


def _parse_run(doc: dict) -> RunConfig:
    where = "run"
    fields = _fields(doc, where, {
        "entity_id": _text,
        "model": lambda value: model_spec(value, f"{where}.model"),
        "sim": lambda value: _fields(value, f"{where}.sim", _SIM),
        "predictor": lambda value: PredictorConfig(
            **_fields(value, f"{where}.predictor", _PREDICTOR)),
        "shadow_types": lambda value: _items(
            value, f"{where}.shadow_types", _shadow_type),
        "adapter": _inbound_adapter,
        "feedback": lambda value: FeedbackConfig(
            **_fields(value, f"{where}.feedback", _FEEDBACK)),
        "tick_interval": _float, "max_ticks": _count, "horizon": _int,
        "device_registry": _object,
        "check_template": lambda value: SequenceTemplate.from_json(
            _object(value)),
        **dict.fromkeys(_REMOVED_SWITCHES, _removed_switch),
    }, required=("entity_id", "model", "shadow_types"))
    for key in _REMOVED_SWITCHES:
        fields.pop(key, None)
    model, sim = fields["model"], {**_SIM_DEFAULTS, **fields.get("sim", {})}
    fields["input_metric"] = sim.pop("input_metric")
    template = fields["sim"] = SimScenario(
        "sim", model.model_id, input_series={sim.pop("input_name"): []}, **sim)
    try:   # refused here by the engine's own rule
        validate_scenario(template, model)
    except InvalidSpec as exc:
        raise ConfigError(f"{where}.sim: {exc}") from exc
    try:
        return RunConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_bands(doc: object) -> dict[str, Band]:
    """The `bands` of a thresholds document, each validated."""
    specs = _fields(doc, "thresholds", {"bands": _object},
                    required=("bands",))["bands"]
    if not specs:
        raise ConfigError("thresholds: no bands configured")
    bands = {}
    for metric, spec in specs.items():
        where = f"thresholds.bands.{metric}"
        fields = _fields(spec, where, {"lo": _float, "hi": _float,
                                       "critical_multiplier": _float},
                         required=("lo", "hi"))
        try:
            bands[metric] = Band(**fields)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return bands


def _action(doc: object, where: str) -> Action:
    fields = _fields(doc, where, {"name": _text, "target": _text,
                                  "args": _object}, required=("name",))
    if "args" in fields:
        fields["arguments"] = fields.pop("args")
    action = Action(**fields)
    try:
        check_action(action)
    except UnmappableAction as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return action


def _candidate(doc: object, where: str) -> CandidateSolution:
    fields = _fields(doc, where, {
        "id": _text,
        "actions": lambda value: _items(value, f"{where}.actions", _action),
    }, required=("id", "actions"))
    if not fields["actions"]:
        raise ConfigError(f"{where}.actions: a candidate needs an action")
    return CandidateSolution(fields.pop("id"), **fields)


def _parse_candidates(doc: object) -> tuple[CandidateSolution, ...]:
    return _fields(doc, "candidates", {
        "candidates": lambda value: _items(value, "candidates.candidates",
                                           _candidate),
    }, required=("candidates",))["candidates"]


def load_manifest(path: str | Path, loop: str = "monitoring") -> Manifest:
    """Load and validate a manifest for the given loop kind."""
    path = Path(path)
    base = path.parent

    def section(value: object) -> dict:
        if isinstance(value, str):
            value = read_json(base / value, "manifest section file")
        return _object(value)

    required = ("harness", "run")
    if loop == "prediction":
        required += ("thresholds", "candidates")
    top = _fields(read_json(path, "manifest"), "manifest", {
        "harness": lambda value: _parse_harness(section(value)),
        "run": lambda value: _parse_run(section(value)),
        "thresholds": lambda value: parse_bands(section(value)),
        "candidates": lambda value: _parse_candidates(section(value)),
        "output_dir": _text}, required=required)
    if "thresholds" in top:
        top["bands"] = top.pop("thresholds")
    objective = top["run"].sim.objective_metric
    if loop == "prediction" and objective not in top["bands"]:
        # the search scores each candidate by its objective's band
        raise ConfigError(f"thresholds.bands: no band for the objective "
                          f"metric {objective!r} (run.sim.objective_metric)")
    top["output_dir"] = base / top.get("output_dir", Manifest.output_dir)
    return Manifest(**top)
