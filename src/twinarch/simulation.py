"""Digital models and their execution engine.

Each model kind supplies one kernel that runs a whole scenario in one
call: ``simulate(params, seed, initial_state, inputs, horizon)`` returns
one fresh state dict per step. ``inputs`` holds each scenario input as
a series of exactly ``horizon`` floats; a series shorter than the
horizon holds its last value, an empty one reads 0. Execution is
deterministic for a fixed (spec, scenario, seed): the only randomness
is the scenario seed, which a kind seeds its own generator with only
when it draws noise. After the run, the first non-finite state value
fails the scenario with a ``NumericalFailure`` that carries the states
before that step.

The built-in ``traffic-flow`` kind tracks one state variable,
``density`` in [0, 1]:

    effective_capacity = capacity + green_sensitivity * green_extension
    density' = clamp(density + (inflow_gain * inflow - effective_capacity)
                     / capacity_scale, 0, 1)

``capacity_scale`` defaults to ``capacity``; an optional
``noise_sigma`` adds seeded Gaussian jitter to the increment before
clamping.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain
from typing import Callable

from .clock import format_rfc3339
from .errors import InvalidSpec, NotFound, NumericalFailure
from .storage import Namespace, RecordKey, SharedStorage
from .wire.common import Encoded, encode, is_number

# the most steps a scenario or a forecast may run; its series fit in memory
MAX_HORIZON = 10_000

State = dict[str, float]
Kernel = Callable[[dict, int, State, dict[str, list[float]], int],
                  list[State]]


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    kind: str
    parameters: dict[str, float] = field(default_factory=dict)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    version: int = 1
    # the model document with its text, taken where the spec is built
    encoded: Encoded = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "encoded", Encoded({
            "model_id": self.model_id, "kind": self.kind,
            "parameters": dict(self.parameters),
            "inputs": list(self.inputs), "outputs": list(self.outputs),
            "version": self.version}))


@dataclass(frozen=True)
class SimScenario:
    scenario_id: str
    model_id: str
    initial_state: dict[str, float] = field(default_factory=dict)
    input_series: dict[str, list[float]] = field(default_factory=dict)
    horizon: int = 1
    step_size: float = 1.0
    overrides: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    entity_id: str | None = None       # which twin the result belongs to
    objective_metric: str | None = None
    base_time: datetime | None = None
    # the scenario document with its text, taken where it is built
    encoded: Encoded = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        doc: dict = {"scenario_id": self.scenario_id,
                     "model_id": self.model_id,
                     "initial_state": dict(self.initial_state),
                     "input_series": {k: list(v)
                                      for k, v in self.input_series.items()},
                     "horizon": self.horizon, "step_size": self.step_size,
                     "overrides": dict(self.overrides), "seed": self.seed}
        if self.entity_id is not None:
            doc["entity_id"] = self.entity_id
        if self.objective_metric is not None:
            doc["objective_metric"] = self.objective_metric
        if self.base_time is not None:
            doc["base_time"] = format_rfc3339(self.base_time)
        object.__setattr__(self, "encoded", Encoded(doc))


@dataclass(frozen=True)
class SimResult:
    scenario_id: str
    state_series: tuple[State, ...]
    objective: float | None
    completed_at: datetime


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelKind:
    name: str
    parameter_names: frozenset[str]
    required_parameters: frozenset[str]
    validate: Callable[[dict], None]
    simulate: Kernel


def _validate_traffic_params(params: dict) -> None:
    capacity = params.get("capacity")
    if not is_number(capacity) or capacity <= 0:
        raise InvalidSpec(f"capacity must be > 0, got {capacity!r}")
    scale = params.get("capacity_scale", capacity)
    if not is_number(scale) or scale <= 0:
        raise InvalidSpec(f"capacity_scale must be > 0, got {scale!r}")
    sigma = params.get("noise_sigma", 0.0)
    if not is_number(sigma) or sigma < 0:
        raise InvalidSpec(f"noise_sigma must be >= 0, got {sigma!r}")
    for name in ("inflow_gain", "green_sensitivity", "green_extension"):
        value = params.get(name, 0.0)
        if not is_number(value):
            raise InvalidSpec(f"{name} must be a finite number, got {value!r}")


def _simulate_traffic(params: dict, seed: int, initial_state: State,
                      inputs: dict[str, list[float]], horizon: int,
                      ) -> list[State]:
    capacity = float(params["capacity"])
    inflow_gain = float(params.get("inflow_gain", 1.0))
    sensitivity = float(params.get("green_sensitivity", 0.0))
    extension = float(params.get("green_extension", 0.0))
    scale = float(params.get("capacity_scale", capacity))
    sigma = float(params.get("noise_sigma", 0.0))
    effective_capacity = capacity + sensitivity * extension
    inflows = inputs["inflow"] if "inflow" in inputs else [0.0] * horizon
    noisy = sigma > 0
    gauss = random.Random(seed).gauss if noisy else None
    density = initial_state.get("density", 0.0)
    states: list[State] = []
    append = states.append
    for inflow in inflows:
        delta = (inflow_gain * inflow - effective_capacity) / scale
        if noisy:
            delta += gauss(0.0, sigma)
        # the same values as min(1.0, max(0.0, d)); a NaN becomes 0.0
        d = density + delta
        d = d if d > 0.0 else 0.0
        density = d if d < 1.0 else 1.0
        append({"density": density})
    return states


TRAFFIC_FLOW_KIND = ModelKind(
    name="traffic-flow",
    parameter_names=frozenset({"capacity", "inflow_gain", "green_sensitivity",
                               "green_extension", "capacity_scale",
                               "noise_sigma"}),
    required_parameters=frozenset({"capacity"}),
    validate=_validate_traffic_params,
    simulate=_simulate_traffic,
)

KIND_TABLE: dict[str, ModelKind] = {TRAFFIC_FLOW_KIND.name: TRAFFIC_FLOW_KIND}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_spec(spec: ModelSpec) -> ModelKind:
    if not spec.model_id:
        raise InvalidSpec("model_id must be non-empty")
    kind = KIND_TABLE.get(spec.kind)
    if kind is None:
        raise InvalidSpec(f"unknown model kind {spec.kind!r}")
    overlap = set(spec.inputs) & set(spec.outputs)
    if overlap:
        raise InvalidSpec(f"inputs and outputs overlap: {sorted(overlap)}")
    unknown = set(spec.parameters) - kind.parameter_names
    if unknown:
        raise InvalidSpec(f"unknown parameters for {spec.kind}: {sorted(unknown)}")
    missing = kind.required_parameters - set(spec.parameters)
    if missing:
        raise InvalidSpec(f"missing parameters for {spec.kind}: {sorted(missing)}")
    kind.validate(spec.parameters)
    return kind


def validate_scenario(scenario: SimScenario, spec: ModelSpec) -> None:
    horizon = scenario.horizon
    if not isinstance(horizon, int) or not 1 <= horizon <= MAX_HORIZON:
        raise InvalidSpec(f"horizon must be 1..{MAX_HORIZON}, got {horizon!r}")
    if scenario.step_size <= 0:
        raise InvalidSpec(f"step_size must be > 0, got {scenario.step_size!r}")
    stray = set(scenario.overrides) - set(spec.parameters) - (
        KIND_TABLE[spec.kind].parameter_names)
    if stray:
        raise InvalidSpec(f"overrides for unknown parameters: {sorted(stray)}")
    stray_inputs = set(scenario.input_series) - set(spec.inputs)
    if stray_inputs:
        raise InvalidSpec(f"series for unknown inputs: {sorted(stray_inputs)}")
    if (scenario.objective_metric is not None
            and scenario.objective_metric not in spec.outputs):
        raise InvalidSpec(
            f"objective metric {scenario.objective_metric!r} is not an output")
    # `is_number`'s rule inline, since a call per step costs: `type`
    # refuses a bool, and `isfinite` overflows on an int too large
    try:
        for name, series in scenario.input_series.items():
            for v in series:
                if type(v) not in (int, float) or not math.isfinite(v):
                    raise InvalidSpec(f"non-finite value in series {name!r}")
    except OverflowError:
        raise InvalidSpec(f"non-finite value in series {name!r}") from None
    for name, v in scenario.initial_state.items():
        if not is_number(v):
            raise InvalidSpec(f"non-finite initial state {name}={v!r}")
    merged = dict(spec.parameters)
    merged.update(scenario.overrides)
    KIND_TABLE[spec.kind].validate(merged)


def _held_inputs(scenario: SimScenario) -> dict[str, list[float]]:
    """Each input series as exactly `horizon` floats: the last value is
    held past the end of a short series, and an empty one reads 0."""
    horizon = scenario.horizon
    inputs: dict[str, list[float]] = {}
    for name, series in scenario.input_series.items():
        held = [float(v) for v in series[:horizon]]
        held.extend([held[-1] if held else 0.0] * (horizon - len(held)))
        inputs[name] = held
    return inputs


def execute(spec: ModelSpec, scenario: SimScenario,
            completed_at: datetime) -> SimResult:
    """Run the scenario in one kernel call; a pure function of its
    arguments."""
    params = dict(spec.parameters)
    params.update(scenario.overrides)
    kind = KIND_TABLE[spec.kind]
    initial: State = {k: float(v) for k, v in scenario.initial_state.items()}
    series = kind.simulate(params, scenario.seed, initial,
                           _held_inputs(scenario), scenario.horizon)
    isfinite = math.isfinite
    # one sweep over every value; the step loop finds the first failure
    if not all(map(isfinite, chain.from_iterable(map(dict.values, series)))):
        for step, state in enumerate(series):
            for name, value in state.items():
                if not isfinite(value):
                    raise NumericalFailure(
                        f"non-finite {name}={value!r} at step {step}",
                        partial_series=tuple(series[:step]))
    objective = None
    if scenario.objective_metric is not None:
        objective = series[-1].get(scenario.objective_metric)
    return SimResult(scenario_id=scenario.scenario_id,
                     state_series=tuple(series), objective=objective,
                     completed_at=completed_at)


# ---------------------------------------------------------------------------
# Manager and engine
# ---------------------------------------------------------------------------

class ModelManager:
    """Registry of model specs, kept as written, one per model id."""

    def __init__(self) -> None:
        self._models: dict[str, ModelSpec] = {}

    def upsert_model(self, spec: ModelSpec) -> None:
        """Validate `spec` and register it in place of any spec under
        its id."""
        validate_spec(spec)
        self._models[spec.model_id] = spec

    def get_model(self, model_id: str) -> ModelSpec:
        spec = self._models.get(model_id)
        if spec is None:
            raise NotFound(f"no model {model_id!r}")
        return spec


class ModelEngine:
    """Scenario executor that runs everything on the caller's thread;
    callers must not share it across threads. It keeps no state per
    scenario.

    `model_execution` runs one scenario and returns its result;
    `scenario_sim` queues one and `drain` runs the queue in submission
    order, which the conformance checks rely on. Completed results are
    committed to the SimResults namespace.
    """

    def __init__(self, manager: ModelManager, storage: SharedStorage,
                 clock: Callable[[], datetime]) -> None:
        self.manager = manager
        self.storage = storage
        self._clock = clock
        self._queue: deque[SimScenario] = deque()

    def model_execution(self, scenario: SimScenario) -> SimResult:
        """Validate and run one scenario to completion, then store it."""
        spec = self.manager.get_model(scenario.model_id)
        validate_scenario(scenario, spec)
        result = execute(spec, scenario, completed_at=self._clock())
        self._store_result(spec, scenario, result)
        return result

    def _store_result(self, spec: ModelSpec, scenario: SimScenario,
                      result: SimResult) -> None:
        completed_at = format_rfc3339(result.completed_at)
        doc, series = scenario.encoded.value, list(result.state_series)
        base_time = doc.get("base_time", completed_at)
        key = RecordKey(namespace=Namespace.SIM_RESULTS,
                        entity_id=scenario.entity_id or scenario.model_id,
                        name=scenario.scenario_id,
                        observed_at=result.completed_at)
        # sorted keys, as `encode` writes them; a stamp needs no escaping
        text = ('{"base_time": "%s", "completed_at": "%s", "model": %s, '
                '"objective": %s, "scenario": %s, "series": %s}' % (
                    base_time, completed_at, spec.encoded.text,
                    encode(result.objective), scenario.encoded.text,
                    encode(series)))
        self.storage.upsert(key, Encoded({
            "scenario": doc, "model": spec.encoded.value, "series": series,
            "objective": result.objective, "base_time": base_time,
            "completed_at": completed_at}, text))

    def scenario_sim(self, scenario: SimScenario) -> str:
        """Queue a scenario; `drain` validates and runs it."""
        self._queue.append(scenario)
        return scenario.scenario_id

    def drain(self) -> list[SimResult]:
        """Run every queued scenario, oldest first, and return their
        results in that order. A failure propagates, and the scenarios
        behind the failed one stay queued."""
        results = []
        while self._queue:
            results.append(self.model_execution(self._queue.popleft()))
        return results
