"""Twin services: state fusion, forecasting, deviation detection,
scenario generation, solution search, and feedback execution.

All services are stateless over storage snapshots; any ordering
guarantees come from the orchestrator. Decision rules are deliberately
simple and documented so independent oracles can recompute them:

* State fusion: per metric, the most recent of (latest shadow point,
  latest simulated point); ties go to the shadow (real data wins), and
  a what-if, stamped after the state, is ignored.
* Forecasts: last-value, moving-average(k), or ordinary least squares
  on the sample index over a sliding window (default 10, minimum 3).
* Deviations: value outside a configured [lo, hi] band; Critical when
  the excess exceeds critical_multiplier * band width.
* Solution search: exhaustive scoring of a static candidate catalog;
  score is the distance of the simulated final objective metric to its
  desired band (0 inside); argmin with ties broken by fewest actions,
  then lexicographic action names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import Callable, Sequence

from .adapters import D2PAdapter
from .clock import format_rfc3339, parse_rfc3339
from .errors import (InsufficientHistory, MissingThreshold, NoFeasibleSolution,
                     NotFound, UnmappableAction)
from .shadows import ShadowManager
from .simulation import SimScenario
from .storage import Namespace, RecordKey, SharedStorage
from .tracing import Tracer, hop
from .wire.common import Scalar, is_number


class Provenance(Enum):
    REAL_ONLY = "RealOnly"
    SIM_ONLY = "SimOnly"
    FUSED = "Fused"


class Severity(Enum):
    INFO = "Info"
    WARNING = "Warning"
    CRITICAL = "Critical"


class DeviationKind(Enum):
    REAL = "Real"
    PREDICTED = "Predicted"


@dataclass(frozen=True)
class TwinState:
    entity_id: str
    computed_at: datetime
    metrics: dict[str, Scalar]
    provenance: Provenance

    def describe(self) -> str:
        """Render the metrics as a readable phrase, density and speed
        first: "traffic density of 80% with an average vehicle speed
        of 15 km/h"."""
        parts = []
        if "density" in self.metrics:
            parts.append(f"traffic density of {self.metrics['density']:.0%}")
        if "speed" in self.metrics:
            parts.append(
                f"an average vehicle speed of {self.metrics['speed']:g} km/h")
        for name in sorted(self.metrics):
            if name in ("density", "speed"):
                continue
            value = self.metrics[name]
            rendered = f"{value:g}" if is_number(value) else str(value)
            parts.append(f"a {name} of {rendered}")
        return " with ".join(parts) if parts else "no observed metrics"

    def to_json(self) -> dict:
        """The States record body, also written to `states.json`."""
        return {"metrics": self.metrics, "provenance": self.provenance.value,
                "computed_at": format_rfc3339(self.computed_at)}


@dataclass(frozen=True)
class Prediction:
    entity_id: str
    base_time: datetime
    horizon: int
    predicted_series: tuple[tuple[datetime, dict[str, float]], ...]
    method: str

    def __post_init__(self) -> None:
        if len(self.predicted_series) != self.horizon:
            raise ValueError("series length must equal the horizon")
        stamps = [t for t, _ in self.predicted_series]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("series timestamps must strictly increase")

    def series_for(self, metric: str) -> list[float]:
        return [m[metric] for _, m in self.predicted_series if metric in m]


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    critical_multiplier: float = 0.5

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"band upside down: [{self.lo}, {self.hi}]")

    def distance(self, value: float) -> float:
        if value < self.lo:
            return self.lo - value
        if value > self.hi:
            return value - self.hi
        return 0.0


@dataclass(frozen=True)
class Deviation:
    entity_id: str
    metric: str
    value: float
    expected: float              # the violated band edge
    severity: Severity
    detected_at: datetime
    kind: DeviationKind

    @property
    def deviation_id(self) -> str:
        return (f"{self.entity_id}:{self.metric}:"
                f"{format_rfc3339(self.detected_at)}")


@dataclass(frozen=True)
class Action:
    name: str
    target: str = ""
    arguments: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CandidateSolution:
    candidate_id: str
    actions: tuple[Action, ...] = ()


@dataclass(frozen=True)
class Plan:
    entity_id: str
    actions: tuple[Action, ...]
    expected_objective: float
    scenario_ids: tuple[str, ...]
    deviation_id: str | None = None

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("a plan needs at least one action")
        if not self.scenario_ids:
            raise ValueError("a plan must reference a completed simulation")


@dataclass(frozen=True)
class Feedback:
    variant: str                         # "alert" | "command-plan"
    entity_id: str
    issued_at: datetime
    message: str | None = None
    severity: Severity | None = None
    plan: Plan | None = None
    correlation: str | None = None


# ---------------------------------------------------------------------------
# StateMonitor
# ---------------------------------------------------------------------------

class StateMonitor:
    """Computes the current twin state by fusing shadows with the
    latest simulation result."""

    def __init__(self, storage: SharedStorage, shadow_manager: ShadowManager,
                 clock: Callable[[], datetime]) -> None:
        self.storage = storage
        self.shadow_manager = shadow_manager
        self._clock = clock

    def _sim_latest(self, entity_id: str, now: datetime,
                    ) -> dict[str, tuple[datetime, float]]:
        # the last result in read order, stamped where its series ends:
        # after `now` for a what-if, at its tick for current conditions
        record = self.storage.latest(Namespace.SIM_RESULTS, entity_id)
        if record is None:
            return {}
        body = record.body
        if not isinstance(body, dict) or not body.get("series"):
            return {}
        scenario = body.get("scenario", {})
        base_time = parse_rfc3339(body["base_time"])
        step = float(scenario.get("step_size", 1.0))
        final = body["series"][-1]
        stamp = base_time + timedelta(seconds=step * len(body["series"]))
        if stamp > now:
            return {}
        return {name: (stamp, float(value)) for name, value in final.items()}

    def get_state(self, entity_id: str) -> TwinState:
        """Fuse the latest real and simulated values. A read: it writes
        nothing, and `store_state` commits what it returns."""
        now = self._clock()
        real = self.shadow_manager.latest_points(entity_id)
        sim = self._sim_latest(entity_id, now)
        if not real and not sim:
            raise NotFound(f"no shadow or simulation data for {entity_id!r}")
        metrics: dict[str, Scalar] = {}
        used_real = used_sim = False
        for name in sorted(set(real) | set(sim)):
            point, in_sim = real.get(name), sim.get(name)
            if point is not None and (in_sim is None
                                      or point.observed_at >= in_sim[0]):
                metrics[name] = point.value    # ties go to the shadow
                used_real = True
            else:
                metrics[name] = in_sim[1]
                used_sim = True
        if used_real and used_sim:
            provenance = Provenance.FUSED
        elif used_real:
            provenance = Provenance.REAL_ONLY
        else:
            provenance = Provenance.SIM_ONLY
        return TwinState(entity_id=entity_id, computed_at=now,
                         metrics=metrics, provenance=provenance)

    def store_state(self, state: TwinState) -> None:
        """Commit `state` to the States namespace: the storeState hop."""
        key = RecordKey(namespace=Namespace.STATES, entity_id=state.entity_id,
                        name="state", observed_at=state.computed_at)
        self.storage.upsert(key, state.to_json())


# ---------------------------------------------------------------------------
# Predictor
# ---------------------------------------------------------------------------

def fit_line(values: Sequence[float]) -> tuple[float, float]:
    """Least squares over sample indices 0..n-1 -> (intercept, slope)."""
    n = len(values)
    x_mean = (n - 1) / 2
    y_mean = sum(values) / n
    sxx = sum((i - x_mean) ** 2 for i in range(n))
    sxy = sum((i - x_mean) * (v - y_mean) for i, v in enumerate(values))
    slope = sxy / sxx if sxx else 0.0
    return y_mean - slope * x_mean, slope


def _forecast_last_value(values: list[float], horizon: int, window: int,
                         k: int) -> list[float]:
    return [values[-1]] * horizon

def _forecast_moving_average(values: list[float], horizon: int, window: int,
                             k: int) -> list[float]:
    tail = values[-k:]
    mean = sum(tail) / len(tail)
    return [mean] * horizon

def _forecast_linear(values: list[float], horizon: int, window: int,
                     k: int) -> list[float]:
    tail = values[-window:]
    intercept, slope = fit_line(tail)
    n = len(tail)
    return [intercept + slope * (n - 1 + j) for j in range(1, horizon + 1)]


FORECAST_METHODS = {
    "last-value": _forecast_last_value,
    "moving-average": _forecast_moving_average,
    "linear": _forecast_linear,
}


@dataclass(frozen=True)
class PredictorConfig:
    method: str = "linear"
    window: int = 10
    min_window: int = 3
    moving_average_k: int = 3
    attributes: tuple[str, ...] | None = None   # None = all numeric traces


class Predictor:
    """Forecasts future metric values from shadow traces."""

    def __init__(self, shadow_manager: ShadowManager,
                 config: PredictorConfig | None = None) -> None:
        self.shadow_manager = shadow_manager
        self.config = config or PredictorConfig()
        if self.config.method not in FORECAST_METHODS:
            raise ValueError(f"unknown forecast method {self.config.method!r}")

    def _traces(self, entity_id: str) -> dict[str, list[tuple[datetime, float]]]:
        """Each numeric attribute's readings in time order. Shadows that
        share an attribute hold the same reading, so one per instant."""
        traces: dict[str, dict[datetime, float]] = {}
        for shadow in self.shadow_manager.get_shadow(entity_id=entity_id):
            for point in shadow.trace:
                if not is_number(point.value):
                    continue
                if (self.config.attributes is not None
                        and point.attribute not in self.config.attributes):
                    continue
                traces.setdefault(point.attribute, {})[
                    point.observed_at] = float(point.value)
        return {name: sorted(points.items())
                for name, points in traces.items()}

    def prediction(self, entity_id: str, horizon: int) -> Prediction:
        """Forecast every attribute with enough history."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        traces = self._traces(entity_id)
        eligible = {name: points for name, points in traces.items()
                    if len(points) >= self.config.min_window}
        if not eligible:
            longest = max((len(p) for p in traces.values()), default=0)
            raise InsufficientHistory(
                f"{entity_id}: longest trace has {longest} points, "
                f"need {self.config.min_window}")
        method = FORECAST_METHODS[self.config.method]
        forecasts = {
            name: method([v for _, v in points], horizon,
                         self.config.window, self.config.moving_average_k)
            for name, points in eligible.items()}
        # timeline continues the densest trace's spacing
        stamps = [t for t, _ in max(eligible.values(), key=len)]
        last_t = stamps[-1]
        step = (last_t - stamps[-2] if len(stamps) >= 2
                else timedelta(seconds=1))
        series = tuple(
            (last_t + step * (i + 1),
             {name: forecasts[name][i] for name in sorted(forecasts)})
            for i in range(horizon))
        return Prediction(entity_id=entity_id, base_time=last_t,
                          horizon=horizon, predicted_series=series,
                          method=self.config.method)


# ---------------------------------------------------------------------------
# DeviationDetector
# ---------------------------------------------------------------------------

class DeviationDetector:
    """Compares real or predicted states against configured bands."""

    def __init__(self, bands: dict[str, Band]) -> None:
        self.bands = dict(bands)

    def detect_deviation(self, subject: TwinState | Prediction,
                         ) -> list[Deviation]:
        """One deviation per out-of-band metric; [] when all is well.

        A state is one step and a prediction's series is its steps; the
        first violating step of each metric is reported. Numeric
        metrics without a configured band raise MissingThreshold.
        """
        if isinstance(subject, TwinState):
            steps = ((subject.computed_at, subject.metrics),)
            kind = DeviationKind.REAL
        else:
            steps = subject.predicted_series
            kind = DeviationKind.PREDICTED
        first: dict[str, Deviation] = {}
        for stamp, values in steps:
            for metric in sorted(values):
                value = values[metric]
                if metric in first or not is_number(value):
                    continue
                band = self.bands.get(metric)
                if band is None:
                    raise MissingThreshold(
                        f"no band configured for metric {metric!r}")
                value = float(value)
                excess = band.distance(value)
                if excess == 0.0:
                    continue
                width = band.hi - band.lo
                critical = excess > band.critical_multiplier * width
                first[metric] = Deviation(
                    entity_id=subject.entity_id, metric=metric, value=value,
                    expected=band.hi if value > band.hi else band.lo,
                    severity=Severity.CRITICAL if critical else Severity.WARNING,
                    detected_at=stamp, kind=kind)
        return [first[metric] for metric in sorted(first)]


# ---------------------------------------------------------------------------
# ScenarioGenerator / SolutionFinder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationSettings:
    """How candidate what-if scenarios are assembled."""

    model_id: str
    objective_metric: str = "density"
    input_metric: str = "vehicleFlow"   # predicted metric feeding the model
    input_name: str = "inflow"          # model input it maps to
    horizon: int = 10
    step_size: float = 1.0
    seed: int = 0


def check_action(action: Action) -> None:
    """Refuse an action that `ScenarioGenerator.gen_scenario` cannot
    map: extend-green needs a numeric `seconds`, divert-traffic a
    numeric `fraction` in [0, 1], and any other name is unmappable."""
    if action.name == "extend-green":
        if not is_number(action.arguments.get("seconds")):
            raise UnmappableAction("extend-green needs a numeric 'seconds'")
    elif action.name == "divert-traffic":
        fraction = action.arguments.get("fraction")
        if not is_number(fraction) or not 0 <= fraction <= 1:
            raise UnmappableAction(
                "divert-traffic needs a numeric 'fraction' in [0, 1]")
    else:
        raise UnmappableAction(f"no mapping for action {action.name!r}")


class ScenarioGenerator:
    """Turns (deviation, candidate) into a concrete what-if scenario.

    Action mapping: extend-green(seconds) becomes the green_extension
    parameter override; divert-traffic(fraction) scales the inflow
    series by (1 - fraction). `check_action` refuses any other action.
    """

    def __init__(self, state_monitor: StateMonitor,
                 settings: SimulationSettings) -> None:
        self.state_monitor = state_monitor
        self.settings = settings
        self._counter = 0

    def initial_state_for(self, entity_id: str) -> dict[str, float]:
        """Seed state for what-if runs: the current fused value of the
        objective metric, or 0 when nothing is known yet. A value that is
        not a finite number, such as a device's string "NaN" or "0.5" or
        a boolean, counts as unknown too, as it does in forecasts."""
        metric = self.settings.objective_metric
        try:
            value = self.state_monitor.get_state(entity_id).metrics.get(metric)
        except NotFound:
            value = None
        if not is_number(value):
            return {metric: 0.0}
        return {metric: float(value)}

    def gen_scenario(self, deviation: Deviation, candidate: CandidateSolution,
                     inflow_series: list[float], base_time: datetime,
                     initial_state: dict[str, float]) -> SimScenario:
        if not candidate.actions:
            raise UnmappableAction(
                f"candidate {candidate.candidate_id!r} has no actions")
        overrides: dict[str, float] = {}
        series = [float(v) for v in inflow_series]
        for action in candidate.actions:
            check_action(action)
            if action.name == "extend-green":
                overrides["green_extension"] = float(
                    action.arguments["seconds"])
            else:
                fraction = float(action.arguments["fraction"])
                series = [v * (1.0 - fraction) for v in series]
        self._counter += 1
        return SimScenario(
            scenario_id=f"whatif-{self._counter}-{candidate.candidate_id}",
            model_id=self.settings.model_id,
            initial_state=dict(initial_state),
            input_series={self.settings.input_name: series},
            horizon=self.settings.horizon,
            step_size=self.settings.step_size,
            overrides=overrides,
            seed=self.settings.seed,
            entity_id=deviation.entity_id,
            objective_metric=self.settings.objective_metric,
            base_time=base_time)


def candidate_sort_key(candidate: CandidateSolution,
                       score: float) -> tuple:
    """Deterministic ranking: score, then fewest actions, then names."""
    return (score, len(candidate.actions),
            tuple(sorted(a.name for a in candidate.actions)))


class SolutionFinder:
    """Exhaustive candidate search over simulated outcomes.

    Records the genScenario hop on the run's tracer before each
    candidate's scenario is generated.
    """

    def __init__(self, generator: ScenarioGenerator, tracer: Tracer,
                 simulate: Callable[[SimScenario], float | None],
                 catalog: Sequence[CandidateSolution],
                 desired_band: Band) -> None:
        # simulate runs one scenario and returns its objective:
        # TwinManager.new_scenario_sim
        self.generator = generator
        self.tracer = tracer
        self.simulate = simulate
        self.catalog = list(catalog)
        self.desired_band = desired_band

    def find_solution(self, deviation: Deviation,
                      inflow_series: list[float],
                      base_time: datetime) -> Plan:
        if not self.catalog:
            raise NoFeasibleSolution("candidate catalog is empty")
        # one snapshot: every candidate simulates from the same state
        initial_state = self.generator.initial_state_for(deviation.entity_id)
        scored: list[tuple[tuple, CandidateSolution, float, str]] = []
        scenario_ids = []
        for candidate in self.catalog:
            self.tracer.record(
                *hop.GEN_SCENARIO,
                {"candidate": candidate.candidate_id,
                 "actions": [a.name for a in candidate.actions]})
            scenario = self.generator.gen_scenario(
                deviation, candidate, inflow_series, base_time,
                initial_state=initial_state)
            scenario_ids.append(scenario.scenario_id)
            objective = self.simulate(scenario)
            if objective is None:
                continue
            score = self.desired_band.distance(float(objective))
            scored.append((candidate_sort_key(candidate, score),
                           candidate, float(objective), scenario.scenario_id))
        feasible = [entry for entry in scored if entry[0][0] == 0.0]
        if not feasible:
            raise NoFeasibleSolution(
                f"none of {len(self.catalog)} candidates restores "
                f"{self.generator.settings.objective_metric!r} to "
                f"[{self.desired_band.lo}, {self.desired_band.hi}]")
        best = min(feasible, key=lambda entry: entry[0])
        _, candidate, objective, chosen_id = best
        ordered = [chosen_id] + [s for s in scenario_ids if s != chosen_id]
        return Plan(entity_id=deviation.entity_id, actions=candidate.actions,
                    expected_objective=objective,
                    scenario_ids=tuple(ordered),
                    deviation_id=deviation.deviation_id)


# ---------------------------------------------------------------------------
# FeedbackExecutor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackConfig:
    # metric -> alert template with {name} and {metric} placeholders
    alert_templates: dict[str, str] = field(default_factory=dict)
    display_names: dict[str, str] = field(default_factory=dict)
    default_template: str = "{metric} out of range on {name}"
    ok_message: str = "system ok"


class FeedbackExecutor:
    """Dual role: alerts for deviations, command plans for solutions."""

    def __init__(self, adapter: D2PAdapter, storage: SharedStorage,
                 config: FeedbackConfig | None = None) -> None:
        self.adapter = adapter
        self.storage = storage
        self.config = config or FeedbackConfig()

    def _record(self, feedback: Feedback) -> None:
        key = RecordKey(namespace=Namespace.FEEDBACK,
                        entity_id=feedback.entity_id,
                        name=feedback.variant,
                        observed_at=feedback.issued_at)
        body = {"variant": feedback.variant,
                "correlation": feedback.correlation}
        if feedback.message is not None:
            body["message"] = feedback.message
            body["severity"] = feedback.severity.value
        if feedback.plan is not None:
            body["actions"] = [
                {"name": a.name, "target": a.target, "args": a.arguments}
                for a in feedback.plan.actions]
            body["expected_objective"] = feedback.plan.expected_objective
            body["scenario_ids"] = list(feedback.plan.scenario_ids)
        self.storage.upsert(key, body)

    def alert_message(self, deviation: Deviation) -> str:
        template = self.config.alert_templates.get(
            deviation.metric, self.config.default_template)
        name = self.config.display_names.get(
            deviation.entity_id, deviation.entity_id)
        return template.format(name=name, metric=deviation.metric)

    def execute_feedback(self, item: Deviation | Plan | None,
                         entity_id: str, issued_at: datetime) -> Feedback:
        """Deliver the right feedback variant and record it.

        A Plan becomes a command sequence; a Deviation becomes an
        alert; None means a healthy cycle and sends the ok message.
        """
        if isinstance(item, Plan):
            actions = [(a.target or entity_id, a.name, dict(a.arguments))
                       for a in item.actions]
            self.adapter.emit_commands(actions, issued_at)
            feedback = Feedback(variant="command-plan", entity_id=entity_id,
                                issued_at=issued_at, plan=item,
                                correlation=item.deviation_id)
        elif item is None or isinstance(item, Deviation):
            if item is None:
                message, severity, correlation = (
                    self.config.ok_message, Severity.INFO, None)
            else:
                message, severity, correlation = (
                    self.alert_message(item), item.severity, item.deviation_id)
            self.adapter.emit_alert(message, severity.value, issued_at)
            feedback = Feedback(variant="alert", entity_id=entity_id,
                                issued_at=issued_at, message=message,
                                severity=severity, correlation=correlation)
        else:
            raise TypeError(f"cannot execute feedback for {type(item).__name__}")
        self._record(feedback)
        return feedback
