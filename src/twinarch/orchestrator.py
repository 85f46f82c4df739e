"""TwinManager: central orchestration of the two closed loops.

The monitoring loop runs once per tick: ingest telemetry, refresh the
model's view of current conditions with a one-step simulation, fuse
the twin state, and emit feedback. The prediction loop ingests for a
while, forecasts, and on a predicted deviation searches the candidate
catalog with what-if simulations, delivering the winning plan (or an
alert when nothing feasible exists) back to the physical side.

Every cross-element hop is recorded on a Tracer so the run can be
checked against the embedded sequence templates afterwards. Time is a
logical clock advanced here; nothing reads the wall clock.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

from .adapters import D2PAdapter, P2DAdapter
from .clock import DEFAULT_EPOCH, LogicalClock
from .configs import Manifest
from .errors import NoFeasibleSolution, ParseError
from .harness import PhysicalHarness
from .services import (Deviation, DeviationDetector, Feedback,
                       FeedbackExecutor, Plan, Predictor, ScenarioGenerator,
                       SolutionFinder, StateMonitor, TwinState)
from .shadows import ShadowManager
from .simulation import ModelEngine, ModelManager, SimScenario
from .storage import SharedStorage
from .tracing import (MatchReport, SequenceTemplate, Tracer, check_trace, hop,
                      monitoring_template, prediction_template)
from .wire.common import is_number

log = logging.getLogger("twinarch.run")


@dataclass
class RunOutput:
    states: dict[str, TwinState] = field(default_factory=dict)
    plan: Plan | None = None
    feedbacks: list[Feedback] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    report: MatchReport | None = None
    ticks_run: int = 0


class TwinManager:
    """Wires storage, shadows, models, and services for one run."""

    def __init__(self, manifest: Manifest, seed: int = 0,
                 ticks: int | None = None,
                 journal_path: str | Path | None = None) -> None:
        self.manifest = manifest
        run = manifest.run
        self.run_config = run
        self.seed = seed
        self.max_ticks = ticks if ticks is not None else run.max_ticks
        self.clock = LogicalClock(epoch=DEFAULT_EPOCH,
                                  tick_interval=run.tick_interval)
        self.tracer = Tracer()
        self.storage = SharedStorage(journal_path=journal_path,
                                     clock=self.clock.now)

        harness_config = dataclasses.replace(
            manifest.harness, seed=manifest.harness.seed + seed)
        self.harness = PhysicalHarness(harness_config, clock=self.clock.at)

        self.p2d = P2DAdapter(run.adapter, self.storage,
                              device_registry=run.device_registry)
        self.d2p = D2PAdapter(self.harness.receive, run_id=f"s{seed}")

        self.shadow_manager = ShadowManager(self.storage)
        for shadow_type in run.shadow_types:
            self.shadow_manager.create_shadow(shadow_type, run.entity_id,
                                              created_at=self.clock.at(0))

        self.model_manager = ModelManager()
        self.engine = ModelEngine(self.model_manager, self.storage,
                                  clock=self.clock.now)
        self.monitor = StateMonitor(self.storage, self.shadow_manager,
                                    clock=self.clock.now)
        self.predictor = Predictor(self.shadow_manager, run.predictor)
        self.detector = DeviationDetector(manifest.bands)
        self.feedback_executor = FeedbackExecutor(self.d2p, self.storage,
                                                  run.feedback)

        settings = dataclasses.replace(run.sim, seed=run.sim.seed + seed)
        self.generator = ScenarioGenerator(self.monitor, settings)
        self.finder = SolutionFinder(
            generator=self.generator,
            tracer=self.tracer,
            simulate=self.new_scenario_sim,
            catalog=manifest.candidates,
            desired_band=manifest.bands.get(
                settings.objective_metric) or _any_band(manifest.bands))

        self._model_pushed = False

    # -- shared hops -------------------------------------------------------------

    def new_scenario_sim(self, scenario: SimScenario) -> float | None:
        """Run one what-if scenario, from the Planner's newScenarioSim
        hop to its stored result, and return its objective."""
        self.tracer.record(*hop.NEW_SCENARIO_SIM, scenario.to_json())
        self._push_model()
        scenario_id = self.engine.scenario_sim(scenario)
        self.tracer.record(*hop.MODEL_EXECUTION, {"scenario_id": scenario_id})
        (result,) = self.engine.drain()
        self.tracer.record(*hop.STORE_WHATIF_RESULT,
                           {"scenario_id": scenario_id,
                            "objective": result.objective})
        return result.objective

    def _push_model(self) -> None:
        if self._model_pushed:
            return
        self.model_manager.upsert_model(self.run_config.model)
        self._model_pushed = True

    # -- ingest ------------------------------------------------------------------

    def _ingest_tick(self, tick: int) -> int:
        """Emit, parse, store, and shadow one tick's payloads."""
        run = self.run_config
        stored_total = 0
        for payload in self.harness.emit(tick):
            try:
                receipt = self.p2d.ingest(payload, run.entity_id,
                                          observed_at=self.clock.at(tick))
            except ParseError as exc:
                log.warning("tick %d: payload rejected: %s", tick, exc)
                continue
            if receipt.decoded == 0:
                continue
            self.tracer.record(*hop.TRANSMIT_DATA, {"payload": payload})
            # the hops in the order the work ran: stored, then shadowed
            self.tracer.record(*hop.STORE_DATA,
                               {"stored": receipt.stored,
                                "rejected": receipt.rejected})
            updated = []
            for measurement in receipt.measurements:
                updated.extend(
                    self.shadow_manager.update_from_measurement(measurement))
            self.tracer.record(*hop.UPDATE_SHADOWS, {"shadows": updated})
            stored_total += receipt.stored
        return stored_total

    # -- monitoring loop -----------------------------------------------------------

    def _current_conditions_scenario(self, tick: int) -> SimScenario:
        run = self.run_config
        settings = self.generator.settings
        inflow = 0.0
        latest = self.shadow_manager.latest_points(run.entity_id).get(
            settings.input_metric)
        if latest is not None and is_number(latest.value):
            inflow = float(latest.value)
        initial = self.generator.initial_state_for(run.entity_id)
        # one step ending exactly at this tick's timestamp, so fresh
        # telemetry at the same instant outranks it in fusion
        base = self.clock.at(tick) - timedelta(seconds=run.tick_interval)
        return SimScenario(
            scenario_id=f"mon-{tick}",
            model_id=run.model.model_id,
            initial_state=initial,
            input_series={settings.input_name: [inflow]},
            horizon=1,
            step_size=run.tick_interval,
            seed=settings.seed,
            entity_id=run.entity_id,
            objective_metric=settings.objective_metric,
            base_time=base)

    def run_monitoring(self) -> RunOutput:
        run = self.run_config
        output = RunOutput(tracer=self.tracer)
        for tick in range(1, self.max_ticks + 1):
            self.clock.advance()
            self.tracer.advance(tick)
            output.ticks_run = tick
            self._ingest_tick(tick)

            if not self._model_pushed:
                self.tracer.record(*hop.UPDATE_MODEL, run.model.to_json())
                self._push_model()
            scenario = self._current_conditions_scenario(tick)
            self.tracer.record(*hop.EXECUTE_SIMULATION, scenario.to_json())
            result = self.engine.model_execution(scenario)
            self.tracer.record(*hop.STORE_SIM_RESULT,
                               {"scenario_id": scenario.scenario_id,
                                "final": result.state_series[-1]})

            self.tracer.record(*hop.COMPUTE_STATE, {"entity": run.entity_id})
            state = self.monitor.get_state(run.entity_id)
            output.states[run.entity_id] = state
            self.tracer.record(*hop.STORE_STATE,
                               {"metrics": state.metrics,
                                "provenance": state.provenance.value})

            deviations = (self.detector.detect_deviation(state)
                          if self.manifest.bands else [])
            item: Deviation | None = deviations[0] if deviations else None
            self.tracer.record(*hop.DELIVER_STATE, {"metrics": state.metrics})
            self.tracer.record(*hop.EMIT_FEEDBACK,
                               {"deviation": item.deviation_id
                                if item else None})
            feedback = self.feedback_executor.execute_feedback(
                item, run.entity_id, issued_at=self.clock.now())
            self.tracer.record(*hop.DELIVER_FEEDBACK,
                               {"variant": feedback.variant,
                                "message": feedback.message})
            output.feedbacks.append(feedback)
        return output

    # -- prediction loop -------------------------------------------------------------

    def _pick_deviation(self, deviations: list[Deviation]) -> Deviation:
        input_metric = self.generator.settings.input_metric
        for deviation in deviations:
            if deviation.metric == input_metric:
                return deviation
        return deviations[0]

    def run_prediction(self) -> RunOutput:
        run = self.run_config
        output = RunOutput(tracer=self.tracer)
        for tick in range(1, self.max_ticks + 1):
            self.clock.advance()
            self.tracer.advance(tick)
            self._ingest_tick(tick)
            output.ticks_run = tick

        self.tracer.record(*hop.FORECAST,
                           {"entity": run.entity_id, "horizon": run.horizon})
        prediction = self.predictor.prediction(run.entity_id, run.horizon)
        self.tracer.record(
            *hop.PREDICTED_STATES,
            {"series": [(str(t), m) for t, m in prediction.predicted_series],
             "method": prediction.method})
        deviations = self.detector.detect_deviation(prediction)
        if not deviations:
            log.info("prediction healthy: no deviation over horizon %d",
                     run.horizon)
            return output

        deviation = self._pick_deviation(deviations)
        self.tracer.record(*hop.DEVIATION,
                           {"metric": deviation.metric,
                            "value": deviation.value,
                            "severity": deviation.severity.value,
                            "kind": deviation.kind.value})
        inflow_series = prediction.series_for(
            self.generator.settings.input_metric)
        if not inflow_series:
            inflow_series = [deviation.value] * run.horizon
        base_time = self.clock.at(self.max_ticks)

        try:
            plan = self.finder.find_solution(deviation, inflow_series,
                                             base_time)
        except NoFeasibleSolution as exc:
            log.warning("no feasible plan: %s; alerting instead", exc)
            self.tracer.record(*hop.DEVIATION_ALERT,
                               {"deviation": deviation.deviation_id})
            self.tracer.record(*hop.ALERT, {"metric": deviation.metric})
            feedback = self.feedback_executor.execute_feedback(
                deviation, run.entity_id, issued_at=self.clock.now())
            self.tracer.record(*hop.DELIVER_ALERT,
                               {"message": feedback.message})
            output.feedbacks.append(feedback)
            return output

        output.plan = plan
        self.tracer.record(*hop.PLAN,
                           {"actions": [a.name for a in plan.actions],
                            "objective": plan.expected_objective})
        self.tracer.record(*hop.COMMAND_PLAN, {"actions": len(plan.actions)})
        feedback = self.feedback_executor.execute_feedback(
            plan, run.entity_id, issued_at=self.clock.now())
        self.tracer.record(*hop.DELIVER_COMMANDS,
                           {"acks": len(plan.actions)})
        output.feedbacks.append(feedback)
        return output

    # -- conformance ----------------------------------------------------------------

    def template_for(self, loop: str) -> SequenceTemplate:
        if self.run_config.check_template is not None:
            return self.run_config.check_template
        if loop == "monitoring":
            return monitoring_template()
        return prediction_template()

    def check(self, loop: str) -> MatchReport:
        return check_trace(self.tracer.events, self.template_for(loop))

    def shutdown(self) -> None:
        self.storage.close()


def _any_band(bands: dict):
    from .services import Band
    return next(iter(bands.values()), Band(lo=0.0, hi=1.0))


def run_loop(manifest: Manifest, loop: str, seed: int = 0,
             ticks: int | None = None,
             journal_path: str | Path | None = None,
             check: bool = False) -> tuple[RunOutput, TwinManager]:
    """Build a TwinManager, execute the requested loop, optionally
    check conformance. The caller owns shutdown."""
    manager = TwinManager(manifest, seed=seed, ticks=ticks,
                          journal_path=journal_path)
    if loop == "monitoring":
        output = manager.run_monitoring()
    elif loop == "prediction":
        output = manager.run_prediction()
    else:
        raise ValueError(f"unknown loop {loop!r}")
    if check:
        output.report = manager.check(loop)
    return output, manager
