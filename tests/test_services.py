"""Service layer: fusion, forecasting, detection, search, feedback."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinarch.adapters import D2PAdapter
from twinarch.errors import (InsufficientHistory, MissingThreshold,
                             NoFeasibleSolution, NotFound, UnmappableAction)
from twinarch.services import (Action, Band, CandidateSolution, Deviation,
                               DeviationDetector, DeviationKind, Feedback,
                               FeedbackConfig, FeedbackExecutor, Plan,
                               Prediction, Predictor, PredictorConfig,
                               Provenance, ScenarioGenerator, Severity,
                               SimulationSettings, SolutionFinder,
                               StateMonitor, TwinState, candidate_sort_key,
                               fit_line)
from twinarch.shadows import ShadowManager, ShadowType
from twinarch.storage import Namespace, Query, RecordKey, SharedStorage
from twinarch.tracing import Tracer, payload_digest
from twinarch.wire import Measurement

from conftest import ts

ROAD = ShadowType("road", frozenset({"density", "vehicleFlow", "speed"}),
                  "Road")


def road_stack(points=()):
    """Storage + shadow + monitor over one entity with the given
    (attribute, value, tick) trace."""
    storage = SharedStorage()
    shadows = ShadowManager(storage)
    shadows.create_shadow(ROAD, "TLF01", created_at=ts(0))
    for attr, value, t in points:
        shadows.update_from_measurement(
            Measurement("TLF01", "Road", attr, value, ts(t)))
    monitor = StateMonitor(storage, shadows, clock=lambda: ts(100))
    return storage, shadows, monitor


def put_sim_result(storage, series, base_t=0, step=1.0, t=50):
    key = RecordKey(Namespace.SIM_RESULTS, "TLF01", "sim", ts(t))
    storage.upsert(key, {"series": series, "scenario": {"step_size": step},
                         "base_time": f"2024-12-10T12:00:{base_t:02d}Z",
                         "objective": None})


# --- state fusion ------------------------------------------------------------

def test_state_describes_the_congestion_narrative():
    state = TwinState("TLF01", ts(0), {"density": 0.8, "speed": 15},
                      Provenance.FUSED)
    assert state.describe() == ("traffic density of 80% with an average "
                                "vehicle speed of 15 km/h")
    assert TwinState("x", ts(0), {}, Provenance.REAL_ONLY).describe() == \
        "no observed metrics"
    assert "a vehicleFlow of 35" in TwinState(
        "x", ts(0), {"vehicleFlow": 35}, Provenance.REAL_ONLY).describe()
    # a boolean is not a number
    assert "a blocked of True" in TwinState(
        "x", ts(0), {"blocked": True}, Provenance.REAL_ONLY).describe()


def test_fusion_provenance_real_only():
    _, _, monitor = road_stack([("density", 0.4, 10)])
    state = monitor.get_state("TLF01")
    assert state.provenance is Provenance.REAL_ONLY
    assert state.metrics == {"density": 0.4}


def test_fusion_provenance_sim_only():
    storage, _, monitor = road_stack()
    put_sim_result(storage, [{"density": 0.25}])
    state = monitor.get_state("TLF01")
    assert state.provenance is Provenance.SIM_ONLY
    assert state.metrics == {"density": 0.25}


def test_fusion_picks_most_recent_per_metric():
    storage, _, monitor = road_stack([("vehicleFlow", 50, 9),
                                      ("density", 0.9, 2)])
    # simulated density lands at base 0 + 1s * 5 steps = t=5 > shadow's t=2
    put_sim_result(storage, [{"density": d} for d in (0.1, 0.2, 0.3, 0.4,
                                                      0.5)])
    state = monitor.get_state("TLF01")
    assert state.provenance is Provenance.FUSED
    assert state.metrics == {"density": 0.5, "vehicleFlow": 50}


def test_fusion_tie_prefers_the_shadow():
    storage, _, monitor = road_stack([("density", 0.9, 5)])
    put_sim_result(storage, [{"density": d} for d in (0.1, 0.2, 0.3, 0.4,
                                                      0.5)])  # also t=5
    assert monitor.get_state("TLF01").metrics["density"] == 0.9


def test_store_state_commits_what_get_state_reads():
    storage, _, monitor = road_stack([("density", 0.4, 1)])
    state = monitor.get_state("TLF01")
    assert storage.count(Namespace.STATES) == 0     # a read writes nothing
    monitor.store_state(state)
    (rec,) = storage.crud_read(Query(namespace=Namespace.STATES))
    assert rec.body == {"metrics": {"density": 0.4}, "provenance": "RealOnly",
                        "computed_at": "2024-12-10T12:01:40Z"}
    with pytest.raises(NotFound):
        monitor.get_state("ghost")


# --- forecasting --------------------------------------------------------------

@given(values=st.lists(st.floats(-1000, 1000), min_size=2, max_size=30))
def test_fit_line_matches_numpy_least_squares(values):
    intercept, slope = fit_line(values)
    ref_slope, ref_intercept = np.polyfit(np.arange(len(values)),
                                          np.asarray(values), 1)
    assert math.isclose(slope, float(ref_slope), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(intercept, float(ref_intercept), rel_tol=1e-9,
                        abs_tol=1e-6)


def test_fit_line_degenerate_inputs():
    assert fit_line([7.0]) == (7.0, 0.0)
    intercept, slope = fit_line([3.0, 3.0, 3.0])
    assert (intercept, slope) == (3.0, 0.0)


def predictor_over(values, method="linear", **cfg):
    _, shadows, _ = road_stack([("vehicleFlow", v, t)
                                for t, v in enumerate(values)])
    return Predictor(shadows, PredictorConfig(method=method, **cfg))


def test_linear_forecast_extends_the_trend():
    prediction = predictor_over([10.0, 20.0, 30.0]).prediction("TLF01", 2)
    assert prediction.series_for("vehicleFlow") == pytest.approx(
        [40.0, 50.0], abs=1e-9)
    assert prediction.method == "linear"
    assert [t for t, _ in prediction.predicted_series] == [ts(3), ts(4)]
    assert prediction.base_time == ts(2)


@given(values=st.lists(st.floats(-100, 100), min_size=3, max_size=12),
       horizon=st.integers(1, 5))
def test_constant_series_forecasts_constant(values, horizon):
    constant = [values[0]] * len(values)
    prediction = predictor_over(constant).prediction("TLF01", horizon)
    assert prediction.series_for("vehicleFlow") == pytest.approx(
        [values[0]] * horizon, abs=1e-9)


@given(values=st.lists(st.floats(-100, 100), min_size=3, max_size=12),
       horizon=st.integers(1, 5))
def test_linear_forecast_is_homogeneous(values, horizon):
    base = predictor_over(values).prediction("TLF01", horizon)
    scaled = predictor_over([v * 3 for v in values]).prediction(
        "TLF01", horizon)
    assert scaled.series_for("vehicleFlow") == pytest.approx(
        [v * 3 for v in base.series_for("vehicleFlow")], abs=1e-6)


def test_window_limits_the_fit_to_the_tail():
    # a jump outside the window must not influence the fit
    values = [1000.0] + [10.0, 20.0, 30.0]
    prediction = predictor_over(values, window=3).prediction("TLF01", 1)
    assert prediction.series_for("vehicleFlow") == pytest.approx([40.0],
                                                                 abs=1e-9)


def test_shadows_sharing_an_attribute_count_each_reading_once():
    def predictor_over_two_shadows(values, **cfg):
        _, shadows, _ = road_stack()
        flow = ShadowType("flow", frozenset({"vehicleFlow"}), "Road")
        shadows.create_shadow(flow, "TLF01", created_at=ts(0))
        for t, v in enumerate(values):
            assert len(shadows.update_from_measurement(
                Measurement("TLF01", "Road", "vehicleFlow", v, ts(t)))) == 2
        return Predictor(shadows, PredictorConfig(**cfg))

    prediction = predictor_over_two_shadows(
        [10.0 * (t + 1) for t in range(12)], window=20).prediction("TLF01", 3)
    assert prediction.series_for("vehicleFlow") == pytest.approx(
        [130.0, 140.0, 150.0], abs=1e-9)
    assert [t for t, _ in prediction.predicted_series] == [
        ts(12), ts(13), ts(14)]
    with pytest.raises(InsufficientHistory):
        predictor_over_two_shadows([1.0, 2.0]).prediction("TLF01", 1)


def test_other_forecast_methods():
    last = predictor_over([1.0, 2.0, 5.0], method="last-value").prediction(
        "TLF01", 3)
    assert last.series_for("vehicleFlow") == [5.0, 5.0, 5.0]
    avg = predictor_over([1.0, 2.0, 6.0], method="moving-average",
                         moving_average_k=3).prediction("TLF01", 2)
    assert avg.series_for("vehicleFlow") == [3.0, 3.0]
    with pytest.raises(ValueError):
        PredictorConfig(method="oracle"), Predictor(
            road_stack()[1], PredictorConfig(method="oracle"))


def test_insufficient_history_is_an_error():
    with pytest.raises(InsufficientHistory):
        predictor_over([10.0, 20.0]).prediction("TLF01", 1)
    with pytest.raises(ValueError):
        predictor_over([1.0, 2.0, 3.0]).prediction("TLF01", 0)


def test_non_numeric_traces_are_ignored():
    _, shadows, _ = road_stack([("vehicleFlow", v, t)
                                for t, v in enumerate([1.0, 2.0, 3.0])])
    shadows.update_from_measurement(
        Measurement("TLF01", "Road", "speed", "fast", ts(0)))
    prediction = Predictor(shadows).prediction("TLF01", 1)
    assert set(prediction.predicted_series[0][1]) == {"vehicleFlow"}


def test_prediction_series_shape_is_validated():
    with pytest.raises(ValueError):
        Prediction("e", ts(0), 2, ((ts(1), {"x": 1.0}),), "linear")
    with pytest.raises(ValueError):
        Prediction("e", ts(0), 2, ((ts(2), {"x": 1.0}), (ts(1), {"x": 2.0})),
                   "linear")


# --- deviation detection -------------------------------------------------------

def test_band_geometry():
    band = Band(lo=0.0, hi=0.7)
    assert band.distance(0.5) == 0.0
    assert band.distance(0.9) == pytest.approx(0.2)
    assert band.distance(-0.3) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        Band(lo=1.0, hi=0.0)


def detector():
    return DeviationDetector({"density": Band(0.0, 0.7),
                              "vehicleFlow": Band(0.0, 43.0)})


def test_in_band_state_yields_no_deviations():
    state = TwinState("e", ts(0), {"density": 0.5, "vehicleFlow": 35},
                      Provenance.FUSED)
    assert detector().detect_deviation(state) == []


def test_warning_and_critical_severities():
    det = detector()
    warn = det.detect_deviation(TwinState("e", ts(0), {"density": 0.9},
                                          Provenance.FUSED))
    assert [d.severity for d in warn] == [Severity.WARNING]
    assert warn[0].expected == 0.7
    assert warn[0].kind is DeviationKind.REAL
    assert warn[0].deviation_id == "e:density:2024-12-10T12:00:00Z"
    # excess 0.4 > 0.5 * width 0.7: critical
    crit = det.detect_deviation(TwinState("e", ts(0), {"density": 1.1},
                                          Provenance.FUSED))
    assert [d.severity for d in crit] == [Severity.CRITICAL]
    below = det.detect_deviation(TwinState("e", ts(0), {"density": -0.2},
                                           Provenance.FUSED))
    assert below[0].expected == 0.0


def test_every_numeric_metric_needs_a_band():
    state = TwinState("e", ts(0), {"density": 0.5, "mystery": 9.0},
                      Provenance.FUSED)
    with pytest.raises(MissingThreshold):
        detector().detect_deviation(state)
    # non-numeric metrics are exempt
    ok = TwinState("e", ts(0), {"density": 0.5, "label": "north", "up": True},
                   Provenance.FUSED)
    assert detector().detect_deviation(ok) == []


def test_prediction_reports_first_violating_step_per_metric():
    series = ((ts(1), {"vehicleFlow": 40.0}),
              (ts(2), {"vehicleFlow": 44.0}),
              (ts(3), {"vehicleFlow": 48.0}))
    prediction = Prediction("e", ts(0), 3, series, "linear")
    (dev,) = detector().detect_deviation(prediction)
    assert dev.kind is DeviationKind.PREDICTED
    assert dev.value == 44.0 and dev.detected_at == ts(2)
    with pytest.raises(MissingThreshold):
        detector().detect_deviation(Prediction(
            "e", ts(0), 1, ((ts(1), {"mystery": 1.0}),), "linear"))


# --- scenario generation ---------------------------------------------------------

SETTINGS = SimulationSettings(model_id="m1", horizon=4, seed=3)


def generator(points=(("density", 0.9, 5),)):
    _, _, monitor = road_stack(points)
    return ScenarioGenerator(monitor, SETTINGS)


def a_deviation():
    return Deviation("TLF01", "vehicleFlow", 44.0, 43.0, Severity.WARNING,
                     ts(12), DeviationKind.PREDICTED)


def test_actions_map_to_overrides_and_series_scaling():
    gen = generator()
    candidate = CandidateSolution("both", (
        Action("divert-traffic", "TLF01", {"fraction": 0.5}),
        Action("extend-green", "TLF01", {"seconds": 20}),
    ))
    sc = gen.gen_scenario(a_deviation(), candidate, [40.0, 60.0], ts(12),
                          initial_state=gen.initial_state_for("TLF01"))
    assert sc.scenario_id == "whatif-1-both"
    assert sc.overrides == {"green_extension": 20.0}
    assert sc.input_series == {"inflow": [20.0, 30.0]}
    assert sc.initial_state == {"density": 0.9}    # current fused value
    assert sc.horizon == 4 and sc.seed == 3
    assert sc.entity_id == "TLF01" and sc.base_time == ts(12)
    assert sc.objective_metric == "density"
    # ids keep counting across calls
    again = gen.gen_scenario(a_deviation(), candidate, [1.0], ts(12),
                             initial_state={"density": 0.0})
    assert again.scenario_id == "whatif-2-both"


def test_initial_state_defaults_to_zero_without_data():
    gen = generator(points=())
    assert gen.initial_state_for("TLF01") == {"density": 0.0}


@pytest.mark.parametrize("value", [
    "NaN", "inf", "-inf", "heavy", True, "0.5",
    pytest.param(10**400, id="10**400"),
    pytest.param(float("inf"), id="float-inf")])
def test_initial_state_reads_a_non_finite_value_as_unknown(value):
    # strings pass the wire's scalar check; a what-if seed must be finite
    gen = generator(points=(("density", value, 5),))
    assert gen.initial_state_for("TLF01") == {"density": 0.0}


def test_unmappable_actions_are_rejected():
    gen = generator()
    bad = [
        CandidateSolution("none", ()),
        CandidateSolution("mystery", (Action("repaint-road", "TLF01"),)),
        CandidateSolution("incomplete", (Action("extend-green", "TLF01"),)),
        CandidateSolution("out-of-range", (
            Action("divert-traffic", "TLF01", {"fraction": 1.5}),)),
    ]
    for candidate in bad:
        with pytest.raises(UnmappableAction):
            gen.gen_scenario(a_deviation(), candidate, [1.0], ts(0),
                             initial_state={"density": 0.0})


# --- solution search ----------------------------------------------------------

def finder_with(objectives: dict[str, float | None], band=Band(0.0, 0.7)):
    """SolutionFinder whose simulated objective per candidate id is faked."""
    gen = generator()
    submitted: list[str] = []
    catalog = [
        CandidateSolution(cid, (Action("extend-green", "TLF01",
                                       {"seconds": 20}),))
        for cid in objectives
    ]

    def simulate(scenario):
        submitted.append(scenario.scenario_id)
        return objectives[scenario.scenario_id.split("-", 2)[2]]

    finder = SolutionFinder(gen, Tracer(), simulate, catalog, band)
    return finder, submitted


def test_finder_picks_lowest_score_and_lists_chosen_first():
    finder, submitted = finder_with({"a": 0.9, "b": 0.3, "c": 0.5})
    plan = finder.find_solution(a_deviation(), [50.0], ts(12))
    assert plan.expected_objective == 0.3
    assert plan.scenario_ids[0] == "whatif-2-b"
    assert set(plan.scenario_ids) == set(submitted)
    assert plan.deviation_id == a_deviation().deviation_id
    # one genScenario hop per candidate, in catalog order
    assert [(e.source, e.target, e.message, e.digest)
            for e in finder.tracer.events] == [
        ("SolutionFinder", "ScenarioGenerator", "genScenario",
         payload_digest({"candidate": cid, "actions": ["extend-green"]}))
        for cid in "abc"]


def test_finder_tie_breaks_by_action_count_then_names():
    dev = a_deviation()
    gen = generator()
    catalog = [
        CandidateSolution("two-actions", (
            Action("divert-traffic", "TLF01", {"fraction": 0.3}),
            Action("extend-green", "TLF01", {"seconds": 20}))),
        CandidateSolution("one-z", (
            Action("extend-green", "TLF01", {"seconds": 20}),)),
        CandidateSolution("one-a", (
            Action("divert-traffic", "TLF01", {"fraction": 0.3}),)),
    ]
    finder = SolutionFinder(gen, Tracer(), lambda sc: 0.1, catalog,
                            Band(0.0, 0.7))
    plan = finder.find_solution(dev, [50.0], ts(12))
    # all scores tie at 0: fewest actions wins, then "divert-" < "extend-"
    assert plan.actions[0].name == "divert-traffic"
    assert len(plan.actions) == 1


def test_finder_raises_when_nothing_restores_the_band():
    finder, _ = finder_with({"a": 0.9, "b": 0.8}, band=Band(0.0, 0.1))
    with pytest.raises(NoFeasibleSolution) as exc_info:
        finder.find_solution(a_deviation(), [50.0], ts(12))
    assert "2 candidates" in str(exc_info.value)
    empty = SolutionFinder(generator(), Tracer(), lambda sc: None, [],
                           Band(0.0, 0.7))
    with pytest.raises(NoFeasibleSolution):
        empty.find_solution(a_deviation(), [1.0], ts(0))
    # objectives of None (failed sims) never count as feasible
    skipped, _ = finder_with({"a": None})
    with pytest.raises(NoFeasibleSolution):
        skipped.find_solution(a_deviation(), [1.0], ts(0))


def test_candidate_sort_key_is_total_and_deterministic():
    one = CandidateSolution("x", (Action("b", "t"),))
    two = CandidateSolution("y", (Action("a", "t"), Action("c", "t")))
    assert candidate_sort_key(one, 0.0) < candidate_sort_key(two, 0.0)
    assert candidate_sort_key(two, 0.0) < candidate_sort_key(one, 0.1)


def test_plan_requires_actions_and_scenarios():
    with pytest.raises(ValueError):
        Plan("e", (), 0.0, ("s1",))
    with pytest.raises(ValueError):
        Plan("e", (Action("extend-green", "t"),), 0.0, ())


# --- feedback -------------------------------------------------------------------

def feedback_stack(config=None):
    storage = SharedStorage()
    delivered: list[str] = []
    adapter = D2PAdapter(receiver=lambda p: (delivered.append(p)
                                             or {"status": "ok"}),
                         run_id="t")
    return FeedbackExecutor(adapter, storage, config), storage, delivered


def test_alert_feedback_renders_template_with_display_name():
    config = FeedbackConfig(
        alert_templates={"density": "High congestion detected on {name}; "
                                    "notify drivers to avoid the area"},
        display_names={"TLF01": "Main Street"})
    executor, storage, delivered = feedback_stack(config)
    deviation = Deviation("TLF01", "density", 0.8, 0.7, Severity.WARNING,
                          ts(6), DeviationKind.REAL)
    feedback = executor.execute_feedback(deviation, "TLF01", ts(6))
    assert feedback.message == ("High congestion detected on Main Street; "
                                "notify drivers to avoid the area")
    note = json.loads(delivered[0])
    assert note["notification"] == feedback.message
    assert note["severity"] == "Warning"
    (rec,) = storage.crud_read(Query(namespace=Namespace.FEEDBACK))
    assert rec.key.name == "alert"
    assert rec.body["message"] == feedback.message


def test_unknown_metric_falls_back_to_default_template():
    executor, _, _ = feedback_stack()
    deviation = Deviation("e9", "speed", 1.0, 2.0, Severity.WARNING, ts(0),
                          DeviationKind.REAL)
    assert executor.alert_message(deviation) == "speed out of range on e9"


def test_plan_feedback_emits_one_command_per_action():
    executor, storage, delivered = feedback_stack()
    plan = Plan("TLF01",
                (Action("extend-green", "gl-7", {"seconds": 20}),
                 Action("divert-traffic", "", {"fraction": 0.3})),
                expected_objective=0.1, scenario_ids=("whatif-1-x",),
                deviation_id="d1")
    feedback = executor.execute_feedback(plan, "TLF01", ts(9))
    assert feedback.variant == "command-plan"
    first, second = (json.loads(p) for p in delivered)
    assert first["device"] == "gl-7" and first["command"] == "extend-green"
    assert second["device"] == "TLF01"     # empty target falls back
    (rec,) = storage.crud_read(Query(namespace=Namespace.FEEDBACK))
    assert rec.body["scenario_ids"] == ["whatif-1-x"]
    assert rec.body["actions"][0] == {"name": "extend-green", "target": "gl-7",
                                      "args": {"seconds": 20}}


def test_healthy_cycle_sends_the_ok_message():
    executor, _, delivered = feedback_stack(FeedbackConfig(
        ok_message="system ok"))
    feedback = executor.execute_feedback(None, "TLF01", ts(1))
    assert feedback.message == "system ok"
    assert json.loads(delivered[0])["severity"] == "Info"
    with pytest.raises(TypeError):
        executor.execute_feedback("garbage", "TLF01", ts(1))
