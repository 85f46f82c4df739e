"""Models and engine: validation, transition oracle, determinism, FIFO."""

from __future__ import annotations

import json
import math
import random
import tempfile
import types
import weakref
from dataclasses import replace
from datetime import timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from twinarch import simulation
from twinarch.configs import load_manifest, model_spec, sim_scenario
from twinarch.errors import (ConfigError, InvalidSpec, NotFound,
                             NumericalFailure)
from twinarch.orchestrator import run_loop
from twinarch.simulation import (KIND_TABLE, ModelEngine, ModelKind,
                                 ModelManager, ModelSpec, SimScenario,
                                 execute, validate_scenario, validate_spec)
from twinarch.storage import Namespace, Query, SharedStorage

from conftest import ts


def traffic_spec(**params) -> ModelSpec:
    merged = {"capacity": 30.0, "inflow_gain": 1.0, "green_sensitivity": 1.5}
    merged.update(params)
    return ModelSpec(model_id="m1", kind="traffic-flow", parameters=merged,
                     inputs=("inflow",), outputs=("density",))


def scenario(**kwargs) -> SimScenario:
    base = dict(scenario_id="s1", model_id="m1",
                initial_state={"density": 0.0},
                input_series={"inflow": [50.0]}, horizon=5)
    base.update(kwargs)
    return SimScenario(**base)


# --- validation ------------------------------------------------------------

def test_spec_validation_rejections():
    cases = [
        ModelSpec("", "traffic-flow", {"capacity": 30.0}),
        ModelSpec("m", "unknown-kind", {}),
        ModelSpec("m", "traffic-flow", {"capacity": 30.0},
                  inputs=("x",), outputs=("x",)),
        ModelSpec("m", "traffic-flow", {"capacity": 30.0, "bogus": 1.0}),
        ModelSpec("m", "traffic-flow", {}),                   # capacity missing
        ModelSpec("m", "traffic-flow", {"capacity": 0.0}),
        ModelSpec("m", "traffic-flow", {"capacity": 30.0, "noise_sigma": -1.0}),
        ModelSpec("m", "traffic-flow", {"capacity": 30.0,
                                        "inflow_gain": float("inf")}),
    ]
    for spec in cases:
        with pytest.raises(InvalidSpec):
            validate_spec(spec)
    assert validate_spec(traffic_spec()).name == "traffic-flow"


def test_scenario_validation_rejections():
    spec = traffic_spec()
    cases = [
        scenario(horizon=0),
        scenario(step_size=0.0),
        scenario(overrides={"bogus": 1.0}),
        scenario(input_series={"nitrogen": [1.0]}),
        scenario(objective_metric="speed"),
        scenario(input_series={"inflow": [1.0, float("nan")]}),
        scenario(input_series={"inflow": [1.0, 10**400]}),
        scenario(input_series={"inflow": [True]}),
        scenario(overrides={"capacity": -5.0}),   # merged params re-checked
        scenario(initial_state={"density": float("nan")}),
    ]
    for sc in cases:
        with pytest.raises(InvalidSpec):
            validate_scenario(sc, spec)
    validate_scenario(scenario(objective_metric="density"), spec)


# --- transition oracle -------------------------------------------------------

def oracle_series(params: dict, sc: SimScenario) -> list[dict]:
    """Reference implementation of the traffic kind, written separately:
    delta = (gain * inflow - (capacity + sensitivity * extension)) / scale,
    plus seeded noise, clamped to [0, 1]."""
    merged = dict(params)
    merged.update(sc.overrides)
    capacity = merged["capacity"]
    gain = merged.get("inflow_gain", 1.0)
    effective = capacity + (merged.get("green_sensitivity", 0.0)
                            * merged.get("green_extension", 0.0))
    scale = merged.get("capacity_scale", capacity)
    sigma = merged.get("noise_sigma", 0.0)
    rng = random.Random(sc.seed)
    inflows = sc.input_series.get("inflow", [])
    density = float(sc.initial_state.get("density", 0.0))
    out = []
    for step in range(sc.horizon):
        if not inflows:
            inflow = 0.0
        else:
            inflow = float(inflows[min(step, len(inflows) - 1)])
        delta = (gain * inflow - effective) / scale
        if sigma > 0:
            delta += rng.gauss(0.0, sigma)
        density = min(1.0, max(0.0, density + delta))
        out.append({"density": density})
    return out


_params = st.fixed_dictionaries({
    "capacity": st.floats(1.0, 100.0),
    "inflow_gain": st.floats(0.0, 5.0),
    "green_sensitivity": st.floats(0.0, 5.0),
    "green_extension": st.floats(0.0, 60.0),
    "capacity_scale": st.floats(1.0, 100.0),
    "noise_sigma": st.floats(0.0, 0.5),
})
_scenarios = st.builds(
    scenario,
    initial_state=st.fixed_dictionaries({"density": st.floats(0.0, 1.0)}),
    input_series=st.fixed_dictionaries(
        {"inflow": st.lists(st.floats(0.0, 200.0), max_size=10)}),
    horizon=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
# the what-if shape: long horizons over short held series, and initial
# densities the clamp must map into [0, 1] (NaN to 0, +inf to 1)
_whatif_scenarios = st.builds(
    scenario,
    initial_state=st.fixed_dictionaries({"density": st.one_of(
        st.floats(-2.0, 3.0),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]))}),
    input_series=st.fixed_dictionaries(
        {"inflow": st.lists(st.floats(0.0, 200.0), max_size=10)}),
    horizon=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)


_EXAMPLE_PARAMS = {"capacity": 30.0, "inflow_gain": 1.0,
                   "green_sensitivity": 0.0, "green_extension": 0.0,
                   "capacity_scale": 30.0, "noise_sigma": 0.1}


@given(params=_params, sc=st.one_of(_scenarios, _whatif_scenarios))
@example(params=_EXAMPLE_PARAMS, sc=scenario(
    initial_state={"density": float("nan")},
    input_series={"inflow": [20.0, 40.0]}, horizon=150, seed=3))
@example(params=_EXAMPLE_PARAMS, sc=scenario(
    initial_state={"density": float("inf")},
    input_series={"inflow": [25.0]}, horizon=120, seed=4))
@example(params=_EXAMPLE_PARAMS, sc=scenario(
    initial_state={"density": float("-inf")}, input_series={"inflow": []},
    horizon=150, seed=5))
def test_execute_matches_oracle(params, sc):
    spec = ModelSpec("m1", "traffic-flow", params,
                     inputs=("inflow",), outputs=("density",))
    validate_spec(spec)
    result = execute(spec, sc, completed_at=ts(0))
    assert list(result.state_series) == oracle_series(params, sc)


@given(params=_params, sc=_scenarios)
def test_density_always_clamped(params, sc):
    spec = ModelSpec("m1", "traffic-flow", params,
                     inputs=("inflow",), outputs=("density",))
    result = execute(spec, sc, completed_at=ts(0))
    assert all(0.0 <= s["density"] <= 1.0 for s in result.state_series)


@given(params=_params, sc=_scenarios)
def test_execute_is_deterministic(params, sc):
    spec = ModelSpec("m1", "traffic-flow", params,
                     inputs=("inflow",), outputs=("density",))
    a = execute(spec, sc, completed_at=ts(0))
    b = execute(spec, sc, completed_at=ts(0))
    assert json.dumps(a.state_series, default=str) == json.dumps(
        b.state_series, default=str)


@given(inflow=st.floats(31.0, 59.0), start=st.floats(0.0, 1.0),
       horizon=st.integers(1, 8))
def test_green_extension_strictly_lowers_density(inflow, start, horizon):
    # base capacity 30, extended effective capacity 60: an inflow between
    # them pushes density up without the extension and down with it
    sc = scenario(initial_state={"density": start},
                  input_series={"inflow": [inflow]}, horizon=horizon)
    base = execute(traffic_spec(), sc, completed_at=ts(0))
    extended = execute(traffic_spec(green_extension=20.0), sc,
                       completed_at=ts(0))
    for lo, hi in zip(extended.state_series, base.state_series):
        assert lo["density"] <= hi["density"]
    if 0.0 < start < 1.0:
        assert extended.state_series[0]["density"] < \
            base.state_series[0]["density"]


def test_noise_free_prediction_run_builds_no_generator(repo_root,
                                                       monkeypatch):
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simulation, "random",
                        types.SimpleNamespace(Random=CountingRandom))
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "prediction" / "manifest.json",
        loop="prediction")
    _, manager = run_loop(manifest, "prediction")
    manager.shutdown()
    assert manager.storage.count(Namespace.SIM_RESULTS) > 0
    assert built == []


def test_objective_is_final_value_of_named_output():
    result = execute(traffic_spec(), scenario(objective_metric="density"),
                     completed_at=ts(0))
    assert result.objective == result.state_series[-1]["density"]
    assert execute(traffic_spec(), scenario(), ts(0)).objective is None


def test_short_series_holds_last_value_and_empty_reads_zero():
    sc = scenario(input_series={"inflow": [60.0]}, horizon=3,
                  initial_state={"density": 0.0})
    result = execute(traffic_spec(), sc, completed_at=ts(0))
    # delta = (60 - 30) / 30 = 1 at every step: held input saturates
    assert [s["density"] for s in result.state_series] == [1.0, 1.0, 1.0]
    empty = execute(traffic_spec(), scenario(input_series={}, horizon=2,
                                             initial_state={"density": 1.0}),
                    completed_at=ts(0))
    # no inflow: delta = -30 / 30 = -1 drains the road in one step
    assert [s["density"] for s in empty.state_series] == [0.0, 0.0]


# --- numerical failure via a test-only kind ----------------------------------

def _simulate_diverging(params, seed, initial_state, inputs, horizon):
    # a product overflows to inf where 1e200 ** 2 raises OverflowError
    x = initial_state.get("x", 1.0)
    states = []
    for _ in range(horizon):
        x = x * 1e200
        states.append({"x": x})
    return states


def _simulate_late_failure(params, seed, initial_state, inputs, horizon):
    # every value finite but the second variable's at the last step
    states = [{"x": float(step), "y": 1.0} for step in range(horizon)]
    states[-1]["y"] = math.inf
    return states


def _test_kind(name, simulate) -> ModelKind:
    return ModelKind(name=name, parameter_names=frozenset({"rate"}),
                     required_parameters=frozenset(),
                     validate=lambda params: None, simulate=simulate)


@pytest.fixture
def diverging_kind():
    kind = _test_kind("diverging-test", _simulate_diverging)
    KIND_TABLE[kind.name] = kind
    yield kind
    KIND_TABLE.pop(kind.name, None)


@pytest.fixture
def late_failure_kind():
    kind = _test_kind("late-failure-test", _simulate_late_failure)
    KIND_TABLE[kind.name] = kind
    yield kind
    KIND_TABLE.pop(kind.name, None)


def test_non_finite_state_raises_with_partial_series(diverging_kind):
    spec = ModelSpec("d1", "diverging-test", outputs=("x",))
    sc = SimScenario("s1", "d1", initial_state={"x": 1.0}, horizon=5)
    with pytest.raises(NumericalFailure) as exc_info:
        execute(spec, sc, completed_at=ts(0))
    err = exc_info.value
    assert "step 1" in str(err)
    assert list(err.partial_series) == [{"x": 1e200}]


def test_non_finite_second_variable_at_last_step_is_found(late_failure_kind):
    spec = ModelSpec("l1", "late-failure-test", outputs=("x", "y"))
    sc = SimScenario("s1", "l1", horizon=5)
    with pytest.raises(NumericalFailure) as exc_info:
        execute(spec, sc, completed_at=ts(0))
    err = exc_info.value
    assert str(err) == "non-finite y=inf at step 4"
    assert list(err.partial_series) == [{"x": float(step), "y": 1.0}
                                        for step in range(4)]


# --- JSON round trips --------------------------------------------------------

def test_spec_and_scenario_round_trip_json():
    spec = traffic_spec()
    assert model_spec(json.loads(spec.encoded.text), "m") == spec
    sc = scenario(entity_id="TLF01", objective_metric="density",
                  base_time=ts(7), overrides={"green_extension": 20.0},
                  seed=42)
    assert sim_scenario(json.loads(sc.encoded.text), "s",
                        spec) == sc
    minimal = sim_scenario({"scenario_id": "a", "model_id": "m1"}, "s", spec)
    assert minimal.horizon == 1 and minimal.base_time is None
    with pytest.raises(ConfigError, match="model_id 'b' is not the model's"):
        sim_scenario({"scenario_id": "a", "model_id": "b"}, "s", spec)


# --- manager -----------------------------------------------------------------

def test_manager_versions_models():
    # a spec is registered as written, version included, and replaces
    # the spec under its id
    mgr = ModelManager()
    mgr.upsert_model(traffic_spec())
    assert mgr.get_model("m1").version == 1
    mgr.upsert_model(replace(traffic_spec(capacity=40.0), version=3))
    assert mgr.get_model("m1").version == 3
    assert mgr.get_model("m1").parameters["capacity"] == 40.0
    with pytest.raises(NotFound):
        mgr.get_model("ghost")
    with pytest.raises(InvalidSpec):
        mgr.upsert_model(traffic_spec(capacity=0.0))
    assert mgr.get_model("m1").version == 3
    mgr.upsert_model(traffic_spec())
    assert mgr.get_model("m1") == traffic_spec()


# --- engine ------------------------------------------------------------------

@pytest.fixture
def engine():
    manager = ModelManager()
    manager.upsert_model(traffic_spec())
    storage = SharedStorage()
    return ModelEngine(manager, storage, clock=lambda: ts(9)), storage


def test_sync_execution_stores_result(engine):
    eng, storage = engine
    sc = scenario(entity_id="TLF01", objective_metric="density",
                  base_time=ts(3))
    result = eng.model_execution(sc)
    assert len(result.state_series) == sc.horizon
    (rec,) = storage.crud_read(Query(namespace=Namespace.SIM_RESULTS))
    assert rec.key.entity_id == "TLF01"
    assert rec.key.name == "s1"
    assert rec.body["objective"] == result.objective
    assert rec.body["base_time"] == "2024-12-10T12:00:03Z"
    assert rec.body["completed_at"] == "2024-12-10T12:00:09Z"
    assert rec.body["model"]["model_id"] == "m1"
    assert rec.body["scenario"]["scenario_id"] == "s1"
    assert len(rec.body["series"]) == sc.horizon


def test_engine_keeps_no_result_alive(engine):
    eng, storage = engine
    direct = weakref.ref(eng.model_execution(scenario()))
    eng.scenario_sim(scenario(scenario_id="queued"))
    (result,) = eng.drain()
    drained = weakref.ref(result)
    del result
    assert direct() is None and drained() is None
    assert storage.count(Namespace.SIM_RESULTS) == 2


def test_drain_returns_results_in_submission_order(tmp_path):
    manager = ModelManager()
    manager.upsert_model(traffic_spec())
    journal = tmp_path / "journal.jsonl"
    storage = SharedStorage(journal_path=journal, clock=lambda: ts(9))
    eng = ModelEngine(manager, storage, clock=lambda: ts(9))
    # ids whose sort order differs from the submission order
    submitted = ["q3", "q0", "q4", "q1", "q2"]
    for scenario_id in submitted:
        assert eng.scenario_sim(scenario(scenario_id=scenario_id)) == \
            scenario_id
    assert storage.count(Namespace.SIM_RESULTS) == 0
    results = eng.drain()
    storage.close()
    assert [r.scenario_id for r in results] == submitted
    committed = [line["key"]["name"] for line in map(
        json.loads, journal.read_text(encoding="utf-8").splitlines())
        if line["key"]["namespace"] == "SimResults"]
    assert committed == submitted
    assert eng.drain() == []


_names = st.text(max_size=6)     # non-ASCII and escapes included
_reals = st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6)


@st.composite
def _scenarios(draw):
    zone = timezone(timedelta(minutes=draw(st.integers(-720, 720))))
    return SimScenario(
        scenario_id=draw(_names), model_id="m1",
        initial_state=draw(st.dictionaries(_names, _reals, max_size=2)),
        input_series=draw(st.dictionaries(
            st.just("inflow"), st.lists(_reals, max_size=4))),
        horizon=draw(st.integers(1, 4)),
        step_size=draw(st.floats(0.1, 60.0)),
        overrides=draw(st.fixed_dictionaries({}, optional={
            "green_extension": st.floats(-100.0, 100.0),
            "noise_sigma": st.floats(0.0, 0.5)})),
        seed=draw(st.integers(0, 2**32)),
        entity_id=draw(st.none() | _names),
        objective_metric=draw(st.none() | st.just("density")),
        base_time=draw(st.none() | st.datetimes(timezones=st.just(zone))))


@given(st.lists(_scenarios(), min_size=1, max_size=3),
       st.datetimes(timezones=st.just(timezone.utc)))
def test_a_spliced_result_line_is_the_generic_encoding(scenarios, now):
    """A SimResults line, spliced from the model's and the scenario's
    texts, is `json.dumps(line, sort_keys=True)`, and its body reads
    back as the live one."""
    manager = ModelManager()
    manager.upsert_model(traffic_spec())
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        storage = SharedStorage(journal_path=journal, clock=lambda: now)
        eng = ModelEngine(manager, storage, clock=lambda: now)
        for sc in scenarios:
            eng.model_execution(sc)
        storage.close()
        lines = journal.read_text(encoding="utf-8").splitlines(True)
    assert len(lines) == len(scenarios)
    journaled = {}
    for text in lines:
        line = json.loads(text)
        assert text == json.dumps(line, sort_keys=True) + "\n"
        journaled[line["key"]["entity_id"], line["key"]["name"]] = \
            line["body"]
    # a scenario id drawn twice rewrites its record
    assert journaled == {(r.key.entity_id, r.key.name): r.body
                         for r in storage.all_records()}


def test_drain_propagates_a_numerical_failure(engine, diverging_kind):
    eng, storage = engine
    eng.manager.upsert_model(ModelSpec("d1", "diverging-test",
                                       outputs=("x",)))
    eng.scenario_sim(scenario(scenario_id="first"))
    eng.scenario_sim(SimScenario("bad", "d1", initial_state={"x": 1.0},
                                 horizon=5))
    eng.scenario_sim(scenario(scenario_id="behind"))
    with pytest.raises(NumericalFailure) as exc_info:
        eng.drain()
    # the steps that ran before the failure
    assert list(exc_info.value.partial_series) == [{"x": 1e200}]
    # the scenario before the failure is stored; the one behind waits
    (stored,) = storage.crud_read(Query(namespace=Namespace.SIM_RESULTS))
    assert stored.key.name == "first"
    assert [r.scenario_id for r in eng.drain()] == ["behind"]


def test_an_invalid_scenario_is_refused_when_it_runs(engine):
    eng, storage = engine
    assert eng.scenario_sim(scenario(horizon=0)) == "s1"
    with pytest.raises(InvalidSpec):
        eng.drain()
    assert storage.count(Namespace.SIM_RESULTS) == 0
