"""End-to-end closed loops: the demo manifests through run_loop."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from twinarch import simulation
from twinarch.configs import load_manifest
from twinarch.errors import NumericalFailure
from twinarch.harness import Fault, FaultKind
from twinarch.orchestrator import TwinManager, run_loop
from twinarch.services import Band, Provenance, Severity
from twinarch.storage import Namespace, Query, SharedStorage
from twinarch.wire import Measurement


def demo_manifest(repo_root, name, loop):
    return load_manifest(repo_root / "configs" / "demo" / name / "manifest.json",
                         loop)


@pytest.fixture(scope="module")
def monitoring_run(repo_root):
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    output, manager = run_loop(manifest, "monitoring", seed=0, check=True)
    yield output, manager
    manager.shutdown()


@pytest.fixture(scope="module")
def prediction_run(repo_root):
    manifest = demo_manifest(repo_root, "prediction", "prediction")
    output, manager = run_loop(manifest, "prediction", seed=0, check=True)
    yield output, manager
    manager.shutdown()


# -- monitoring demo ---------------------------------------------------------------


def test_monitoring_demo_conforms(monitoring_run):
    output, _ = monitoring_run
    assert output.ticks_run == 10
    assert output.report is not None
    assert output.report.ok, output.report.describe()
    assert output.report.instances == 10


def test_monitoring_final_state_is_fused(monitoring_run):
    output, _ = monitoring_run
    state = output.states["TLF01"]
    assert state.provenance is Provenance.FUSED
    assert state.metrics["vehicleFlow"] == 50.0
    assert state.metrics["density"] == pytest.approx(1.0)


def test_monitoring_density_trajectory(monitoring_run):
    # flow ramps 20..50 against capacity 30: density stays pinned at 0
    # until inflow exceeds capacity, then climbs (35-30)/30 per tick
    # and saturates at the clamp
    _, manager = monitoring_run
    states = manager.storage.crud_read(Query(namespace=Namespace.STATES))
    densities = [r.body["metrics"]["density"] for r in states]
    expected = [0.0, 0.0, 0.0, 1 / 6, 1 / 2, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert densities == pytest.approx(expected, abs=1e-12)


def test_monitoring_feedback_switches_to_alerts(monitoring_run):
    output, _ = monitoring_run
    assert len(output.feedbacks) == 10
    for feedback in output.feedbacks[:5]:
        assert feedback.severity is Severity.INFO
        assert feedback.message == "traffic flowing normally"
    for feedback in output.feedbacks[5:]:
        assert feedback.severity is Severity.WARNING
        assert feedback.message == ("High congestion detected on Main Street; "
                                    "notify drivers to avoid the area")


def test_monitoring_feedback_reaches_the_device(monitoring_run):
    _, manager = monitoring_run
    assert len(manager.harness.notifications) == 10
    assert len(manager.harness.acks) == 10
    assert all(a["status"] == "ok" for a in manager.harness.acks)


def test_monitoring_journal_survives_replay(repo_root, tmp_path):
    # the journals of both demo loops, seeds 0-9, keep the revision
    # rule: they replay, and a store opened on one continues them
    counts = {"monitoring": (10, 10, 10), "prediction": (12, 0, 1)}
    for loop in ("monitoring", "prediction"):
        manifest = demo_manifest(repo_root, loop, loop)
        for seed in range(10):
            journal = tmp_path / f"{loop}-{seed}.jsonl"
            _, manager = run_loop(manifest, loop, seed=seed,
                                  journal_path=journal)
            manager.shutdown()
            live = sorted(manager.storage.all_records(), key=repr)
            replayed = SharedStorage.replay(journal)
            reopened = SharedStorage(journal_path=journal)
            for store in (replayed, reopened):
                assert sorted(store.all_records(), key=repr) == live
            assert tuple(len(replayed.crud_read(Query(namespace=ns)))
                         for ns in (Namespace.MEASUREMENTS, Namespace.STATES,
                                    Namespace.FEEDBACK)) == counts[loop]
            top = max(live, key=lambda r: r.revision)
            assert reopened.upsert(top.key, top.body) == top.revision + 1
            reopened.close()


def test_sim_results_carry_the_manifest_model_version(repo_root):
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    run = dataclasses.replace(manifest.run, model=dataclasses.replace(
        manifest.run.model, version=3))
    _, manager = run_loop(dataclasses.replace(manifest, run=run),
                          "monitoring", seed=0)
    try:
        results = manager.storage.crud_read(
            Query(namespace=Namespace.SIM_RESULTS))
        assert len(results) == 10
        assert {r.body["model"]["version"] for r in results} == {3}
    finally:
        manager.shutdown()


# -- prediction demo ---------------------------------------------------------------


def test_prediction_demo_conforms(prediction_run):
    output, _ = prediction_run
    assert output.ticks_run == 12
    assert output.report is not None
    assert output.report.ok, output.report.describe()


def test_prediction_plans_the_cheapest_feasible_candidate(prediction_run):
    output, _ = prediction_run
    plan = output.plan
    assert plan is not None
    assert [a.name for a in plan.actions] == ["extend-green"]
    assert plan.actions[0].arguments == {"seconds": 20}
    # chosen scenario leads; the rest keep catalog order
    assert list(plan.scenario_ids) == ["whatif-2-extend-green-only",
                                       "whatif-1-divert-and-extend",
                                       "whatif-3-divert-only"]
    assert plan.deviation_id == "TLF01:vehicleFlow:2024-12-10T12:00:13Z"
    assert 0.0 <= plan.expected_objective <= 0.7


def test_prediction_commands_are_acked(prediction_run):
    output, manager = prediction_run
    assert len(output.feedbacks) == 1
    assert output.feedbacks[0].variant == "command-plan"
    assert len(manager.harness.acks) == 1
    assert manager.harness.acks[0]["status"] == "ok"


def test_a_what_if_does_not_pass_for_the_present(repo_root):
    # a what-if ends after the run's last tick: it is not current state
    manifest = demo_manifest(repo_root, "prediction", "prediction")
    manager = TwinManager(manifest, seed=0)
    read, seeds = manager.monitor.get_state, []

    def read_and_keep(entity_id):
        seeds.append(read(entity_id))
        return seeds[-1]

    manager.monitor.get_state = read_and_keep
    try:
        output = manager.run_prediction()
        assert output.plan is not None
        (before_search,) = seeds    # the search seed, read once
        state = read("TLF01")
        assert state.to_json() == before_search.to_json()
        assert state.metrics == {"vehicleFlow": 42}
        assert state.provenance is Provenance.REAL_ONLY
    finally:
        manager.shutdown()


def test_prediction_healthy_run_skips_the_whatif_branch(repo_root):
    manifest = demo_manifest(repo_root, "prediction", "prediction")
    bands = {"vehicleFlow": Band(lo=0.0, hi=1000.0),
             "density": Band(lo=0.0, hi=2.0)}
    manifest = dataclasses.replace(manifest, bands=bands)
    output, manager = run_loop(manifest, "prediction", seed=0, check=True)
    try:
        assert output.plan is None
        assert output.feedbacks == []
        assert output.report.ok, output.report.describe()
        messages = {e.message for e in output.tracer.events}
        assert "genScenario" not in messages
        assert "deviation" not in messages
    finally:
        manager.shutdown()


def test_a_failing_whatif_scenario_ends_the_run_with_its_error(
        repo_root, monkeypatch):
    def diverge(spec, scenario, completed_at):
        raise NumericalFailure(f"{scenario.scenario_id} diverged")

    monkeypatch.setattr(simulation, "execute", diverge)
    manager = TwinManager(demo_manifest(repo_root, "prediction",
                                        "prediction"))
    try:
        with pytest.raises(NumericalFailure, match="diverged"):
            manager.run_prediction()
        assert manager.tracer.events[-1].message == "modelExecution"
        assert manager.storage.count(Namespace.SIM_RESULTS) == 0
    finally:
        manager.shutdown()


# -- run variants ------------------------------------------------------------------


def test_ingest_hops_are_recorded_in_the_order_the_work_runs(repo_root):
    manager = TwinManager(demo_manifest(repo_root, "monitoring",
                                        "monitoring"))
    entity = manager.run_config.entity_id
    record = manager.tracer.record
    seen = []

    def spy(source, target, message, payload=None):
        if message in ("storeData", "updateShadows"):
            stamp = manager.clock.at(manager.tracer.tick)
            stored = manager.storage.latest(Namespace.MEASUREMENTS, entity)
            shadowed = {p.observed_at for p in
                        manager.shadow_manager.latest_points(entity).values()}
            seen.append((message, stored is not None
                         and stored.key.observed_at == stamp,
                         stamp in shadowed))
        return record(source, target, message, payload)

    manager.tracer.record = spy
    try:
        manager.run_monitoring()
    finally:
        manager.shutdown()
    # storeData: the measurement is stored, no shadow has it yet;
    # updateShadows: the shadow holds it
    assert seen == [("storeData", True, False),
                    ("updateShadows", True, True)] * 10


def test_corrupt_payload_drops_the_tick_but_stays_conformant(repo_root):
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    harness = dataclasses.replace(
        manifest.harness, faults=(Fault(tick=3, kind=FaultKind.CORRUPT),))
    manifest = dataclasses.replace(manifest, harness=harness)
    output, manager = run_loop(manifest, "monitoring", seed=0, check=True)
    try:
        assert output.report.ok, output.report.describe()
        tick3 = [e for e in output.tracer.events
                 if e.tick == 3 and e.message == "transmitData"]
        assert tick3 == []
        states = manager.storage.crud_read(Query(namespace=Namespace.STATES))
        assert len(states) == 10
        # the shadow holds the last good value through the bad tick
        assert states[2].body["metrics"]["vehicleFlow"] == 25.0
    finally:
        manager.shutdown()


def test_a_nan_density_reading_does_not_stop_the_monitoring_loop(repo_root):
    # a device reporting `d|NaN` leaves the string "NaN" in the shadow,
    # which the what-if seed reads as an unknown density
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    run = manifest.run
    shadow_type = dataclasses.replace(
        run.shadow_types[0],
        attribute_set=run.shadow_types[0].attribute_set | {"density"})
    adapter = dataclasses.replace(
        run.adapter, attribute_map={**run.adapter.attribute_map,
                                    "d": "density"})
    run = dataclasses.replace(run, shadow_types=(shadow_type,),
                              adapter=adapter)
    manager = TwinManager(dataclasses.replace(manifest, run=run), seed=0)
    try:
        receipt = manager.p2d.ingest("d|NaN", run.entity_id,
                                     observed_at=manager.clock.at(0))
        for measurement in receipt.measurements:
            manager.shadow_manager.update_from_measurement(measurement)
        assert manager.monitor.get_state(run.entity_id).metrics[
            "density"] == "NaN"
        output = manager.run_monitoring()
        assert output.ticks_run == 10
        assert output.states["TLF01"].metrics["density"] == pytest.approx(1.0)
    finally:
        manager.shutdown()


@pytest.mark.parametrize("value", [True, "35"])
def test_a_reading_that_is_not_a_number_feeds_no_inflow(repo_root, value):
    # a Ditto or NGSI-LD `true` is a boolean, and not an inflow of 1
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    manager = TwinManager(manifest, seed=0)
    try:
        run = manifest.run
        assert manager.shadow_manager.update_from_measurement(Measurement(
            run.entity_id, run.adapter.entity_type, run.sim.input_metric,
            value, manager.clock.at(0)))
        scenario = manager._current_conditions_scenario(1)
        assert scenario.input_series == {run.sim.input_name: [0.0]}
    finally:
        manager.shutdown()


def test_swapped_template_override_fails_conformance(repo_root):
    manifest = demo_manifest(repo_root, "monitoring_swapped", "monitoring")
    output, manager = run_loop(manifest, "monitoring", seed=0, check=True)
    try:
        assert output.report is not None
        assert not output.report.ok
        assert output.report.expected is not None
    finally:
        manager.shutdown()


def test_unknown_loop_is_rejected(repo_root):
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    with pytest.raises(ValueError):
        run_loop(manifest, "shadowing")


# -- determinism -------------------------------------------------------------------


def _jittered(repo_root):
    manifest = demo_manifest(repo_root, "monitoring", "monitoring")
    harness = dataclasses.replace(manifest.harness, jitter_sigma=0.5)
    return dataclasses.replace(manifest, harness=harness)


def _digest_for(manifest, seed):
    output, manager = run_loop(manifest, "monitoring", seed=seed)
    try:
        return output.tracer.digest(), list(manager.harness.emitted_flows)
    finally:
        manager.shutdown()


def test_seed_fully_determines_a_run(repo_root):
    manifest = _jittered(repo_root)
    digest_a, flows_a = _digest_for(manifest, seed=1)
    digest_b, flows_b = _digest_for(manifest, seed=1)
    digest_c, flows_c = _digest_for(manifest, seed=2)
    assert digest_a == digest_b
    assert flows_a == flows_b
    assert digest_a != digest_c
    # jitter actually perturbed the schedule
    assert flows_a != [(t, float(v)) for t, v in manifest.harness.schedule]


# -- threads -----------------------------------------------------------------------


@pytest.mark.parametrize("loop", ["monitoring", "prediction"])
def test_a_run_starts_no_threads(repo_root, loop):
    manifest = demo_manifest(repo_root, loop, loop)
    before = threading.active_count()
    manager = TwinManager(manifest, seed=0)
    try:
        output = (manager.run_monitoring() if loop == "monitoring"
                  else manager.run_prediction())
        assert output.ticks_run > 0
        assert threading.active_count() == before
    finally:
        manager.shutdown()
