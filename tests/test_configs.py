"""Manifest loading: section resolution, defaults, and the error table."""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import sys

import pytest

from twinarch.configs import load_manifest
from twinarch.errors import ConfigError
from twinarch.harness import FaultKind
from twinarch.simulation import MAX_HORIZON
from twinarch.wire import Source

from conftest import REPO_ROOT

BASE_DOC = {
    "harness": {"device_id": "TLF01", "schedule": [[1, 20], [2, 25.5]],
                "faults": [[2, "Drop"], [3, "Delay", 2]]},
    "run": {
        "entity_id": "TLF01",
        "model": {"model_id": "m1", "kind": "traffic-flow",
                  "parameters": {"capacity": 30.0},
                  "inputs": ["inflow"], "outputs": ["density"]},
        "shadow_types": [{"name": "traffic", "attributes": ["vehicleFlow"],
                          "entity_type": "TrafficSensor"}],
    },
    "thresholds": {"bands": {"density": {"lo": 0.0, "hi": 0.7}}},
    "candidates": {"candidates": [
        {"id": "extend", "actions": [{"name": "extend-green",
                                      "target": "TLF01",
                                      "args": {"seconds": 20}}]}]},
}


def write_manifest(tmp_path, doc, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def variant(**section_overrides):
    doc = copy.deepcopy(BASE_DOC)
    for dotted, value in section_overrides.items():
        target = doc
        *parents, leaf = dotted.split(".")
        for part in parents:
            target = target.setdefault(part, {})
        if value is None:
            target.pop(leaf, None)
        else:
            target[leaf] = value
    return doc


def test_full_manifest_parses_with_defaults(tmp_path):
    manifest = load_manifest(write_manifest(tmp_path, BASE_DOC), "prediction")
    assert manifest.harness.device_id == "TLF01"
    assert manifest.harness.schedule == ((1, 20.0), (2, 25.5))
    assert manifest.harness.faults[0].kind is FaultKind.DROP
    assert manifest.harness.faults[1].param == 2
    assert manifest.run.tick_interval == 1.0          # defaults kick in
    assert manifest.run.adapter.format is Source.ULTRALIGHT
    assert manifest.run.sim.model_id == "m1"
    assert manifest.bands["density"].hi == 0.7
    assert manifest.candidates[0].candidate_id == "extend"
    assert manifest.candidates[0].actions[0].arguments == {"seconds": 20}
    assert manifest.output_dir == tmp_path / "out"
    assert manifest.run.check_template is None


def test_sections_load_from_referenced_files(tmp_path):
    (tmp_path / "harness.json").write_text(json.dumps(BASE_DOC["harness"]))
    doc = variant(harness="harness.json", output_dir="results")
    manifest = load_manifest(write_manifest(tmp_path, doc), "prediction")
    assert manifest.harness.device_id == "TLF01"
    assert manifest.output_dir == tmp_path / "results"


def test_monitoring_loop_does_not_require_services_sections(tmp_path):
    doc = variant(thresholds=None, candidates=None)
    manifest = load_manifest(write_manifest(tmp_path, doc), "monitoring")
    assert manifest.bands == {} and manifest.candidates == ()


def test_check_template_section_parses(tmp_path):
    template = {"name": "t", "groups": [
        {"name": "g", "steps": [{"from": "TwinManager", "to": "ModelManager",
                                 "message": "m"}]}]}
    doc = variant(**{"run.check_template": template})
    manifest = load_manifest(write_manifest(tmp_path, doc), "monitoring")
    assert manifest.run.check_template.name == "t"


@pytest.mark.parametrize("key", ["low_latency_ingest",
                                 "feedback_on_change_only"])
def test_removed_run_switches_read_only_false(tmp_path, key):
    # older manifests carry both keys set to false
    doc = variant(**{f"run.{key}": False})
    manifest = load_manifest(write_manifest(tmp_path, doc), "monitoring")
    assert manifest.run.entity_id == "TLF01"
    with pytest.raises(ConfigError, match=re.escape(f"run.{key}")):
        load_manifest(write_manifest(tmp_path, variant(**{f"run.{key}": 1})),
                      "monitoring")


@pytest.mark.parametrize("dotted", ["run.sim.horizon", "run.tick_interval",
                                    "run.predictor.window",
                                    "run.predictor.method"])
def test_unparsable_run_values_name_their_field(tmp_path, dotted):
    doc = variant(**{dotted: "abc"})
    with pytest.raises(ConfigError, match=re.escape(dotted)):
        load_manifest(write_manifest(tmp_path, doc), "monitoring")


def test_demo_manifests_stay_loadable(repo_root):
    monitoring = load_manifest(
        repo_root / "configs" / "demo" / "monitoring" / "manifest.json",
        "monitoring")
    assert monitoring.run.entity_id == "TLF01"
    assert monitoring.run.max_ticks == 10
    prediction = load_manifest(
        repo_root / "configs" / "demo" / "prediction" / "manifest.json",
        "prediction")
    assert len(prediction.candidates) == 3
    assert "vehicleFlow" in prediction.bands


def _load_workloads():
    path = REPO_ROOT / "twinbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_twinbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_manifests_stay_loadable(tmp_path, seed):
    # the benchmark builds its manifests itself; a key the strict
    # parser rejects would stop every benchmark run
    workloads = _load_workloads()
    for loop, build in (("monitoring", workloads.monitoring_manifest),
                        ("prediction", workloads.prediction_manifest)):
        path = write_manifest(tmp_path, build(seed), f"{loop}.json")
        assert load_manifest(path, loop).run.entity_id == "TLF01"


@pytest.mark.parametrize("name", sorted(
    p.parent.name for p in (REPO_ROOT / "configs" / "demo").glob(
        "*/manifest.json")))
def test_every_demo_manifest_stays_loadable(repo_root, name):
    loop = "prediction" if name.startswith("prediction") else "monitoring"
    path = repo_root / "configs" / "demo" / name / "manifest.json"
    assert load_manifest(path, loop).run.entity_id == "TLF01"


REJECTED = [
    ("missing-manifest", None, "monitoring"),
    ("not-json", "{oops", "monitoring"),
    ("not-object", "[1]", "monitoring"),
    ("no-harness", variant(harness=None), "monitoring"),
    ("no-run", variant(run=None), "monitoring"),
    ("section-not-object", variant(harness=[1, 2]), "monitoring"),
    ("section-file-missing", variant(harness="ghost.json"), "monitoring"),
    ("bad-format", variant(**{"harness.format": "carrier-pigeon"}),
     "monitoring"),
    ("bad-schedule", variant(**{"harness.schedule": [[1]]}), "monitoring"),
    ("schedule-not-list", variant(**{"harness.schedule": "x"}), "monitoring"),
    ("bad-fault", variant(**{"harness.faults": [["x", "Drop"]]}),
     "monitoring"),
    ("negative-latency", variant(**{"harness.latency": -1}), "monitoring"),
    ("no-entity", variant(**{"run.entity_id": None}), "monitoring"),
    ("entity-not-str", variant(**{"run.entity_id": 5}), "monitoring"),
    ("no-model", variant(**{"run.model": None}), "monitoring"),
    ("model-missing-kind", variant(**{"run.model": {"model_id": "m"}}),
     "monitoring"),
    ("no-shadow-types", variant(**{"run.shadow_types": []}), "monitoring"),
    ("shadow-type-empty", variant(**{"run.shadow_types": [
        {"name": "t", "attributes": []}]}), "monitoring"),
    ("bad-adapter-format", variant(**{"run.adapter": {"format": "morse"}}),
     "monitoring"),
    ("bad-template", variant(**{"run.check_template": {"groups": [{}]}}),
     "monitoring"),
    ("zero-interval", variant(**{"run.tick_interval": 0}), "monitoring"),
    ("zero-ticks", variant(**{"run.max_ticks": 0}), "monitoring"),
    ("zero-horizon", variant(**{"run.horizon": 0}), "monitoring"),
    ("prediction-without-thresholds", variant(thresholds=None), "prediction"),
    ("prediction-without-candidates", variant(candidates=None), "prediction"),
    ("empty-bands", variant(**{"thresholds.bands": {}}), "prediction"),
    ("band-not-object", variant(**{"thresholds.bands": {"x": 5}}),
     "prediction"),
    ("band-missing-edge", variant(**{"thresholds.bands": {"x": {"lo": 0}}}),
     "prediction"),
    ("band-upside-down", variant(**{"thresholds.bands":
                                    {"x": {"lo": 1, "hi": 0}}}), "prediction"),
    ("candidate-without-id", variant(**{"candidates.candidates": [{}]}),
     "prediction"),
    ("action-without-name", variant(**{"candidates.candidates": [
        {"id": "x", "actions": [{"args": {}}]}]}), "prediction"),
    ("output-dir-not-str", variant(output_dir=7), "monitoring"),
    ("sim-horizon-not-a-number", variant(**{"run.sim.horizon": "abc"}),
     "monitoring"),
    ("tick-interval-not-a-number", variant(**{"run.tick_interval": "fast"}),
     "monitoring"),
    ("unknown-forecast-method", variant(**{"run.predictor.method": "cubic"}),
     "monitoring"),
    ("model-version-not-a-number", variant(**{"run.model.version": "x"}),
     "monitoring"),
    ("low-latency-ingest-on", variant(**{"run.low_latency_ingest": True}),
     "monitoring"),
    ("feedback-on-change-only-on",
     variant(**{"run.feedback_on_change_only": True}), "monitoring"),
    ("dtdl-model-not-an-interface",
     variant(**{"run.adapter": {"format": "dtdl", "dtdl_model": {}}}),
     "monitoring"),
    # an adapter format that can parse no payload
    ("dtdl-adapter-without-model", variant(**{"run.adapter": {
        "format": "dtdl"}}), "monitoring"),
    ("internal-adapter", variant(**{"run.adapter": {"format": "internal"}}),
     "monitoring"),
    # a mapped name becomes a record key's name
    ("attribute-map-number", variant(**{"run.adapter.attribute_map":
                                        {"f": 5}}), "monitoring"),
    ("attribute-map-empty", variant(**{"run.adapter.attribute_map":
                                       {"f": ""}}), "monitoring"),
    # numbers are what they say: no bools, strings or truncated floats
    ("max-ticks-float", variant(**{"run.max_ticks": 2.7}), "monitoring"),
    ("max-ticks-bool", variant(**{"run.max_ticks": True}), "monitoring"),
    ("max-ticks-string", variant(**{"run.max_ticks": "3"}), "monitoring"),
    ("tick-interval-bool", variant(**{"run.tick_interval": True}),
     "monitoring"),
    ("latency-bool", variant(**{"harness.latency": True}), "monitoring"),
    ("response-gain-string", variant(**{"harness.response_gain": "1.5"}),
     "monitoring"),
    ("sim-horizon-float", variant(**{"run.sim.horizon": 2.5}), "monitoring"),
    ("predictor-window-bool", variant(**{"run.predictor.window": True}),
     "monitoring"),
    ("schedule-tick-bool", variant(**{"harness.schedule": [[True, 3]]}),
     "monitoring"),
    ("schedule-value-bool", variant(**{"harness.schedule": [[1, True]]}),
     "monitoring"),
    ("fault-tick-float", variant(**{"harness.faults": [[2.5, "Drop"]]}),
     "monitoring"),
    ("band-edge-bool", variant(**{"thresholds.bands": {
        "density": {"lo": False, "hi": 0.7}}}), "prediction"),
    # the model is read as strictly as the rest, and checked at load
    ("model-unknown-key", variant(**{"run.model.colour": "red"}),
     "monitoring"),
    ("model-version-string", variant(**{"run.model.version": "3"}),
     "monitoring"),
    ("model-version-float", variant(**{"run.model.version": 2.7}),
     "monitoring"),
    ("model-capacity-bool", variant(**{"run.model.parameters.capacity":
                                       True}), "monitoring"),
    ("model-capacity-string", variant(**{"run.model.parameters.capacity":
                                         "30"}), "monitoring"),
    ("model-inputs-not-list", variant(**{"run.model.inputs": "inflow"}),
     "monitoring"),
    ("model-unknown-kind", variant(**{"run.model.kind": "warp-drive"}),
     "monitoring"),
    ("model-unknown-parameter", variant(**{"run.model.parameters.lanes": 2}),
     "monitoring"),
    # the simulation settings, by the rule the engine runs scenarios with
    ("sim-horizon-zero", variant(**{"run.sim.horizon": 0}), "monitoring"),
    ("sim-horizon-negative", variant(**{"run.sim.horizon": -3}),
     "monitoring"),
    ("sim-step-size-zero", variant(**{"run.sim.step_size": 0}),
     "monitoring"),
    ("sim-step-size-negative", variant(**{"run.sim.step_size": -1.5}),
     "monitoring"),
    ("sim-objective-not-an-output",
     variant(**{"run.sim.objective_metric": "inflow"}), "monitoring"),
    ("sim-input-not-a-model-input",
     variant(**{"run.sim.input_name": "density"}), "monitoring"),
    # a horizon too long to run, what-if or forecast
    ("sim-horizon-over-bound",
     variant(**{"run.sim.horizon": MAX_HORIZON + 1}), "monitoring"),
    ("sim-horizon-huge", variant(**{"run.sim.horizon": 10**19}),
     "monitoring"),
    ("horizon-over-bound", variant(**{"run.horizon": MAX_HORIZON + 1}),
     "monitoring"),
    ("horizon-huge", variant(**{"run.horizon": 10**19}), "monitoring"),
    # a forecast reads at least one point
    ("predictor-window-zero", variant(**{"run.predictor.window": 0}),
     "monitoring"),
    ("predictor-window-negative", variant(**{"run.predictor.window": -3}),
     "monitoring"),
    ("predictor-min-window-zero",
     variant(**{"run.predictor.min_window": 0}), "monitoring"),
    ("predictor-moving-average-k-zero",
     variant(**{"run.predictor.moving_average_k": 0}), "monitoring"),
    # a misspelt key at each manifest level
    ("unknown-manifest-key", variant(output_dri="x"), "monitoring"),
    ("unknown-harness-key", variant(**{"harness.lateny": 2}), "monitoring"),
    ("unknown-run-key", variant(**{"run.max_tick": 3}), "monitoring"),
    ("unknown-sim-key", variant(**{"run.sim.horizn": 3}), "monitoring"),
    ("unknown-predictor-key", variant(**{"run.predictor.windw": 3}),
     "monitoring"),
    ("unknown-adapter-key", variant(**{"run.adapter.formt": "ditto"}),
     "monitoring"),
    ("unknown-feedback-key", variant(**{"run.feedback.ok_mesage": "ok"}),
     "monitoring"),
    ("unknown-shadow-type-key", variant(**{"run.shadow_types": [
        {"name": "traffic", "attributes": ["vehicleFlow"],
         "entity_typ": "TrafficSensor"}]}), "monitoring"),
    ("unknown-thresholds-key", variant(**{"thresholds.band": {}}),
     "prediction"),
    ("unknown-band-key", variant(**{"thresholds.bands": {
        "density": {"lo": 0.0, "hi": 0.7, "high": 0.9}}}), "prediction"),
    ("unknown-candidates-key", variant(**{"candidates.candidate": []}),
     "prediction"),
    ("unknown-candidate-key", variant(**{"candidates.candidates": [
        {"id": "x", "action": []}]}), "prediction"),
    ("unknown-action-key", variant(**{"candidates.candidates": [
        {"id": "x", "actions": [{"name": "extend-green",
                                 "arg": {"seconds": 20}}]}]}), "prediction"),
]


@pytest.mark.parametrize("label,doc,loop", REJECTED,
                         ids=[r[0] for r in REJECTED])
def test_invalid_manifests_raise_config_error(tmp_path, label, doc, loop):
    if doc is None:
        path = tmp_path / "absent.json"
    elif isinstance(doc, str):
        path = tmp_path / "manifest.json"
        path.write_text(doc)
    else:
        path = write_manifest(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_manifest(path, loop)
