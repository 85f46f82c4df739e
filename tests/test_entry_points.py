"""The surface that runs outside the test suite still resolves: the
functions the benchmark wraps, the package exports, and the quick-start
demo scripts."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import twinarch
import twinarch.wire
from twinarch.adapters import AdapterConfig, Direction, P2DAdapter
from twinarch.clock import DEFAULT_EPOCH
from twinarch.shadows import ShadowManager, ShadowType
from twinarch.storage import SharedStorage
from twinarch.wire import Source

from conftest import REPO_ROOT


def _load_spans():
    path = REPO_ROOT / "twinbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_twinbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_function_is_defined():
    missing = []
    for module_name, path, _, _ in _load_spans().LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


@pytest.mark.parametrize("fmt, fixture", [
    (Source.ULTRALIGHT, "ultralight_traffic.txt"),
    (Source.DITTO, "ditto_thing.json"),
    (Source.DTDL, "dtdl_telemetry.json"),
    (Source.NGSI_LD, "ngsi_ld_traffic_flow.json")], ids=str)
def test_benchmark_spans_reach_the_parse_and_shadow_update(fmt, fixture):
    # the parsers are rebound by module name; a dispatch table built at
    # import time would keep the unwrapped ones and record no parse span
    spans = _load_spans()
    fixtures = REPO_ROOT / "fixtures"
    model = json.loads((fixtures / "dtdl_interface.json").read_text("utf-8"))
    storage = SharedStorage()
    adapter = P2DAdapter(AdapterConfig(Direction.P2D, fmt, dtdl_model=model),
                         storage)
    shadows = ShadowManager(storage)
    payload = (fixtures / fixture).read_text("utf-8").strip()
    recorder = spans.SpanRecorder()
    with spans.Instrumentation(recorder):
        (measurement,) = adapter.ingest(payload, "d1",
                                        DEFAULT_EPOCH).measurements
        shadow_type = ShadowType("t", frozenset({measurement.attribute}),
                                 measurement.entity_type)
        shadow_id = shadows.create_shadow(shadow_type, measurement.entity_id,
                                          created_at=DEFAULT_EPOCH)
        assert shadows.update_from_measurement(measurement) == [shadow_id]
    names = [span[spans.NAME] for span in recorder.spans]
    assert (names.count("wire.parse"), names.count("shadows.update")) == (
        1, 1)


@pytest.mark.parametrize("package", [twinarch, twinarch.wire],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__
            if not hasattr(package, name)] == []


@pytest.mark.parametrize("loop", ["monitoring", "prediction"])
def test_demo_script_runs_and_conforms(loop):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / f"run_{loop}_demo.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert f"{loop}: Pass (" in done.stdout
