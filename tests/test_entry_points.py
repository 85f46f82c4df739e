"""The surface that runs outside the test suite still resolves: the
functions the benchmark wraps, the package exports, and the quick-start
demo scripts."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import twinarch
import twinarch.wire

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
