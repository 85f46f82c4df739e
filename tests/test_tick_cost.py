"""Complexity gates on one monitoring tick.

Counts, not wall-clock time, so the gates hold on any machine: per
tick, the records returned by `SharedStorage.crud_read` and
`SharedStorage.latest` plus the trace points built by
`ShadowManager.get_shadow` do not grow with the history held in the
store, and the journal formats each tick's shared stamps once. A
scenario, monitoring or what-if, is validated once.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from twinarch import simulation, storage
from twinarch.configs import load_manifest
from twinarch.orchestrator import TwinManager, run_loop
from twinarch.shadows import ShadowManager
from twinarch.storage import Namespace, SharedStorage

TICKS = 400


def test_work_per_monitoring_tick_stays_flat(repo_root, monkeypatch):
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "monitoring" / "manifest.json")
    # telemetry on every tick, crossing the density band both ways
    schedule = tuple((t, 10.0 + (t * 7) % 40) for t in range(1, TICKS + 1))
    manifest = dataclasses.replace(
        manifest,
        harness=dataclasses.replace(manifest.harness, schedule=schedule))
    manager = TwinManager(manifest, ticks=TICKS)
    work: Counter[int] = Counter()
    read, latest = SharedStorage.crud_read, SharedStorage.latest
    get_shadow = ShadowManager.get_shadow

    def counted_read(self, query):
        records = read(self, query)
        work[manager.clock.tick] += len(records)
        return records

    def counted_latest(self, *args, **kwargs):
        record = latest(self, *args, **kwargs)
        work[manager.clock.tick] += record is not None
        return record

    def counted_get_shadow(self, *args, **kwargs):
        shadows = get_shadow(self, *args, **kwargs)
        work[manager.clock.tick] += sum(len(s.trace) for s in shadows)
        return shadows

    monkeypatch.setattr(SharedStorage, "crud_read", counted_read)
    monkeypatch.setattr(SharedStorage, "latest", counted_latest)
    monkeypatch.setattr(ShadowManager, "get_shadow", counted_get_shadow)
    try:
        output = manager.run_monitoring()
    finally:
        manager.shutdown()
    assert output.ticks_run == TICKS
    assert len(output.feedbacks) == TICKS
    assert work[50] > 0
    assert work[400] == work[50], (work[50], work[400])


def test_journal_formats_each_tick_stamp_once(repo_root, tmp_path,
                                              monkeypatch):
    # both stamps of a line change once a tick, and once more for the
    # shadow descriptors written before the first tick
    calls = []
    format_rfc3339 = storage.format_rfc3339

    def counted_format(dt):
        calls.append(dt)
        return format_rfc3339(dt)

    monkeypatch.setattr(storage, "format_rfc3339", counted_format)
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "monitoring" / "manifest.json")
    manager = TwinManager(manifest, journal_path=tmp_path / "journal.jsonl")
    try:
        output = manager.run_monitoring()
    finally:
        manager.shutdown()
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert len(lines) > 5 * output.ticks_run
    assert len(calls) <= 2 * output.ticks_run + 2, (
        len(calls), output.ticks_run)


@pytest.mark.parametrize("loop,scenarios", [("monitoring", 10),
                                            ("prediction", 3)])
def test_each_scenario_is_validated_once(repo_root, monkeypatch, loop,
                                         scenarios):
    # the monitoring demo simulates once per tick, the prediction demo
    # once per candidate
    validated = []
    validate_scenario = simulation.validate_scenario

    def counted_validate(scenario, spec):
        validated.append(scenario.scenario_id)
        return validate_scenario(scenario, spec)

    monkeypatch.setattr(simulation, "validate_scenario", counted_validate)
    manifest = load_manifest(
        repo_root / "configs" / "demo" / loop / "manifest.json", loop)
    _, manager = run_loop(manifest, loop)
    manager.shutdown()
    assert manager.storage.count(Namespace.SIM_RESULTS) == scenarios
    assert len(validated) == scenarios, validated
