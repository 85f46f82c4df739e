"""Complexity gates on one monitoring tick.

Counts, not wall-clock time, so the gates hold on any machine: per
tick, the records returned by `SharedStorage.crud_read` and
`SharedStorage.latest` plus the trace points built by
`ShadowManager.get_shadow` do not grow with the history held in the
store, and a run makes the text of each instant once, however many
modules format or parse it. A scenario, monitoring or what-if, is
validated once, and its document and the model's are encoded once; the
what-ifs of a search format no instant of their own.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter

import pytest

from twinarch import clock, simulation
from twinarch.configs import load_manifest
from twinarch.orchestrator import TwinManager, run_loop
from twinarch.shadows import ShadowManager
from twinarch.storage import Namespace, Query, SharedStorage
from twinarch.wire import common

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


def _count_calls(monkeypatch, module, name: str, keep=lambda *args: True):
    """The arguments of each call of `module.name` that `keep` takes,
    through every twinarch module that holds the function, so that no
    call escapes by an imported name."""
    function = getattr(module, name)
    calls = []

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return function(*args)

    held = [m for m in list(sys.modules.values())
            if m is not None and m.__name__.split(".")[0] == "twinarch"
            and getattr(m, name, None) is function]
    assert module in held
    for holder in held:
        monkeypatch.setattr(holder, name, counted)
    return calls


def _count_made(monkeypatch, name: str, keep=lambda *args: True):
    """The arguments of each text that the cached `clock.name` makes
    rather than remembers: a cache as empty as after `cache_clear`,
    over a counted copy of the uncached function. A cache that an
    earlier test left warm would hide a run's work."""
    cached = getattr(clock, name)
    made = []

    def counted(*args):
        if keep(*args):
            made.append(args)
        return cached.__wrapped__(*args)

    monkeypatch.setattr(clock, name, functools.lru_cache(
        maxsize=cached.cache_info().maxsize)(counted))
    return made


def test_journal_formats_each_tick_stamp_once(repo_root, tmp_path,
                                              monkeypatch):
    # both stamps of a line change once a tick, and once more for the
    # shadow descriptors written before the first tick; the count is of
    # the formatting done while a line is written
    journaling = []
    journal = SharedStorage._journal

    def counted_journal(self, *args, **kwargs):
        journaling.append(True)
        try:
            return journal(self, *args, **kwargs)
        finally:
            journaling.pop()

    monkeypatch.setattr(SharedStorage, "_journal", counted_journal)
    calls = _count_made(monkeypatch, "_format_utc",
                        lambda dt: bool(journaling))
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "monitoring" / "manifest.json")
    manager = TwinManager(manifest, journal_path=tmp_path / "journal.jsonl")
    try:
        output = manager.run_monitoring()
    finally:
        manager.shutdown()
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert len(lines) > 5 * output.ticks_run
    assert output.ticks_run <= len(calls) <= 2 * output.ticks_run + 2, (
        len(calls), output.ticks_run)


def test_a_monitoring_run_makes_each_instant_text_once(repo_root, tmp_path,
                                                       monkeypatch):
    # every module formats a tick's instant, and the state reads parse
    # the latest result's base time, through the one cache in `clock`
    formatted = _count_made(monkeypatch, "_format_utc")
    parsed = _count_made(monkeypatch, "_parse")
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "monitoring" / "manifest.json")
    output, manager = run_loop(manifest, "monitoring",
                               journal_path=tmp_path / "journal.jsonl")
    manager.shutdown()
    assert len(formatted) <= output.ticks_run + 1, len(formatted)
    base_times = [record.body["base_time"] for record in
                  manager.storage.crud_read(Query(Namespace.SIM_RESULTS))]
    assert len(base_times) == output.ticks_run
    assert sorted(text for text, in parsed) == sorted(base_times)


def _prediction_demo(repo_root, candidates: int):
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "prediction" / "manifest.json",
        "prediction")
    demo = manifest.candidates
    return dataclasses.replace(manifest, candidates=tuple(
        dataclasses.replace(demo[i % len(demo)], candidate_id=f"c{i}")
        for i in range(candidates)))


def test_a_search_formats_each_instant_once(repo_root, tmp_path,
                                            monkeypatch):
    # every what-if of a search starts at one base time and completes at
    # one instant, so the candidates add no formatting
    counts = []
    for candidates in (1, 3, 12):
        manifest = _prediction_demo(repo_root, candidates)
        calls = _count_made(monkeypatch, "_format_utc")
        _, manager = run_loop(manifest, "prediction",
                              journal_path=tmp_path / f"{candidates}.jsonl")
        manager.shutdown()
        assert manager.storage.count(Namespace.SIM_RESULTS) == candidates
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1] == counts[2] > 0, counts


def test_the_model_document_is_encoded_once_per_run(repo_root, tmp_path,
                                                    monkeypatch):
    path = repo_root / "configs" / "demo" / "monitoring" / "manifest.json"
    document = load_manifest(path).run.model.encoded.value
    calls = _count_calls(monkeypatch, common, "encode",
                         lambda value: value == document)
    _, manager = run_loop(load_manifest(path), "monitoring",
                          journal_path=tmp_path / "journal.jsonl")
    manager.shutdown()
    assert manager.storage.count(Namespace.SIM_RESULTS) == 10
    assert len(calls) == 1


@pytest.mark.parametrize("loop,scenarios", [("monitoring", 10),
                                            ("prediction", 3)])
def test_each_scenario_document_is_encoded_once(repo_root, tmp_path,
                                                monkeypatch, loop,
                                                scenarios):
    manifest = load_manifest(
        repo_root / "configs" / "demo" / loop / "manifest.json", loop)
    calls = _count_calls(
        monkeypatch, common, "encode",
        lambda value: isinstance(value, dict) and "seed" in value)
    _, manager = run_loop(manifest, loop,
                          journal_path=tmp_path / "journal.jsonl")
    manager.shutdown()
    encoded = Counter(doc["scenario_id"] for doc, in calls)
    assert len(encoded) == scenarios
    assert set(encoded.values()) == {1}, encoded


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
