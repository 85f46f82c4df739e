"""Shared storage: CRUD semantics, query oracle, journal replay and line
encoding, and a model-based check of the index against a plain dict."""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from datetime import datetime, timedelta, timezone, tzinfo
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from twinarch.clock import format_rfc3339
from twinarch.configs import load_manifest
from twinarch.errors import (DuplicateKey, InvalidQuery, JournalCorrupt,
                             NotFound)
from twinarch.orchestrator import run_loop
from twinarch.storage import (Namespace, Query, Record, RecordKey,
                              SharedStorage)

from conftest import ts


def key(entity="e1", name="flow", t=0, ns=Namespace.MEASUREMENTS):
    return RecordKey(namespace=ns, entity_id=entity, name=name,
                     observed_at=ts(t))


# --- CRUD ------------------------------------------------------------------

def test_create_read_update_delete():
    store = SharedStorage()
    k = key()
    assert store.crud_create(k, {"value": 1}) == 1
    with pytest.raises(DuplicateKey):
        store.crud_create(k, {"value": 2})
    assert store.crud_update(k, {"value": 2}) == 2
    (rec,) = store.crud_read(Query(namespace=Namespace.MEASUREMENTS))
    assert rec.body == {"value": 2} and rec.revision == 2
    store.crud_delete(k)
    assert store.crud_read(Query(namespace=Namespace.MEASUREMENTS)) == []
    with pytest.raises(NotFound):
        store.crud_update(k, {})
    with pytest.raises(NotFound):
        store.crud_delete(k)


def test_upsert_creates_then_updates():
    store = SharedStorage()
    k = key()
    assert store.upsert(k, 1) == 1
    assert store.upsert(k, 2) == 2
    assert store.count(Namespace.MEASUREMENTS) == 1


def test_each_write_hashes_its_key_twice(tmp_path, monkeypatch):
    # one lookup and one store per commit; the generated
    # `RecordKey.__hash__` is Python code over a tuple with a datetime
    calls = 0
    original = RecordKey.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(RecordKey, "__hash__", counted)
    store = SharedStorage(tmp_path / "journal.jsonl")

    def hashes(write, k):
        nonlocal calls
        calls = 0
        write(k, {"value": 1})
        return calls

    assert hashes(store.upsert, key(t=0)) == 2          # a new key
    assert hashes(store.upsert, key(t=0)) == 2          # the next revision
    assert hashes(store.crud_create, key(t=1)) == 2
    assert hashes(store.crud_update, key(t=1)) == 2
    store.close()


def test_query_validation():
    with pytest.raises(InvalidQuery):
        Query(namespace=Namespace.STATES, time_from=ts(5), time_to=ts(5))
    with pytest.raises(InvalidQuery):
        Query(namespace=Namespace.STATES, limit=0)


def test_read_order_is_time_then_entity_then_name():
    store = SharedStorage()
    # inserted out of order on every axis
    for entity, name, t in [("b", "y", 1), ("a", "y", 1), ("a", "x", 1),
                            ("z", "z", 0)]:
        store.crud_create(key(entity, name, t), 0)
    got = [(r.key.entity_id, r.key.name, r.key.observed_at)
           for r in store.crud_read(Query(namespace=Namespace.MEASUREMENTS))]
    assert got == [("z", "z", ts(0)), ("a", "x", ts(1)), ("a", "y", ts(1)),
                   ("b", "y", ts(1))]


# --- query oracle ----------------------------------------------------------

_entities = st.sampled_from(["e1", "e2", "e3", "e4"])
_names = st.sampled_from(["flow", "speed", "density"])
_times = st.integers(min_value=0, max_value=20)
_keys = st.builds(key, entity=_entities, name=_names, t=_times)


def brute_force(records: dict[RecordKey, Record], q: Query) -> list[Record]:
    """Independent reference: filter field by field, sort, then limit."""
    hits = []
    for k, rec in records.items():
        if k.namespace is not q.namespace:
            continue
        if q.entity_id is not None and k.entity_id != q.entity_id:
            continue
        if q.attribute is not None and k.name != q.attribute:
            continue
        if q.time_from is not None and k.observed_at < q.time_from:
            continue
        if q.time_to is not None and k.observed_at >= q.time_to:
            continue
        hits.append(rec)
    hits.sort(key=lambda r: (r.key.observed_at, r.key.entity_id, r.key.name))
    return hits if q.limit is None else hits[:q.limit]


@given(
    keys=st.lists(_keys, min_size=0, max_size=40, unique=True),
    entity=st.one_of(st.none(), _entities),
    attribute=st.one_of(st.none(), _names),
    bounds=st.one_of(
        st.none(),
        st.tuples(_times, _times).map(sorted).filter(lambda p: p[0] < p[1])),
    limit=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
)
def test_read_matches_brute_force(keys, entity, attribute, bounds, limit):
    store = SharedStorage()
    shadow: dict[RecordKey, Record] = {}
    for i, k in enumerate(keys):
        store.crud_create(k, {"i": i})
        shadow[k] = Record(key=k, body={"i": i}, revision=1)
    q = Query(namespace=Namespace.MEASUREMENTS, entity_id=entity,
              attribute=attribute,
              time_from=ts(bounds[0]) if bounds else None,
              time_to=ts(bounds[1]) if bounds else None,
              limit=limit)
    assert store.crud_read(q) == brute_force(shadow, q)


def test_time_bounds_are_inclusive_exclusive():
    store = SharedStorage()
    for t in range(5):
        store.crud_create(key(t=t), t)
    got = store.crud_read(Query(namespace=Namespace.MEASUREMENTS,
                                time_from=ts(1), time_to=ts(3)))
    assert [r.body for r in got] == [1, 2]


# --- journal and replay ----------------------------------------------------

def test_replay_reconstructs_live_state(tmp_path, epoch):
    journal = tmp_path / "journal.jsonl"
    store = SharedStorage(journal_path=journal, clock=lambda: epoch)
    store.crud_create(key("a", t=0), {"v": 1})
    store.crud_create(key("b", t=1), {"v": 2})
    store.crud_update(key("a", t=0), {"v": 10})
    store.crud_delete(key("b", t=1))
    store.close()

    replayed = SharedStorage.replay(journal)
    assert {(r.key, json.dumps(r.body), r.revision)
            for r in replayed.all_records()} == \
           {(r.key, json.dumps(r.body), r.revision)
            for r in store.all_records()}
    (rec,) = replayed.crud_read(Query(namespace=Namespace.MEASUREMENTS))
    assert rec.body == {"v": 10} and rec.revision == 2


def test_journal_lines_are_json_with_tombstone_ops(tmp_path, epoch):
    journal = tmp_path / "journal.jsonl"
    store = SharedStorage(journal_path=journal, clock=lambda: epoch)
    store.crud_create(key(), 1)
    store.crud_delete(key())
    store.close()
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert len(lines) == 2
    assert "op" not in lines[0]
    assert lines[1]["op"] == "delete"
    assert lines[0]["key"]["namespace"] == "Measurements"
    assert lines[0]["committed_at"] == "2024-12-10T12:00:00Z"


def test_replay_skips_blank_lines_and_does_not_rejournal(tmp_path, epoch):
    journal = tmp_path / "journal.jsonl"
    store = SharedStorage(journal_path=journal, clock=lambda: epoch)
    store.crud_create(key(), 1)
    store.close()
    journal.write_text(journal.read_text() + "\n\n")
    replayed = SharedStorage.replay(journal)
    assert replayed.count() == 1
    replayed.crud_create(key("extra"), 2)     # must not append to the file
    assert sum(1 for l in journal.read_text().splitlines() if l.strip()) == 1


def _state_of(lines: list[bytes]) -> dict:
    """What a journal's lines leave in the store, folded without the
    store: key text -> (body, revision)."""
    state = {}
    for line in lines:
        doc = json.loads(line)
        name = json.dumps(doc["key"], sort_keys=True)
        if doc.get("op") == "delete":
            state.pop(name, None)
        else:
            state[name] = (doc["body"], doc["revision"])
    return state


def test_every_byte_prefix_replays_its_complete_lines(repo_root, tmp_path,
                                                      caplog):
    # the demo monitoring run cut to 2 ticks (13 lines, every namespace
    # it writes and a second revision), so its ~4,600 prefixes replay in
    # about a second
    journal = tmp_path / "journal.jsonl"
    manifest = load_manifest(
        repo_root / "configs" / "demo" / "monitoring" / "manifest.json")
    _, manager = run_loop(manifest, "monitoring", ticks=2,
                          journal_path=journal)
    manager.shutdown()
    data = journal.read_bytes()
    lines = data.splitlines()
    expected = [_state_of(lines[:count]) for count in range(len(lines) + 1)]
    prefix = tmp_path / "prefix.jsonl"
    prefix.write_bytes(data)
    with caplog.at_level(logging.WARNING, logger="twinarch.storage"):
        for size in range(len(data), -1, -1):
            os.truncate(prefix, size)
            replayed = SharedStorage.replay(prefix)
            assert {json.dumps(r.key.to_json(), sort_keys=True):
                    (r.body, r.revision) for r in replayed.all_records()} \
                == expected[data.count(b"\n", 0, size)], size
    # one warning per prefix that ends inside a line
    assert len(caplog.records) == len(data) - len(lines)
    assert caplog.records[-1].getMessage() == \
        f"{prefix}: dropped a torn final line of 1 bytes"


@pytest.mark.parametrize("line", [
    "{oops",
    "[1]",
    '{"key": 5, "body": 1, "revision": 1}',
    '{"body": 1, "revision": 1}',
    '{"key": {"namespace": "Nope", "entity_id": "e1", "name": "n",'
    ' "observed_at": "2024-12-10T12:00:00Z"}, "body": 1, "revision": 1}',
    '{"key": {"namespace": "Measurements", "entity_id": ["e1"],'
    ' "name": "n", "observed_at": "2024-12-10T12:00:00Z"}, "body": 1,'
    ' "revision": 1}',
    '{"key": {"namespace": "Measurements", "entity_id": "e1", "name": "n",'
    ' "observed_at": "yesterday"}, "body": 1, "revision": 1}',
    '{"key": {"namespace": "Measurements", "entity_id": "e1", "name": "n",'
    ' "observed_at": "2024-12-10T12:00:00Z"}, "body": 1, "revision": 7}',
], ids=["not-json", "not-object", "key-not-object", "no-key",
        "unknown-namespace", "unhashable-entity", "bad-stamp",
        "revision-out-of-sequence"])
@pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
def test_a_bad_complete_line_names_its_number(tmp_path, epoch, line, last):
    journal = tmp_path / "journal.jsonl"
    store = SharedStorage(journal_path=journal, clock=lambda: epoch)
    store.crud_create(key("a"), 1)
    store.close()
    tail = "" if last else journal.read_text()
    journal.write_text(journal.read_text() + line + "\n" + tail)
    with pytest.raises(JournalCorrupt, match=f"{journal}: line 2: "):
        SharedStorage.replay(journal)


# --- journal line encoding -------------------------------------------------

def reference_line(record: Record, committed_at: datetime,
                   op: str | None = None) -> str:
    """The line as one generic encoder call writes it."""
    line: dict = {"key": record.key.to_json(), "body": record.body,
                  "revision": record.revision,
                  "committed_at": format_rfc3339(committed_at)}
    if op is not None:
        line["op"] = op
    return json.dumps(line, sort_keys=True) + "\n"


_text = st.text(max_size=6)     # non-ASCII and escapes included
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_any_number = (st.floats() | st.integers() | st.booleans()
               | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))


@st.composite
def _state_series(draw) -> list:
    """One-key dicts sharing a name, sometimes broken: a value that is
    not a finite float, an extra key or another name in one state."""
    name = draw(_text)
    values = draw(st.lists(_finite, min_size=1, max_size=6)
                  | st.lists(_any_number, max_size=6))
    series = [{name: value} for value in values]
    if series and draw(st.booleans()):
        state = draw(st.sampled_from(series))
        if draw(st.booleans()):
            state.clear()
        state[draw(_text)] = draw(_finite)
    return series


_bodies = (_json_values
           | st.dictionaries(_text, _state_series() | _json_values,
                             max_size=4)
           | st.dictionaries(st.integers(), _state_series(), max_size=2))
_SERIES = [{"density": 0.25}, {"density": -0.0}, {"density": 1e-07}]


@given(writes=st.lists(st.tuples(
    st.builds(key, entity=_text, name=_text, t=st.integers(0, 3),
              ns=st.sampled_from(Namespace)),
    _bodies, st.integers(0, 3), st.booleans()), min_size=1, max_size=6))
@example(writes=[(key(ns=Namespace.SIM_RESULTS), body, 0, False)
                 for body in (
                     {"series": _SERIES, "objective": 0.0, "name": "s\u00e9"},
                     {"series": _SERIES + [{"density": math.nan}]},
                     {"series": _SERIES + [{"density": 1}]},
                     {"series": _SERIES + [{"density": True}]},
                     {"series": _SERIES + [{"density": 0.5, "flow": 1.0}]},
                     {"series": [], "b": [{}]})])
def test_journal_line_is_the_generic_encoding(writes):
    """Each written line is `json.dumps(line, sort_keys=True)`, for
    writes, rewrites and deletes."""
    expected = []
    now = [ts(0)]
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        store = SharedStorage(journal_path=journal, clock=lambda: now[0])
        for k, body, committed, delete in writes:
            now[0] = ts(committed)
            record = Record(key=k, body=body, revision=store.upsert(k, body))
            expected.append(reference_line(record, now[0]))
            if delete:
                store.crud_delete(k)
                expected.append(reference_line(record, now[0], "delete"))
        store.close()
        assert journal.read_text(encoding="utf-8") == "".join(expected)


class _FallBack(tzinfo):
    """A zone whose clocks go back an hour at every wall time: fold 0
    reads UTC+1, fold 1 reads UTC."""

    def utcoffset(self, dt):
        return timedelta(hours=0 if dt.fold else 1)

    def dst(self, dt):
        return timedelta(0)


def test_journal_stamps_name_the_instant(tmp_path):
    journal = tmp_path / "journal.jsonl"
    now = [ts(0)]
    store = SharedStorage(journal_path=journal, clock=lambda: now[0])
    plus_two = ts(0).astimezone(timezone(timedelta(hours=2)))
    zone = _FallBack()
    wall = datetime(2024, 12, 10, 13, 0, tzinfo=zone)
    # one instant at two offsets, then one wall time at two folds
    for i, instant in enumerate([ts(0), plus_two, wall,
                                 wall.replace(fold=1)]):
        now[0] = instant
        store.crud_create(key(name=f"n{i}", t=0), i)
        store.crud_create(RecordKey(Namespace.STATES, "e1", f"n{i}",
                                    instant), i)
    naive = datetime(2024, 12, 10, 12, 0)
    with pytest.raises(ValueError):
        store.crud_create(RecordKey(Namespace.FEEDBACK, "e1", "n", naive), 0)
    now[0] = naive
    with pytest.raises(ValueError):
        store.crud_create(key("e2"), 0)
    store.close()
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [line["committed_at"] for line in lines[::2]] == [
        "2024-12-10T12:00:00Z", "2024-12-10T12:00:00Z",
        "2024-12-10T12:00:00Z", "2024-12-10T13:00:00Z"]
    assert [line["key"]["observed_at"] for line in lines[1::2]] == [
        "2024-12-10T12:00:00Z", "2024-12-10T12:00:00Z",
        "2024-12-10T12:00:00Z", "2024-12-10T13:00:00Z"]


# --- model-based check of the index ----------------------------------------

_machine_namespaces = st.sampled_from([Namespace.MEASUREMENTS,
                                       Namespace.STATES])
_machine_entities = st.sampled_from(["e1", "e2", "e3"])
_machine_names = st.sampled_from(["a", "b", "c"])
_machine_times = st.integers(min_value=0, max_value=8)
_machine_keys = st.builds(key, entity=_machine_entities, name=_machine_names,
                          t=_machine_times, ns=_machine_namespaces)


def _model_order(k: RecordKey) -> tuple:
    return (k.observed_at, k.entity_id, k.name)


class StorageMachine(RuleBasedStateMachine):
    """SharedStorage against a dict of key -> (body, revision); reads
    filter and sort the dict."""

    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.journal = Path(self._tmp.name) / "journal.jsonl"
        self.store = SharedStorage(journal_path=self.journal,
                                   clock=lambda: ts(0))
        self.model: dict[RecordKey, tuple[object, int]] = {}

    def _model_update(self, k: RecordKey, body: object) -> int:
        revision = self.model[k][1] + 1
        self.model[k] = (body, revision)
        return revision

    @rule(k=_machine_keys, body=st.integers())
    def create(self, k, body):
        if k in self.model:
            with pytest.raises(DuplicateKey):
                self.store.crud_create(k, body)
            return
        assert self.store.crud_create(k, body) == 1
        self.model[k] = (body, 1)

    @rule(k=_machine_keys, body=st.integers())
    def update(self, k, body):
        if k not in self.model:
            with pytest.raises(NotFound):
                self.store.crud_update(k, body)
            return
        assert self.store.crud_update(k, body) == self._model_update(k, body)

    @rule(k=_machine_keys, body=st.integers())
    def upsert(self, k, body):
        if k in self.model:
            expected = self._model_update(k, body)
        else:
            self.model[k] = (body, 1)
            expected = 1
        assert self.store.upsert(k, body) == expected

    @rule(k=_machine_keys)
    def delete(self, k):
        if k not in self.model:
            with pytest.raises(NotFound):
                self.store.crud_delete(k)
            return
        self.store.crud_delete(k)
        del self.model[k]

    @rule()
    def reopen(self):
        # a store opened on its journal holds what it held, and the
        # rules above check that later writes continue its revisions
        self.store.close()
        self.store = SharedStorage(journal_path=self.journal,
                                   clock=lambda: ts(0))
        assert {r.key: (r.body, r.revision)
                for r in self.store.all_records()} == self.model

    @rule(ns=_machine_namespaces,
          entity=st.one_of(st.none(), _machine_entities),
          attribute=st.one_of(st.none(), _machine_names),
          bounds=st.one_of(st.none(), st.tuples(
              _machine_times, _machine_times).filter(lambda p: p[0] < p[1])),
          limit=st.one_of(st.none(), st.integers(min_value=1, max_value=5)))
    def read(self, ns, entity, attribute, bounds, limit):
        q = Query(namespace=ns, entity_id=entity, attribute=attribute,
                  time_from=ts(bounds[0]) if bounds else None,
                  time_to=ts(bounds[1]) if bounds else None, limit=limit)
        expected = sorted(
            (k for k in self.model
             if k.namespace is ns
             and (entity is None or k.entity_id == entity)
             and (attribute is None or k.name == attribute)
             and (bounds is None or ts(bounds[0]) <= k.observed_at
                  < ts(bounds[1]))),
            key=_model_order)[:limit]
        got = self.store.crud_read(q)
        assert [(r.key, r.body, r.revision) for r in got] == [
            (k, *self.model[k]) for k in expected]

    @rule(ns=_machine_namespaces, entity=_machine_entities)
    def latest(self, ns, entity):
        candidates = sorted(
            (k for k in self.model
             if k.namespace is ns and k.entity_id == entity),
            key=_model_order)
        got = self.store.latest(ns, entity)
        if not candidates:
            assert got is None
        else:
            assert (got.key, got.body, got.revision) == (
                candidates[-1], *self.model[candidates[-1]])

    @rule(ns=st.one_of(st.none(), _machine_namespaces))
    def count(self, ns):
        assert self.store.count(ns) == sum(
            1 for k in self.model if ns is None or k.namespace is ns)

    def teardown(self) -> None:
        try:
            self.store.close()
            live = {r.key: (r.body, r.revision)
                    for r in self.store.all_records()}
            assert live == self.model
            replayed = SharedStorage.replay(self.journal)
            assert {r.key: (r.body, r.revision)
                    for r in replayed.all_records()} == live
            for ns in (Namespace.MEASUREMENTS, Namespace.STATES):
                assert replayed.crud_read(Query(namespace=ns)) == \
                    self.store.crud_read(Query(namespace=ns))
        finally:
            self._tmp.cleanup()


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(max_examples=60,
                                       stateful_step_count=60,
                                       deadline=None)
