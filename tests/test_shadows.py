"""Shadow traces: lifecycle, late points, slicing, replay equality."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from twinarch.errors import DuplicateShadow, InvalidQuery
from twinarch.shadows import ShadowManager, ShadowType, TracePoint
from twinarch.storage import SharedStorage
from twinarch.wire import Measurement

from conftest import ts

TRAFFIC = ShadowType(name="traffic", attribute_set=frozenset({"flow", "speed"}),
                     entity_type="Sensor")


def measurement(attr="flow", value=1, t=0, entity="e1", etype="Sensor"):
    return Measurement(entity, etype, attr, value, ts(t))


def manager_with_shadow(storage=None):
    storage = storage or SharedStorage()
    mgr = ShadowManager(storage)
    mgr.create_shadow(TRAFFIC, "e1", created_at=ts(0))
    return mgr


def test_update_appends_covered_measurements_only():
    mgr = manager_with_shadow()
    assert mgr.update_from_measurement(measurement("flow", 10, t=1)) == [
        "traffic:e1"]
    assert mgr.update_from_measurement(measurement("other", 1, t=1)) == []
    assert mgr.update_from_measurement(
        measurement("flow", 1, t=1, etype="Robot")) == []
    assert mgr.update_from_measurement(
        measurement("flow", 1, t=1, entity="e2")) == []
    (shadow,) = mgr.get_shadow(type_name="traffic")
    assert shadow.trace == [TracePoint(ts(1), "flow", 10)]


def test_duplicate_shadow_rejected():
    mgr = manager_with_shadow()
    with pytest.raises(DuplicateShadow):
        mgr.create_shadow(TRAFFIC, "e1", created_at=ts(5))


def test_create_backfills_from_prior_measurements():
    storage = SharedStorage()
    from twinarch.adapters import AdapterConfig, Direction, P2DAdapter
    from twinarch.wire import Source
    adapter = P2DAdapter(AdapterConfig(Direction.P2D, Source.ULTRALIGHT,
                                       entity_type="Sensor"), storage)
    adapter.ingest("flow|10", "e1", ts(1))
    adapter.ingest("flow|20", "e1", ts(2))
    mgr = ShadowManager(storage)
    mgr.create_shadow(TRAFFIC, "e1", created_at=ts(3))
    (shadow,) = mgr.get_shadow(type_name="traffic")
    assert [(p.observed_at, p.value) for p in shadow.trace] == [
        (ts(1), 10), (ts(2), 20)]


def test_out_of_order_point_is_flagged_late_and_sorted_in():
    mgr = manager_with_shadow()
    mgr.update_from_measurement(measurement("flow", 30, t=5))
    mgr.update_from_measurement(measurement("flow", 10, t=2))
    (shadow,) = mgr.get_shadow(type_name="traffic")
    assert [(p.observed_at, p.value, p.late) for p in shadow.trace] == [
        (ts(2), 10, True), (ts(5), 30, False)]
    assert mgr.latest_points("e1")["flow"].value == 30


def test_get_shadow_slices_half_open_range():
    mgr = manager_with_shadow()
    for t in range(5):
        mgr.update_from_measurement(measurement("flow", t, t=t))
    (shadow,) = mgr.get_shadow(type_name="traffic", time_from=ts(1),
                               time_to=ts(3))
    assert [p.value for p in shadow.trace] == [1, 2]
    with pytest.raises(InvalidQuery):
        mgr.get_shadow(time_from=ts(3), time_to=ts(3))


def test_get_shadow_filters_by_type_entity_and_id():
    mgr = manager_with_shadow()
    other = ShadowType("battery", frozenset({"charge"}), "Robot")
    mgr.create_shadow(other, "r1", created_at=ts(0))
    assert len(mgr.get_shadow()) == 2
    assert [s.shadow_id for s in mgr.get_shadow(type_name="battery")] == [
        "battery:r1"]
    assert [s.shadow_id for s in mgr.get_shadow(entity_id="e1")] == [
        "traffic:e1"]
    assert mgr.get_shadow(name="traffic:e1")[0].entity_id == "e1"
    assert mgr.get_shadow(entity_id="nobody") == []


_arrivals = st.lists(
    st.tuples(st.sampled_from(["flow", "speed"]),
              st.integers(0, 15),
              st.integers(-100, 100)),
    min_size=0, max_size=25)


@given(arrivals=_arrivals)
def test_trace_matches_brute_force_model(arrivals):
    mgr = manager_with_shadow()
    model: dict[tuple[int, str], tuple[int, bool]] = {}
    newest: int | None = None
    for attr, t, value in arrivals:
        late = newest is not None and t < newest
        mgr.update_from_measurement(measurement(attr, value, t=t))
        model[(t, attr)] = (value, late)
        newest = t if newest is None else max(newest, t)
    (shadow,) = mgr.get_shadow(type_name="traffic")
    expected = [TracePoint(ts(t), attr, value, late)
                for (t, attr), (value, late) in sorted(model.items())]
    assert shadow.trace == expected


@given(arrivals=_arrivals)
def test_journal_replay_reproduces_traces_bit_for_bit(arrivals):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        storage = SharedStorage(journal_path=journal, clock=lambda: ts(0))
        mgr = ShadowManager(storage)
        mgr.create_shadow(TRAFFIC, "e1", created_at=ts(0))
        for attr, t, value in arrivals:
            mgr.update_from_measurement(measurement(attr, value, t=t))
        live = mgr.get_shadow(type_name="traffic")
        storage.close()

        replayed = ShadowManager(SharedStorage.replay(journal))
        assert replayed.rebuild_index() == 1
        assert replayed.get_shadow(type_name="traffic") == live


def test_late_flag_after_replay_matches_the_live_store(tmp_path):
    journal = tmp_path / "journal.jsonl"
    storage = SharedStorage(journal_path=journal, clock=lambda: ts(0))
    live = manager_with_shadow(storage)
    for t in (1, 2, 5):
        live.update_from_measurement(measurement("flow", t, t=t))
    storage.close()

    replayed = ShadowManager(SharedStorage.replay(journal))
    assert replayed.rebuild_index() == 1
    for mgr in (live, replayed):
        mgr.update_from_measurement(measurement("speed", 7, t=3))   # late
        mgr.update_from_measurement(measurement("flow", 8, t=6))    # fresh
    late = {mgr: [(p.observed_at, p.attribute, p.late)
                  for p in mgr.get_shadow()[0].trace]
            for mgr in (live, replayed)}
    assert late[replayed] == late[live]
    assert (ts(3), "speed", True) in late[live]
    assert (ts(6), "flow", False) in late[live]


SPEED = ShadowType(name="motion", attribute_set=frozenset({"speed", "heading"}),
                   entity_type="Sensor")


@given(arrivals=_arrivals)
def test_latest_points_match_the_newest_point_of_each_trace(arrivals):
    mgr = manager_with_shadow()
    mgr.create_shadow(SPEED, "e1", created_at=ts(0))
    mgr.create_shadow(TRAFFIC, "e2", created_at=ts(0))
    for attr, t, value in arrivals:
        mgr.update_from_measurement(measurement(attr, value, t=t))
        mgr.update_from_measurement(measurement(attr, -value, t=t,
                                                entity="e2"))
    # reference: walk every materialized trace, later shadows win ties
    expected: dict[str, TracePoint] = {}
    for shadow in mgr.get_shadow(entity_id="e1"):
        for point in shadow.trace:
            current = expected.get(point.attribute)
            if current is None or point.observed_at >= current.observed_at:
                expected[point.attribute] = point
    assert mgr.latest_points("e1") == expected


FLOW_ONLY = ShadowType(name="traffic", attribute_set=frozenset({"flow"}),
                       entity_type="Sensor")
SPEED_ONLY = ShadowType(name="traffic", attribute_set=frozenset({"speed"}),
                        entity_type="Sensor")


@pytest.mark.parametrize("replayed", [False, True], ids=["live", "replayed"])
def test_shadows_sharing_a_type_name_take_only_their_own_attributes(
        tmp_path, replayed):
    journal = tmp_path / "journal.jsonl"
    storage = SharedStorage(journal_path=journal, clock=lambda: ts(0))
    mgr = ShadowManager(storage)
    mgr.create_shadow(FLOW_ONLY, "e1", created_at=ts(0))
    mgr.create_shadow(SPEED_ONLY, "e2", created_at=ts(0))
    storage.close()
    if replayed:
        mgr = ShadowManager(SharedStorage.replay(journal))
        assert mgr.rebuild_index() == 2
    updated = {(entity, attr): mgr.update_from_measurement(
                   measurement(attr, 1, t=1, entity=entity))
               for entity in ("e1", "e2") for attr in ("flow", "speed")}
    assert updated == {("e1", "flow"): ["traffic:e1"], ("e1", "speed"): [],
                       ("e2", "flow"): [], ("e2", "speed"): ["traffic:e2"]}
    assert {s.shadow_id: (s.type, [p.attribute for p in s.trace])
            for s in mgr.get_shadow()} == {
        "traffic:e1": (FLOW_ONLY, ["flow"]),
        "traffic:e2": (SPEED_ONLY, ["speed"])}
    assert set(mgr.latest_points("e1")) == {"flow"}
    assert set(mgr.latest_points("e2")) == {"speed"}


def test_shadows_created_at_one_instant_update_in_id_order(tmp_path):
    # every manifest creates all its shadow types at tick 0; a replay
    # re-registers them in descriptor read order, not creation order
    journal = tmp_path / "journal.jsonl"
    storage = SharedStorage(journal_path=journal)
    live = ShadowManager(storage)
    for name in ("traffic", "motion"):
        live.create_shadow(ShadowType(name, frozenset({"flow"}), "Sensor"),
                           "e1", created_at=ts(0))
    storage.close()
    replayed = ShadowManager(SharedStorage.replay(journal))
    assert replayed.rebuild_index() == 2
    for mgr in (live, replayed):
        assert mgr.update_from_measurement(measurement("flow", 1, t=1)) == [
            "motion:e1", "traffic:e1"]


class _ShadowModel:
    """Dict model of a shadow manager: each shadow takes a measurement
    of its own entity when its own type covers it."""

    def __init__(self) -> None:
        # shadow id -> (its type, its entity)
        self.types: dict[str, tuple[ShadowType, str]] = {}
        self.points: dict[str, dict[tuple, tuple]] = {}

    def create(self, shadow_type: ShadowType, entity: str) -> bool:
        shadow_id = f"{shadow_type.name}:{entity}"
        if shadow_id in self.types:
            return False
        self.types[shadow_id] = (shadow_type, entity)
        self.points[shadow_id] = {}
        return True

    def update(self, m: Measurement) -> list[str]:
        updated = []
        for shadow_id, (shadow_type, entity) in sorted(self.types.items()):
            if entity != m.entity_id or not shadow_type.covers(m):
                continue
            points = self.points[shadow_id]
            newest = max((t for t, _ in points), default=None)
            late = newest is not None and m.observed_at < newest
            points[(m.observed_at, m.attribute)] = (m.value, late)
            updated.append(shadow_id)
        return updated

    def trace(self, shadow_id: str) -> list[TracePoint]:
        return [TracePoint(t, attr, value, late) for (t, attr), (value, late)
                in sorted(self.points[shadow_id].items())]

    def latest_points(self, entity: str) -> dict[str, TracePoint]:
        latest: dict[str, TracePoint] = {}
        for shadow_id in sorted(self.types):
            if self.types[shadow_id][1] != entity:
                continue
            for point in self.trace(shadow_id):
                current = latest.get(point.attribute)
                if current is None or point.observed_at >= current.observed_at:
                    latest[point.attribute] = point
        return latest


_ENTITIES = ["e1", "e2"]
_registrations = st.lists(
    st.builds(lambda name, entity, attrs, etype: (
                  ShadowType(name, frozenset(attrs), etype), entity),
              st.sampled_from(["a", "b"]), st.sampled_from(_ENTITIES),
              st.sets(st.sampled_from(["x", "y", "z"]), min_size=1),
              st.sampled_from(["Sensor", "Robot"])),
    min_size=1, max_size=6)
_measurements = st.lists(
    st.builds(lambda entity, etype, attr, t, value: Measurement(
                  entity, etype, attr, value, ts(t)),
              st.sampled_from(_ENTITIES), st.sampled_from(["Sensor", "Robot"]),
              st.sampled_from(["x", "y", "z"]), st.integers(0, 10),
              st.integers(-50, 50)),
    max_size=30)


@given(registrations=_registrations, before=_measurements,
       after=_measurements)
def test_live_and_replayed_managers_match_a_dict_model(registrations, before,
                                                       after):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        storage = SharedStorage(journal_path=journal, clock=lambda: ts(0))
        live, model = ShadowManager(storage), _ShadowModel()
        for shadow_type, entity in registrations:
            if model.create(shadow_type, entity):
                live.create_shadow(shadow_type, entity, created_at=ts(0))
            else:
                with pytest.raises(DuplicateShadow):
                    live.create_shadow(shadow_type, entity, created_at=ts(0))
        for m in before:
            assert live.update_from_measurement(m) == model.update(m)
        storage.close()

        replayed = ShadowManager(SharedStorage.replay(journal))
        assert replayed.rebuild_index() == len(model.types)
        for m in after:
            expected = model.update(m)
            assert live.update_from_measurement(m) == expected
            assert replayed.update_from_measurement(m) == expected
        expected_shadows = [(shadow_id, model.types[shadow_id][0],
                             model.trace(shadow_id))
                            for shadow_id in sorted(model.types)]
        for mgr in (live, replayed):
            assert [(s.shadow_id, s.type, s.trace)
                    for s in mgr.get_shadow()] == expected_shadows
            for entity in _ENTITIES:
                assert mgr.latest_points(entity) == model.latest_points(entity)
