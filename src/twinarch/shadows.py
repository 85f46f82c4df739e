"""Digital shadows: temporal traces of the physical twin's attributes.

A shadow type names a set of attributes for one entity type; a shadow
is the time-ordered trace of those attributes for one entity. Trace
points live in the Shadows namespace of shared storage under the key
name `<type>.<attribute>`. The manager itself holds one entry per
shadow (its own type, entity, creation time and the newest point of
each attribute), rebuilt from storage by `rebuild_index`, so a journal
replay reconstructs every trace bit-identically. A measurement is
offered only to its entity's shadows, and each one takes it when its
own type covers it.

Out-of-order telemetry is inserted at its timestamp position and
flagged `late`; consumers that want "current" values read the newest
point of each attribute (`latest_points`), which costs the same
however long the traces are. Like the storage under it, the manager
is single-threaded: callers must not share it across threads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from datetime import datetime

from .errors import DuplicateShadow, InvalidQuery
from .storage import Namespace, Query, Record, RecordKey, SharedStorage
from .wire.common import Measurement, Scalar


@dataclass(frozen=True)
class ShadowType:
    name: str
    attribute_set: frozenset[str]
    entity_type: str = "Device"

    def __post_init__(self) -> None:
        if not isinstance(self.attribute_set, frozenset):
            object.__setattr__(self, "attribute_set",
                               frozenset(self.attribute_set))
        if not self.attribute_set:
            raise ValueError(f"shadow type {self.name!r} has no attributes")

    def covers(self, m: Measurement) -> bool:
        return (m.entity_type == self.entity_type
                and m.attribute in self.attribute_set)


@dataclass(frozen=True)
class TracePoint:
    observed_at: datetime
    attribute: str
    value: Scalar
    late: bool = False


def _trace_point(record: Record, attribute: str) -> TracePoint:
    body = record.body if isinstance(record.body, dict) else {}
    return TracePoint(observed_at=record.key.observed_at, attribute=attribute,
                      value=body.get("value"), late=bool(body.get("late")))


@dataclass
class Shadow:
    shadow_id: str
    type: ShadowType
    entity_id: str
    trace: list[TracePoint] = field(default_factory=list)
    created_at: datetime | None = None


@dataclass
class _Entry:
    """One registered shadow, held in memory: what it is and the newest
    point of each attribute, the same point get_shadow would end the
    attribute's series with."""
    shadow_id: str
    type: ShadowType
    entity_id: str
    created_at: datetime
    latest: dict[str, TracePoint] = field(default_factory=dict)


class ShadowManager:
    """Lifecycle and query surface over storage-backed shadow traces."""

    def __init__(self, storage: SharedStorage) -> None:
        self.storage = storage
        self._shadows: dict[str, _Entry] = {}
        # entity_id -> its shadows in shadow-id order: the shadows a
        # measurement of that entity is offered to, in the same order
        # live and after a replay
        self._by_entity: dict[str, list[_Entry]] = {}

    def rebuild_index(self) -> int:
        """Re-attach to shadows already present in storage (e.g. after
        journal replay). Reads descriptors and each re-attached shadow's
        points, for their newest points; writes nothing."""
        count = 0
        for record in self.storage.crud_read(Query(namespace=Namespace.SHADOWS)):
            if not record.key.name.endswith(".__descriptor__"):
                continue
            body = record.body if isinstance(record.body, dict) else {}
            shadow_type = ShadowType(
                name=body["type"],
                attribute_set=frozenset(body["attributes"]),
                entity_type=body["entity_type"])
            if self._attach(shadow_type, record.key.entity_id,
                            record.key.observed_at) is not None:
                count += 1
        return count

    def _attach(self, shadow_type: ShadowType, entity_id: str,
                created_at: datetime) -> _Entry | None:
        """Register a shadow and take its newest points from the points
        already in storage (none for a new shadow); None, registering
        nothing, when its id is taken."""
        shadow_id = f"{shadow_type.name}:{entity_id}"
        if shadow_id in self._shadows:
            return None
        entry = self._shadows[shadow_id] = _Entry(
            shadow_id, shadow_type, entity_id, created_at)
        bisect.insort(self._by_entity.setdefault(entity_id, []), entry,
                      key=lambda e: e.shadow_id)
        # the trace is in time order: the last point of each attribute wins
        for point in self._materialize(entry, None, None).trace:
            entry.latest[point.attribute] = point
        return entry

    # -- lifecycle ------------------------------------------------------------

    def create_shadow(self, shadow_type: ShadowType, entity_id: str,
                      created_at: datetime) -> str:
        """Register a shadow and backfill its trace from measurements."""
        entry = self._attach(shadow_type, entity_id, created_at)
        if entry is None:
            raise DuplicateShadow(
                f"shadow {shadow_type.name}:{entity_id} already exists")
        descriptor = RecordKey(
            namespace=Namespace.SHADOWS, entity_id=entity_id,
            name=f"{shadow_type.name}.__descriptor__",
            observed_at=created_at)
        self.storage.upsert(descriptor, {
            "shadow_id": entry.shadow_id, "type": shadow_type.name,
            "entity_type": shadow_type.entity_type,
            "attributes": sorted(shadow_type.attribute_set)})
        self._backfill(entry)
        return entry.shadow_id

    def _backfill(self, entry: _Entry) -> None:
        prior = self.storage.crud_read(Query(
            namespace=Namespace.MEASUREMENTS, entity_id=entry.entity_id))
        for record in prior:
            body = record.body
            if not isinstance(body, dict):
                continue
            if body.get("entity_type") != entry.type.entity_type:
                continue
            if record.key.name not in entry.type.attribute_set:
                continue
            self._put_point(entry, record.key.name, record.key.observed_at,
                            body.get("value"), late=False)

    # -- updates ---------------------------------------------------------------

    def _put_point(self, entry: _Entry, attribute: str,
                   observed_at: datetime, value: object, late: bool) -> None:
        key = RecordKey(namespace=Namespace.SHADOWS, entity_id=entry.entity_id,
                        name=f"{entry.type.name}.{attribute}",
                        observed_at=observed_at)
        self.storage.upsert(key, {"value": value, "late": late,
                                  "shadow_id": entry.shadow_id})
        current = entry.latest.get(attribute)
        if current is None or observed_at >= current.observed_at:
            entry.latest[attribute] = TracePoint(observed_at, attribute,
                                                 value, late)

    def update_from_measurement(self, m: Measurement) -> list[str]:
        """Append a trace point to every shadow of the measurement's
        entity whose own type covers it."""
        updated = []
        for entry in self._by_entity.get(m.entity_id, ()):
            if not entry.type.covers(m):
                continue
            newest = max((p.observed_at for p in entry.latest.values()),
                         default=None)
            late = newest is not None and m.observed_at < newest
            self._put_point(entry, m.attribute, m.observed_at, m.value,
                            late=late)
            updated.append(entry.shadow_id)
        return updated

    # -- queries -----------------------------------------------------------------

    def get_shadow(self, type_name: str | None = None,
                   entity_id: str | None = None,
                   time_from: datetime | None = None,
                   time_to: datetime | None = None) -> list[Shadow]:
        """Matching shadows with traces sliced to the half-open range."""
        if time_from is not None and time_to is not None and time_from >= time_to:
            raise InvalidQuery(f"empty range: {time_from} >= {time_to}")
        hits = []
        for _, entry in sorted(self._shadows.items()):
            if type_name is not None and entry.type.name != type_name:
                continue
            if entity_id is not None and entry.entity_id != entity_id:
                continue
            hits.append(self._materialize(entry, time_from, time_to))
        return hits

    def latest_points(self, entity_id: str) -> dict[str, TracePoint]:
        """The newest point of each attribute over the entity's shadows,
        from memory: no trace is read. When two shadows hold an
        attribute at the same instant, the later shadow id wins."""
        latest: dict[str, TracePoint] = {}
        for entry in self._by_entity.get(entity_id, ()):
            for attribute, point in entry.latest.items():
                current = latest.get(attribute)
                if (current is None
                        or point.observed_at >= current.observed_at):
                    latest[attribute] = point
        return latest

    def _materialize(self, entry: _Entry, time_from: datetime | None,
                     time_to: datetime | None) -> Shadow:
        prefix = f"{entry.type.name}."
        records = self.storage.crud_read(Query(
            namespace=Namespace.SHADOWS, entity_id=entry.entity_id,
            time_from=time_from, time_to=time_to))
        points = []
        for record in records:
            record_name = record.key.name
            if not record_name.startswith(prefix):
                continue
            attribute = record_name[len(prefix):]
            if attribute == "__descriptor__":
                continue
            points.append(_trace_point(record, attribute))
        points.sort(key=lambda p: (p.observed_at, p.attribute))
        return Shadow(shadow_id=entry.shadow_id, type=entry.type,
                      entity_id=entry.entity_id, trace=points,
                      created_at=entry.created_at)
