"""Shared-data plane: the repository at the center of the twin.

One in-memory ordered map with an optional append-only JSON-lines
journal for persistence and replay. Producers and consumers never talk
to each other directly; everything flows through here (shared-data
style). The store is single-threaded: every call runs on the caller's
thread, and callers must not share a store across threads.

Reads go through an index: one key list per (namespace, entity_id),
sorted by (observed_at, name) and kept sorted with `bisect` on every
create and delete. What a read costs, for k records returned:

* `crud_read` of one entity: a bisect slice of its time range,
  O(log n + k), plus a pass over the slice when it names an attribute.
* `crud_read` across entities: the slices of every entity of the
  namespace merged in (observed_at, entity_id, name) order,
  O(n_entities + k log n_entities).
* `latest(namespace, entity_id)`: the entity's last key, O(1).

A new key costs one comparison and an append when it arrives in time
order, a binary search and a list insert when it arrives late.

Journal line format, one JSON object per line:

    {"key": {"namespace", "entity_id", "name", "observed_at"},
     "body": ..., "revision": n, "committed_at": "..."}

Deletions add `"op": "delete"` to the same shape; lines without `op`
are writes. A line's bytes are exactly `json.dumps(line,
sort_keys=True)`: the line's fixed parts around the body's text from
`wire.common.encode`, the one encoder the tracer digests with too. A
body written `Encoded` is kept as its value and journaled as its text,
which may be spliced from texts encoded once, under the same rule.
Its stamps are `clock` text, which the lines of one tick share.

A store opened on an existing journal replays it before it appends,
so revisions continue from the journal's. A final line without its
newline was torn by a crash mid-write: replay skips it and an open
cuts it off, each with a warning.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from .clock import format_rfc3339, parse_rfc3339
from .errors import DuplicateKey, InvalidQuery, JournalCorrupt, NotFound
from .wire.common import Encoded, encode

log = logging.getLogger("twinarch.storage")

_TORN = "%s: dropped a torn final line of %d bytes"


class Namespace(Enum):
    MEASUREMENTS = "Measurements"
    SHADOWS = "Shadows"
    SIM_RESULTS = "SimResults"
    STATES = "States"
    PLANS = "Plans"
    FEEDBACK = "Feedback"

    # members are singletons; `Enum.__hash__` is Python code that
    # every `RecordKey` hash would run
    __hash__ = object.__hash__


@dataclass(frozen=True)
class RecordKey:
    namespace: Namespace
    entity_id: str
    name: str                 # attribute or record name within the entity
    observed_at: datetime
    def to_json(self) -> dict:
        return {"namespace": self.namespace.value,
                "entity_id": self.entity_id,
                "name": self.name,
                "observed_at": format_rfc3339(self.observed_at)}


@dataclass(frozen=True)
class Record:
    key: RecordKey
    body: object              # canonical JSON value
    revision: int


@dataclass(frozen=True)
class Query:
    namespace: Namespace
    entity_id: str | None = None
    attribute: str | None = None
    time_from: datetime | None = None   # inclusive
    time_to: datetime | None = None     # exclusive
    limit: int | None = None

    def __post_init__(self) -> None:
        if (self.time_from is not None and self.time_to is not None
                and self.time_from >= self.time_to):
            raise InvalidQuery(
                f"empty range: {self.time_from} >= {self.time_to}")
        if self.limit is not None and self.limit < 1:
            raise InvalidQuery(f"limit must be >= 1, got {self.limit}")


_quote = json.encoder.encode_basestring_ascii
_NAMESPACE_TEXT = {ns: _quote(ns.value) for ns in Namespace}
_NAMESPACES = {ns.value: ns for ns in Namespace}


class SharedStorage:
    """In-memory record store with journal and revisions."""

    def __init__(self, journal_path: str | Path | None = None,
                 clock: Callable[[], datetime] | None = None) -> None:
        self._records: dict[RecordKey, Record] = {}
        # namespace -> entity_id -> [(observed_at, name, key)], sorted
        self._index: dict[Namespace, dict[str, list[tuple]]] = {
            ns: {} for ns in Namespace}
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._journal_file = None
        if journal_path:
            path = Path(journal_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            torn = self._load(path) if path.exists() else 0
            self._journal_file = path.open("a", encoding="utf-8")
            if torn:
                self._journal_file.truncate(self._journal_file.tell() - torn)

    # -- journal ------------------------------------------------------------

    def _journal(self, record: Record, body: object,
                 op: str | None = None) -> None:
        if self._journal_file is None:
            return
        # the fields in sorted order, as json.dumps(line, sort_keys=True)
        # writes them; a stamp is RFC 3339 text and needs no escaping
        key = record.key
        self._journal_file.write(
            '{"body": ' + encode(body)
            + ', "committed_at": "' + format_rfc3339(self._clock())
            + '", "key": {"entity_id": ' + _quote(key.entity_id)
            + ', "name": ' + _quote(key.name)
            + ', "namespace": ' + _NAMESPACE_TEXT[key.namespace]
            + ', "observed_at": "' + format_rfc3339(key.observed_at)
            + '"}' + ("" if op is None else ', "op": ' + _quote(op))
            + ', "revision": ' + str(record.revision) + "}\n")
        self._journal_file.flush()

    def _load(self, journal_path: str | Path) -> int:
        """Commit a journal's lines, before this store has a journal
        file to write them to; return the byte length of a torn final
        line (0 when there is none). Any other line that is not UTF-8
        text of a record, whose `committed_at` is not an RFC 3339 string,
        or whose revision is not the int `_commit` gives it, raises
        `JournalCorrupt` naming its line number."""
        records = self._records
        with open(journal_path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    log.warning(_TORN, journal_path, len(line))
                    return len(line)
                if line.isspace():
                    continue
                try:
                    doc = json.loads(line.decode("utf-8"))
                    fields = doc["key"]
                    observed_at = parse_rfc3339(fields["observed_at"])
                    parse_rfc3339(doc["committed_at"])  # checked, not kept
                    entity_id, name = fields["entity_id"], fields["name"]
                    if not (type(entity_id) is type(name) is str):
                        raise TypeError(f"key {entity_id!r}/{name!r}: not str")
                    key = RecordKey(_NAMESPACES[fields["namespace"]],
                                    entity_id, name, observed_at)
                    current = records.get(key)
                    if "op" in doc:
                        if doc["op"] != "delete":
                            raise ValueError(f"unknown op {doc['op']!r}")
                        if current is not None:
                            self._remove(key)
                        continue
                    revision = self._commit(key, current, doc["body"])
                    if (type(doc["revision"]) is not int
                            or doc["revision"] != revision):
                        raise JournalCorrupt(
                            f"{journal_path}: line {number}: revision "
                            f"{doc['revision']!r}, expected {revision}")
                except (ValueError, KeyError, TypeError) as exc:
                    raise JournalCorrupt(
                        f"{journal_path}: line {number}: {exc!r}") from exc
        return 0

    @classmethod
    def replay(cls, journal_path: str | Path) -> "SharedStorage":
        """Rebuild a store from its journal, as `_load` reads it. The
        copy does not re-journal."""
        store = cls()
        store._load(journal_path)
        return store

    def close(self) -> None:
        if self._journal_file is not None:
            self._journal_file.close()
            self._journal_file = None

    # -- index --------------------------------------------------------------

    def _store(self, record: Record, new: bool) -> None:
        """Keep `record`, and index its key when it is `new`."""
        key = record.key
        self._records[key] = record
        if not new:
            return
        entries = self._index[key.namespace].setdefault(key.entity_id, [])
        # (observed_at, name) is unique within an entity, so the key
        # itself is never compared
        entry = (key.observed_at, key.name, key)
        if entries and entry < entries[-1]:
            bisect.insort(entries, entry)
        else:
            entries.append(entry)   # in-order arrival, the common case

    def _remove(self, key: RecordKey) -> Record:
        """Drop a present key and return its record."""
        record = self._records.pop(key)
        entities = self._index[key.namespace]
        entries = entities[key.entity_id]
        del entries[bisect.bisect_left(entries, (key.observed_at, key.name))]
        if not entries:
            del entities[key.entity_id]
        return record

    @staticmethod
    def _time_slice(entries: list[tuple], query: Query) -> list[tuple]:
        # (t,) sorts before every (t, name, key), so both bounds land on
        # the first entry at or after their instant
        lo = (0 if query.time_from is None
              else bisect.bisect_left(entries, (query.time_from,)))
        hi = (len(entries) if query.time_to is None
              else bisect.bisect_left(entries, (query.time_to,)))
        return entries[lo:hi]

    # -- CRUD ---------------------------------------------------------------

    def _commit(self, key: RecordKey, current: Record | None,
                body: object) -> int:
        """Store `body` under `key` at revision 1, or at `current`'s
        revision + 1, and journal it (an `Encoded` body as its text):
        one key lookup per write."""
        record = Record(key, body.value if type(body) is Encoded else body,
                        1 if current is None else current.revision + 1)
        self._store(record, new=current is None)
        self._journal(record, body)
        return record.revision

    def crud_create(self, key: RecordKey, body: object) -> int:
        if key in self._records:
            raise DuplicateKey(f"key already present: {key}")
        return self._commit(key, None, body)

    def crud_read(self, query: Query) -> list[Record]:
        """Matching records in (observed_at, entity_id, name) order."""
        entities = self._index[query.namespace]
        if query.entity_id is not None:
            entries = self._time_slice(
                entities.get(query.entity_id, []), query)
        else:
            entries = heapq.merge(
                *(self._time_slice(e, query) for e in entities.values()),
                key=lambda entry: (entry[0], entry[2].entity_id, entry[1]))
        keys = (key for _, name, key in entries
                if query.attribute is None or name == query.attribute)
        return [self._records[key]
                for key in itertools.islice(keys, query.limit)]

    def latest(self, namespace: Namespace, entity_id: str) -> Record | None:
        """The entity's last record in read order; None when it has none."""
        entries = self._index[namespace].get(entity_id)
        return self._records[entries[-1][2]] if entries else None

    def crud_update(self, key: RecordKey, body: object) -> int:
        current = self._records.get(key)
        if current is None:
            raise NotFound(f"no record under key: {key}")
        return self._commit(key, current, body)

    def crud_delete(self, key: RecordKey) -> None:
        if key not in self._records:
            raise NotFound(f"no record under key: {key}")
        record = self._remove(key)
        self._journal(record, record.body, op="delete")

    def upsert(self, key: RecordKey, body: object) -> int:
        """Create-or-update; the write every runtime writer uses."""
        return self._commit(key, self._records.get(key), body)

    # -- inspection ----------------------------------------------------------

    def all_records(self) -> list[Record]:
        return list(self._records.values())

    def count(self, namespace: Namespace | None = None) -> int:
        if namespace is None:
            return len(self._records)
        return sum(len(entries)
                   for entries in self._index[namespace].values())

    def dump(self, namespace: Namespace) -> Iterable[dict]:
        """Namespace contents as JSON-ready dicts, in read order."""
        records = self.crud_read(Query(namespace=namespace))
        for r in records:
            yield {"key": r.key.to_json(), "body": r.body,
                   "revision": r.revision}
