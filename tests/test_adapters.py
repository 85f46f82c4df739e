"""Boundary adapters: inbound ingest accounting, outbound envelopes."""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from twinarch.adapters import (AdapterConfig, D2PAdapter, Direction,
                               IngestReceipt, P2DAdapter)
from twinarch.errors import DeliveryFailed, MalformedPayload, ParseError
from twinarch.storage import Namespace, Query, SharedStorage
from twinarch.wire import Source

from conftest import ts


def p2d(fmt=Source.ULTRALIGHT, **kwargs):
    return AdapterConfig(direction=Direction.P2D, format=fmt, **kwargs)


def test_direction_is_enforced():
    with pytest.raises(ValueError):
        P2DAdapter(AdapterConfig(Direction.D2P, Source.ULTRALIGHT),
                   SharedStorage())


def test_ingest_commits_to_measurements():
    storage = SharedStorage()
    adapter = P2DAdapter(p2d(attribute_map={"f": "vehicleFlow"},
                             entity_type="TrafficSensor"), storage)
    receipt = adapter.ingest("f|35", "TLF01", ts(0))
    assert receipt == IngestReceipt(decoded=1, stored=1, rejected=0, dropped=0,
                                    measurements=receipt.measurements)
    (rec,) = storage.crud_read(Query(namespace=Namespace.MEASUREMENTS))
    assert rec.key.entity_id == "TLF01"
    assert rec.key.name == "vehicleFlow"
    assert rec.body["value"] == 35
    assert rec.body["entity_type"] == "TrafficSensor"


def test_ingest_accounts_for_every_decoded_measurement():
    storage = SharedStorage()
    registry = {"allowed": {"zone": "north"}, "wrong": {"zone": "south"}}
    adapter = P2DAdapter(
        AdapterConfig(Direction.P2D, Source.NGSI_LD,
                      device_filter={"zone": "north"}),
        storage, device_registry=registry)
    payload = json.dumps({
        "id": "allowed", "type": "T",
        "flow": {"value": 1, "observedAt": "2024-12-10T12:00:00Z"},
        "dup": {"value": 2, "observedAt": "2024-12-10T12:00:00Z"},
    })
    first = adapter.ingest(payload, "allowed", ts(0))
    assert (first.decoded, first.stored, first.rejected, first.dropped) == (
        2, 2, 0, 0)
    # unfiltered device: everything rejected, nothing stored
    other = json.dumps({"id": "wrong", "type": "T",
                        "flow": {"value": 9, "observedAt":
                                 "2024-12-10T12:00:00Z"}})
    second = adapter.ingest(other, "wrong", ts(0))
    assert (second.decoded, second.stored, second.rejected, second.dropped) == (
        1, 0, 1, 0)
    assert storage.count(Namespace.MEASUREMENTS) == 2


def test_reingesting_a_payload_upserts_in_place():
    storage = SharedStorage()
    adapter = P2DAdapter(p2d(Source.DITTO), storage)
    payload = json.dumps({"thingId": "t1", "attributes": {
        "a": {"value": 1.5},
        "b": {"value": 2.0},
    }})
    assert adapter.ingest(payload, "t1", ts(0)).stored == 2
    dup = adapter.ingest(payload, "t1", ts(0))
    assert dup.stored == 2          # same keys, upsert keeps them stored
    assert storage.count(Namespace.MEASUREMENTS) == 2


def _refuse_constant(name: str):
    raise AssertionError(f"journal line carries {name}")


def test_a_speed_that_unit_scaling_overflows_is_dropped(tmp_path):
    journal = tmp_path / "journal.jsonl"
    storage = SharedStorage(journal_path=journal)
    payload = json.dumps({
        "id": "e", "type": "T",
        "flow": {"value": 35, "observedAt": "2024-12-10T12:00:00Z"},
        "averageSpeed": {"value": 1e308, "unitCode": "m/s",
                         "observedAt": "2024-12-10T12:00:00Z"}})
    receipt = P2DAdapter(p2d(Source.NGSI_LD), storage).ingest(
        payload, "e", ts(0))
    storage.close()
    assert (receipt.decoded, receipt.stored, receipt.dropped) == (2, 1, 1)
    for line in journal.read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=_refuse_constant)


def test_parse_errors_carry_payload_excerpt():
    adapter = P2DAdapter(p2d(), SharedStorage())
    with pytest.raises(MalformedPayload) as exc_info:
        adapter.ingest("f|35|junk", "TLF01", ts(0))
    assert "payload:" in str(exc_info.value)
    with pytest.raises(ParseError):
        P2DAdapter(p2d(Source.DTDL), SharedStorage()).ingest(
            '{"x": 1}', "d", ts(0))   # no model configured


def test_command_envelope_shape_and_correlation_sequence():
    sent = []

    def receiver(payload: str) -> dict:
        sent.append(payload)
        return {"status": "ok", "echo": payload}

    adapter = D2PAdapter(receiver, run_id="r1")
    acks = adapter.emit_commands(
        [("gl-1", "extend-green", {"seconds": 20}),
         ("sign-1", "divert", {"fraction": 0.3})], issued_at=ts(5))
    assert [ack["echo"] for ack in acks] == sent
    assert [json.loads(p)["correlationId"] for p in sent] == ["r1-c1",
                                                              "r1-c2"]
    assert sent[0] == ('{"device": "gl-1", "command": "extend-green", '
                       '"args": {"seconds": 20}, "correlationId": "r1-c1", '
                       '"issuedAt": "2024-12-10T12:00:05Z"}')
    ack = adapter.emit_alert("high congestion", "Warning", issued_at=ts(6))
    assert ack["status"] == "ok"
    note = json.loads(sent[2])
    assert note["notification"] == "high congestion"
    assert note["correlationId"] == "r1-c3"    # one shared counter


def test_rejection_surfaces_as_delivery_failed():
    adapter = D2PAdapter(receiver=lambda p: {"status": "error",
                                             "detail": "offline"})
    with pytest.raises(DeliveryFailed) as exc_info:
        adapter.emit_alert("msg", "Warning", ts(0))
    assert "offline" in str(exc_info.value)
    broken = D2PAdapter(receiver=lambda p: "nope")
    with pytest.raises(DeliveryFailed):
        broken.emit_commands([("d", "c", {})], ts(0))


# -- the number rule, end to end --------------------------------------------------

_DTDL_MODEL = {"@id": "dtmi:t:S;1", "@type": "Interface",
               "contents": [{"@type": "Telemetry", "name": "flow",
                             "schema": "double"}]}


def _payload(fmt: Source, value, unit, located: bool) -> str:
    """One payload carrying `value` as its `flow` reading; Python's json
    writes NaN, Infinity and ints of any size, and reads them back."""
    if fmt is Source.ULTRALIGHT:
        return f"f|{value!r}"
    if fmt is Source.DITTO:
        return json.dumps({"thingId": "t", "attributes": {
            "flow": {"value": value}}})
    if fmt is Source.DTDL:
        return json.dumps({"flow": value})
    attribute = {"value": value, "observedAt": "2024-12-10T12:00:00Z"}
    if unit is not None:
        attribute["unitCode"] = unit
    doc = {"id": "e", "type": "T", "flow": attribute}
    if located:
        doc["location"] = {"type": "Point", "coordinates": [value, 0.0]}
    return json.dumps(doc)


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


_edge_numbers = st.one_of(
    st.floats(),                 # NaN and the infinities included
    st.floats(min_value=1e306),  # finite, unless unit scaling overflows it
    st.integers(),
    st.sampled_from([10**400, -10**400, 2**1024, int(sys.float_info.max)]))


@given(fmt=st.sampled_from([Source.ULTRALIGHT, Source.DITTO, Source.DTDL,
                            Source.NGSI_LD]),
       value=_edge_numbers,
       unit=st.sampled_from([None, "m/s", "mph", "km/h"]),
       located=st.booleans())
@example(fmt=Source.NGSI_LD, value=10**400, unit=None, located=False)
@example(fmt=Source.NGSI_LD, value=1e308, unit="m/s", located=False)
@example(fmt=Source.NGSI_LD, value=10**400, unit=None, located=True)
@example(fmt=Source.DITTO, value=10**400, unit=None, located=False)
@example(fmt=Source.DTDL, value=10**400, unit=None, located=False)
@example(fmt=Source.ULTRALIGHT, value=10**400, unit=None, located=False)
def test_every_stored_number_is_one_a_float_holds(fmt, value, unit, located):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "journal.jsonl"
        storage = SharedStorage(journal_path=journal)
        adapter = P2DAdapter(p2d(fmt, attribute_map={"f": "flow"},
                                 dtdl_model=_DTDL_MODEL), storage)
        try:
            adapter.ingest(_payload(fmt, value, unit, located), "d", ts(0))
        except ParseError:
            pass
        finally:
            storage.close()
        live = storage.all_records()
        for record in live:
            stored = record.body["value"]
            assert isinstance(stored, (bool, str)) or _finite_number(stored)
            assert all(map(_finite_number, record.body.get("location", ())))
        for line in journal.read_text(encoding="utf-8").splitlines():
            json.loads(line, parse_constant=_refuse_constant)
        assert SharedStorage.replay(journal).all_records() == live
