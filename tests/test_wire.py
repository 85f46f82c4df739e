"""Wire formats: canonical fixtures, round trips, and rejection paths."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from twinarch.clock import format_rfc3339, parse_rfc3339
from twinarch.errors import (MalformedJson, MalformedPayload, ParseError,
                             SchemaViolation, UndeclaredTelemetry, UnknownKey,
                             Unrepresentable)
from twinarch.wire import (Measurement, Source,
                           derive_dtdl_model, parse_ditto_thing,
                           parse_dtdl_telemetry, parse_ngsi_ld,
                           parse_ultralight, serialize)
from twinarch.wire.common import check_scalar

from conftest import ts

# --- strategies ------------------------------------------------------------

# Letters only: never decodes as a number, never collides with '|' or JSON
# structure, and stays printable in every format.
_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll")),
    min_size=1, max_size=12)

_ints = st.integers(min_value=-10**9, max_value=10**9)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_aware = st.datetimes(
    min_value=datetime(2020, 1, 1), max_value=datetime(2030, 1, 1),
    timezones=st.just(timezone.utc))

# Ultralight values: no booleans, no pipes, strings must survive the
# numeric-first decoder.
_ul_values = st.one_of(_ints, _floats, _names)
# JSON formats carry the full scalar set.
_json_values = st.one_of(_ints, _floats, st.booleans(), st.text(max_size=20))

_NGSI_RESERVED = {"id", "type", "location", "@context"}


def _attr_dict(values: st.SearchStrategy, forbid: frozenset[str] = frozenset()):
    keys = _names.filter(lambda n: n not in forbid)
    return st.dictionaries(keys, values, min_size=1, max_size=6)


# --- canonical fixtures ----------------------------------------------------

def test_ngsi_fixture_parses(repo_root, epoch):
    payload = (repo_root / "fixtures" / "ngsi_ld_traffic_flow.json").read_text()
    ms = parse_ngsi_ld(payload)
    by_attr = {m.attribute: m for m in ms}
    flow = by_attr["vehicleFlow"]
    assert flow.value == 35
    assert flow.entity_id == "urn:ngsi-ld:TrafficFlowObserved:TLF01"
    assert flow.entity_type == "TrafficFlowObserved"
    assert flow.observed_at == epoch
    assert flow.source is Source.NGSI_LD
    assert flow.location is not None


def test_ultralight_fixture_parses(repo_root, epoch):
    payload = (repo_root / "fixtures" / "ultralight_traffic.txt").read_text()
    ms = parse_ultralight(payload, device_id="TLF01", observed_at=epoch,
                          attribute_map={"f": "vehicleFlow", "s": "avgSpeed"},
                          entity_type="TrafficSensor")
    by_attr = {m.attribute: m.value for m in ms}
    assert by_attr["vehicleFlow"] == 35
    assert ms[0].source is Source.ULTRALIGHT


def test_ditto_fixture_parses(repo_root, epoch):
    payload = (repo_root / "fixtures" / "ditto_thing.json").read_text()
    ms = parse_ditto_thing(payload, observed_at=epoch)
    by_attr = {m.attribute: m.value for m in ms}
    assert 35 in by_attr.values()
    assert all(m.source is Source.DITTO for m in ms)


def test_dtdl_fixture_parses(repo_root, epoch):
    model = (repo_root / "fixtures" / "dtdl_interface.json").read_text()
    telemetry = (repo_root / "fixtures" / "dtdl_telemetry.json").read_text()
    ms = parse_dtdl_telemetry(model, telemetry, observed_at=epoch)
    assert 35 in {m.value for m in ms}
    assert all(m.source is Source.DTDL for m in ms)


# --- round trips -----------------------------------------------------------

@given(attrs=_attr_dict(_ul_values))
def test_ultralight_round_trip(attrs):
    original = [Measurement("dev-1", "Device", k, v, ts(0),
                            source=Source.ULTRALIGHT)
                for k, v in attrs.items()]
    wire = serialize(original, "ultralight")
    back = parse_ultralight(wire, device_id="dev-1", observed_at=ts(0))
    assert {m.attribute: m.value for m in back} == attrs
    # numeric types survive: ints stay ints, floats stay floats
    for m, o in zip(back, original):
        assert type(m.value) is type(o.value)


@given(attrs=_attr_dict(_ul_values))
def test_ultralight_attribute_map_round_trip(attrs):
    amap = {f"k{i}": name for i, name in enumerate(attrs)}
    original = [Measurement("dev-1", "Device", k, v, ts(0))
                for k, v in attrs.items()]
    wire = serialize(original, Source.ULTRALIGHT, attribute_map=amap)
    # key positions carry short names, not canonical ones
    assert set(wire.split("|")[::2]) == set(amap)
    back = parse_ultralight(wire, "dev-1", ts(0), attribute_map=amap)
    assert {m.attribute: m.value for m in back} == attrs


@given(attrs=_attr_dict(_json_values))
def test_ditto_round_trip(attrs):
    original = [Measurement("ns:thing", "Thing", k, v, ts(0),
                            source=Source.DITTO)
                for k, v in attrs.items()]
    wire = serialize(original, "ditto")
    back = parse_ditto_thing(wire, observed_at=ts(0))
    assert {m.attribute: m.value for m in back} == attrs
    assert all(m.entity_id == "ns:thing" for m in back)
    for m in back:
        assert type(m.value) is type(attrs[m.attribute])


@given(attrs=_attr_dict(_json_values))
def test_dtdl_round_trip(attrs):
    original = [Measurement("dtmi:test:Sensor;1", "Sensor", k, v, ts(0))
                for k, v in attrs.items()]
    model = derive_dtdl_model(original)
    wire = serialize(original, "dtdl")
    back = parse_dtdl_telemetry(model, wire, observed_at=ts(0))
    assert {m.attribute: m.value for m in back} == attrs
    assert all(m.entity_type == "Sensor" for m in back)


@given(attrs=_attr_dict(_json_values, forbid=frozenset(_NGSI_RESERVED)),
       stamp=_aware,
       unit=st.one_of(st.none(), st.sampled_from(["km/h", "m/s", "CEL"])),
       location=st.one_of(st.none(), st.tuples(
           st.floats(-90, 90, allow_nan=False),
           st.floats(-180, 180, allow_nan=False))))
def test_ngsi_round_trip(attrs, stamp, unit, location):
    original = [Measurement("urn:x:1", "Observed", k, v, stamp, unit=unit,
                            location=location, source=Source.NGSI_LD)
                for k, v in attrs.items()]
    wire = serialize(original, "ngsi-ld")
    back = parse_ngsi_ld(wire)
    assert sorted(back, key=lambda m: m.attribute) == sorted(
        original, key=lambda m: m.attribute)


# --- timestamps ------------------------------------------------------------

@given(stamp=st.datetimes(min_value=datetime(2000, 1, 1),
                          max_value=datetime(2100, 1, 1),
                          timezones=st.just(timezone.utc)))
def test_rfc3339_round_trip(stamp):
    assert parse_rfc3339(format_rfc3339(stamp)) == stamp


def test_rfc3339_accepts_any_fraction_width():
    base = parse_rfc3339("2024-12-10T12:00:00Z")
    assert parse_rfc3339("2024-12-10T12:00:00.5Z") == base + timedelta(
        microseconds=500000)
    assert parse_rfc3339("2024-12-10T12:00:00.123456789Z") == base + timedelta(
        microseconds=123456)


def test_rfc3339_rejects_naive():
    with pytest.raises(ValueError):
        parse_rfc3339("2024-12-10T12:00:00")
    with pytest.raises(ValueError):
        format_rfc3339(datetime(2024, 12, 10))


# --- rejection paths -------------------------------------------------------

def test_ultralight_rejects_garbage(epoch):
    for bad in ("", "   ", "f|35|s", "f||", "|35", b"\xff\xfe"):
        with pytest.raises(MalformedPayload):
            parse_ultralight(bad, "dev-1", epoch)


def test_ultralight_rejects_unmapped_key(epoch):
    with pytest.raises(UnknownKey):
        parse_ultralight("x|1", "dev-1", epoch, attribute_map={"f": "flow"})
    # no map: keys pass through verbatim
    (m,) = parse_ultralight("x|1", "dev-1", epoch)
    assert m.attribute == "x"


def test_ditto_rejects_bad_documents(epoch):
    cases = [
        ("not json", MalformedJson),
        (b"\xff", MalformedJson),
        ("[1, 2]", SchemaViolation),
        ('{"attributes": {}}', SchemaViolation),           # no thingId
        ('{"thingId": "t", "attributes": 5}', SchemaViolation),
        ('{"thingId": "t", "attributes": {"a": 5}}', SchemaViolation),
        ('{"thingId": "t", "attributes": {"a": {"type": "blob", "value": 1}}}',
         SchemaViolation),
        ('{"thingId": "t", "attributes": {"a": {"type": "integer", "value": "x"}}}',
         SchemaViolation),
        ('{"thingId": "t", "attributes": {"a": {"value": [1]}}}', SchemaViolation),
    ]
    for payload, exc in cases:
        with pytest.raises(exc):
            parse_ditto_thing(payload, observed_at=epoch)


def test_dtdl_rejects_undeclared_and_mistyped(epoch):
    model = {"@id": "dtmi:t:S;1", "@type": "Interface",
             "contents": [{"@type": "Telemetry", "name": "flow",
                           "schema": "integer"}]}
    with pytest.raises(UndeclaredTelemetry):
        parse_dtdl_telemetry(model, '{"other": 1}', epoch)
    with pytest.raises(SchemaViolation):
        parse_dtdl_telemetry(model, '{"flow": "many"}', epoch)
    with pytest.raises(SchemaViolation):
        parse_dtdl_telemetry({"@id": "nope", "@type": "Interface"},
                             '{}', epoch)


def test_dtdl_double_accepts_integer_json(epoch):
    model = {"@id": "dtmi:t:S;1", "@type": "Interface",
             "contents": [{"@type": "Telemetry", "name": "speed",
                           "schema": "double"}]}
    (m,) = parse_dtdl_telemetry(model, '{"speed": 15}', epoch)
    assert m.value == 15.0 and isinstance(m.value, float)


def test_ngsi_rejects_bad_documents(epoch):
    cases = [
        '{"type": "T", "flow": {"value": 1}}',                    # no id
        '{"id": "e", "flow": {"value": 1}}',                      # no type
        '{"id": "e", "type": "T", "flow": 5}',                    # bare value
        '{"id": "e", "type": "T", "flow": {"value": 1, "observedAt": "junk"}}',
        '{"id": "e", "type": "T", "location": {"type": "Point"},'
        ' "flow": {"value": 1}}',
    ]
    for payload in cases:
        with pytest.raises(SchemaViolation):
            parse_ngsi_ld(payload, observed_at=epoch)
    # an attribute with neither observedAt nor a default is unusable
    with pytest.raises(SchemaViolation):
        parse_ngsi_ld('{"id": "e", "type": "T", "flow": {"value": 1}}')


def test_check_scalar_rejects_non_finite_and_structures():
    assert check_scalar(True, "x") is True
    assert check_scalar(0, "x") == 0
    for bad in (float("nan"), float("inf"), 10**400, -10**400, [1],
                {"a": 1}, None):
        with pytest.raises(SchemaViolation):
            check_scalar(bad, "x")


@pytest.mark.parametrize("parse", [
    lambda text: parse_ngsi_ld(
        '{"id": "e", "type": "T", "flow": {"value": %s}}' % text, ts(0)),
    lambda text: parse_ditto_thing(
        '{"thingId": "t", "attributes": {"flow": {"value": %s}}}' % text,
        ts(0)),
    lambda text: parse_dtdl_telemetry(
        {"@id": "dtmi:t:S;1", "@type": "Interface",
         "contents": [{"@type": "Telemetry", "name": "flow",
                       "schema": "double"}]}, '{"flow": %s}' % text, ts(0)),
], ids=["ngsi-ld", "ditto", "dtdl"])
def test_an_int_beyond_a_float_is_not_a_number(parse):
    # json.loads reads it as a Python int that no float can hold
    with pytest.raises(SchemaViolation):
        parse("1" + "0" * 400)


def test_ultralight_keeps_what_is_not_a_number_as_text(epoch):
    for token in ("nan", "inf", "-inf", "1e400", "9" * 400, "-" + "9" * 400):
        (m,) = parse_ultralight(f"f|{token}", "dev-1", epoch)
        assert m.value == token


def test_naive_timestamp_rejected_at_construction():
    with pytest.raises(SchemaViolation):
        Measurement("e", "T", "a", 1, datetime(2024, 12, 10))


@given(st.sampled_from(["ultralight", "ditto", "dtdl", "ngsi-ld"]),
       st.binary(min_size=0, max_size=64))
def test_parsers_raise_only_parse_error(fmt, blob):
    parsers = {
        "ultralight": lambda b: parse_ultralight(b, "d", ts(0)),
        "ditto": lambda b: parse_ditto_thing(b, ts(0)),
        "dtdl": lambda b: parse_dtdl_telemetry(
            {"@id": "dtmi:t:S;1", "@type": "Interface", "contents": []},
            b, ts(0)),
        "ngsi-ld": lambda b: parse_ngsi_ld(b, ts(0)),
    }
    try:
        parsers[fmt](blob)
    except ParseError:
        pass


# --- unrepresentable values ------------------------------------------------

def test_serialize_refuses_what_a_format_cannot_carry():
    loc = Measurement("e", "T", "a", 1, ts(0), location=(1.0, 2.0))
    with pytest.raises(Unrepresentable):
        serialize([loc], "ultralight")
    with pytest.raises(Unrepresentable):
        serialize([loc], "ditto")
    with pytest.raises(Unrepresentable):
        serialize([Measurement("e", "T", "a", True, ts(0))], "ultralight")
    with pytest.raises(Unrepresentable):
        serialize([Measurement("e", "T", "a", "42", ts(0))], "ultralight")
    with pytest.raises(Unrepresentable):
        serialize([Measurement("e", "T", "a", "x|y", ts(0))], "ultralight")
    with pytest.raises(Unrepresentable):
        serialize([Measurement("e", "T", "id", 1, ts(0))], "ngsi-ld")
    with pytest.raises(Unrepresentable):
        serialize([], "ditto")
    with pytest.raises(Unrepresentable):
        serialize([Measurement("a", "T", "x", 1, ts(0)),
                   Measurement("b", "T", "x", 1, ts(0))], "ditto")


def test_measurement_to_json_shape(epoch):
    m = Measurement("e", "T", "flow", 35, epoch, unit="km/h",
                    location=(40.0, -74.0), source=Source.NGSI_LD)
    doc = m.to_json()
    assert doc == {"entity_id": "e", "entity_type": "T", "attribute": "flow",
                   "value": 35, "observed_at": "2024-12-10T12:00:00Z",
                   "source": "ngsi-ld", "unit": "km/h",
                   "location": [40.0, -74.0]}
    assert json.dumps(doc)  # JSON-safe as is
