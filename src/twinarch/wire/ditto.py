"""Eclipse Ditto thing JSON handling.

A thing document carries a `thingId` plus an `attributes` object whose
members are `{"type": ..., "value": ...}` pairs, e.g.

    {"thingId": "example:TrafficSensor",
     "attributes": {"vehicleCount": {"type": "integer", "value": 35}}}

The declared type must agree with the JSON value.
"""

from __future__ import annotations

import json
from datetime import datetime

from ..errors import MalformedJson, SchemaViolation, Unrepresentable
from .common import Measurement, Source, check_scalar, scalar_type

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "double": lambda v: isinstance(v, float),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
}


def _decode_json(payload: str | bytes, what: str) -> dict:
    if isinstance(payload, bytes):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"{what} is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"{what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{what}: expected a JSON object")
    return doc


def parse_ditto_thing(payload: str | bytes, observed_at: datetime,
                      entity_type: str = "Thing") -> list[Measurement]:
    """Decode one Ditto thing document into measurements."""
    doc = _decode_json(payload, "thing document")
    thing_id = doc.get("thingId")
    if not isinstance(thing_id, str) or not thing_id:
        raise SchemaViolation("thing document: missing or empty thingId")
    attributes = doc.get("attributes", {})
    if not isinstance(attributes, dict):
        raise SchemaViolation(f"thing {thing_id}: attributes is not an object")
    measurements = []
    for name, spec in attributes.items():
        if not isinstance(spec, dict) or "value" not in spec:
            raise SchemaViolation(
                f"thing {thing_id}: attribute {name!r} lacks a value object")
        value = check_scalar(spec["value"], f"thing {thing_id}, attribute {name}")
        declared = spec.get("type")
        if declared is not None:
            checker = _TYPE_CHECKS.get(declared)
            if checker is None:
                raise SchemaViolation(
                    f"thing {thing_id}: unknown attribute type {declared!r}")
            if not checker(value):
                raise SchemaViolation(
                    f"thing {thing_id}: attribute {name!r} declared {declared} "
                    f"but carries {type(value).__name__}")
        measurements.append(Measurement(
            entity_id=thing_id,
            entity_type=entity_type,
            attribute=name,
            value=value,
            observed_at=observed_at,
            source=Source.DITTO,
        ))
    return measurements


def serialize_ditto_thing(measurements: list[Measurement]) -> str:
    """Encode measurements of a single entity as a Ditto thing document."""
    if not measurements:
        raise Unrepresentable("nothing to serialize")
    thing_id = measurements[0].entity_id
    attributes: dict[str, dict] = {}
    for m in measurements:
        if m.entity_id != thing_id:
            raise Unrepresentable("one thing document per entity")
        if m.location is not None:
            raise Unrepresentable("Ditto attributes cannot carry a location")
        attributes[m.attribute] = {"type": scalar_type(m.value),
                                   "value": m.value}
    return json.dumps({"thingId": thing_id, "attributes": attributes},
                      sort_keys=True)
