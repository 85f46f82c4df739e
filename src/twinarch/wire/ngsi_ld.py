"""NGSI-LD entity handling.

NGSI-LD is also the shape of the canonical model, so parsing is mostly
validation. An entity document carries `id` and `type`, an optional
GeoJSON `location`, and one member per attribute:

    {"id": "urn:ngsi-ld:TrafficFlowObserved:TLF01",
     "type": "TrafficFlowObserved",
     "location": {"type": "Point", "coordinates": [40.7128, -74.0060]},
     "vehicleFlow": {"value": 35, "observedAt": "2024-12-10T12:00:00Z"}}

Coordinates are kept in document order as (lat, lon).
"""

from __future__ import annotations

import json
from datetime import datetime

from ..clock import format_rfc3339, parse_rfc3339
from ..errors import SchemaViolation, Unrepresentable
from .common import Measurement, Source, check_scalar, is_number
from .ditto import _decode_json

_RESERVED = {"id", "type", "location", "@context"}


def _parse_location(doc: object, entity_id: str) -> tuple[float, float]:
    if not isinstance(doc, dict) or doc.get("type") != "Point":
        raise SchemaViolation(f"{entity_id}: location must be a GeoJSON Point")
    coords = doc.get("coordinates")
    if (not isinstance(coords, list) or len(coords) != 2
            or not all(map(is_number, coords))):
        raise SchemaViolation(f"{entity_id}: coordinates must be two numbers")
    return float(coords[0]), float(coords[1])


def parse_ngsi_ld(payload: str | bytes, observed_at: datetime | None = None,
                  ) -> list[Measurement]:
    """Decode one NGSI-LD entity document into measurements.

    Attributes without their own `observedAt` fall back to the given
    default; with neither, the attribute is rejected.
    """
    doc = _decode_json(payload, "entity document")
    entity_id = doc.get("id")
    entity_type = doc.get("type")
    if not isinstance(entity_id, str) or not entity_id:
        raise SchemaViolation("entity document: missing or empty id")
    if not isinstance(entity_type, str) or not entity_type:
        raise SchemaViolation(f"{entity_id}: missing or empty type")
    location = None
    if "location" in doc:
        location = _parse_location(doc["location"], entity_id)
    measurements = []
    for name, attr in doc.items():
        if name in _RESERVED:
            continue
        if not isinstance(attr, dict) or "value" not in attr:
            raise SchemaViolation(
                f"{entity_id}: attribute {name!r} lacks a value object")
        value = check_scalar(attr["value"], f"{entity_id}, attribute {name}")
        if "observedAt" in attr:
            try:
                stamp = parse_rfc3339(attr["observedAt"])
            except ValueError as exc:
                raise SchemaViolation(
                    f"{entity_id}: bad observedAt for {name!r}: {exc}") from exc
        elif observed_at is not None:
            stamp = observed_at
        else:
            raise SchemaViolation(
                f"{entity_id}: attribute {name!r} lacks observedAt")
        unit = attr.get("unitCode")
        if unit is not None and not isinstance(unit, str):
            raise SchemaViolation(
                f"{entity_id}: unitCode of {name!r} is not a string")
        measurements.append(Measurement(
            entity_id=entity_id,
            entity_type=entity_type,
            attribute=name,
            value=value,
            observed_at=stamp,
            unit=unit,
            location=location,
            source=Source.NGSI_LD,
        ))
    return measurements


def serialize_ngsi_ld(measurements: list[Measurement]) -> str:
    """Encode measurements of a single entity as an NGSI-LD document."""
    if not measurements:
        raise Unrepresentable("nothing to serialize")
    first = measurements[0]
    if first.attribute in _RESERVED:
        raise Unrepresentable(f"attribute name {first.attribute!r} is reserved")
    doc: dict = {"id": first.entity_id, "type": first.entity_type}
    location = None
    for m in measurements:
        if m.entity_id != first.entity_id:
            raise Unrepresentable("one entity document per entity")
        if m.attribute in _RESERVED:
            raise Unrepresentable(f"attribute name {m.attribute!r} is reserved")
        attr: dict = {"value": m.value,
                      "observedAt": format_rfc3339(m.observed_at)}
        if m.unit is not None:
            attr["unitCode"] = m.unit
        doc[m.attribute] = attr
        if m.location is not None:
            location = m.location
    if location is not None:
        doc["location"] = {"type": "Point", "coordinates": list(location)}
    return json.dumps(doc)
