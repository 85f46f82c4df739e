"""Azure DTDL interface and telemetry handling.

Parsing takes two documents: the interface model declaring telemetry
fields, and a telemetry message carrying values. Only telemetry names
declared in the model are accepted, and values must match the declared
schema. The supported schema subset is integer, double, string, and
boolean.

    model:     {"@id": "dtmi:example:TrafficSensor;1", "@type": "Interface",
                "contents": [{"@type": "Telemetry",
                              "name": "vehicleCount", "schema": "integer"}]}
    telemetry: {"vehicleCount": 35}
"""

from __future__ import annotations

from datetime import datetime

from ..errors import SchemaViolation, UndeclaredTelemetry, Unrepresentable
from .common import (Measurement, Scalar, Source, check_scalar, is_number,
                     scalar_type)
from .ditto import _TYPE_CHECKS, _decode_json

# Ditto's value types, except that a DTDL double also takes an integer
_SCHEMA_CHECKS = {**_TYPE_CHECKS, "double": is_number}


def _entity_type_from_dtmi(dtmi: str) -> str:
    """Local name of a DTMI: dtmi:example:TrafficSensor;1 -> TrafficSensor."""
    path = dtmi.split(";", 1)[0]
    return path.rsplit(":", 1)[-1] or "Interface"


def parse_model(model: str | bytes | dict) -> tuple[str, str, dict[str, str]]:
    """(model id, entity type, telemetry name -> schema) of an interface
    model; a SchemaViolation when it is not a supported interface."""
    doc = model if isinstance(model, dict) else _decode_json(model, "model")
    model_id = doc.get("@id")
    if not isinstance(model_id, str) or not model_id.startswith("dtmi:"):
        raise SchemaViolation("model: missing or malformed @id")
    if doc.get("@type") != "Interface":
        raise SchemaViolation("model: @type must be Interface")
    contents = doc.get("contents", [])
    if not isinstance(contents, list):
        raise SchemaViolation("model: contents is not an array")
    declared: dict[str, str] = {}
    for item in contents:
        if not isinstance(item, dict):
            raise SchemaViolation("model: contents entry is not an object")
        if item.get("@type") != "Telemetry":
            continue
        name = item.get("name")
        schema = item.get("schema")
        if not isinstance(name, str) or not name:
            raise SchemaViolation("model: telemetry entry lacks a name")
        if schema not in _SCHEMA_CHECKS:
            raise SchemaViolation(
                f"model: telemetry {name!r} has unsupported schema {schema!r}")
        declared[name] = schema
    return model_id, _entity_type_from_dtmi(model_id), declared


def parse_dtdl_telemetry(model: str | bytes | dict,
                         telemetry: str | bytes,
                         observed_at: datetime) -> list[Measurement]:
    """Validate a telemetry message against its interface model."""
    model_id, entity_type, declared = parse_model(model)
    message = _decode_json(telemetry, "telemetry message")
    measurements = []
    for name, raw in message.items():
        schema = declared.get(name)
        if schema is None:
            raise UndeclaredTelemetry(
                f"{model_id}: telemetry {name!r} is not declared in the model")
        value = check_scalar(raw, f"{model_id}, telemetry {name}")
        if not _SCHEMA_CHECKS[schema](value):
            raise SchemaViolation(
                f"{model_id}: telemetry {name!r} declared {schema} "
                f"but carries {value!r}")
        if schema == "double" and isinstance(value, int):
            value = float(value)
        measurements.append(Measurement(
            entity_id=model_id,
            entity_type=entity_type,
            attribute=name,
            value=value,
            observed_at=observed_at,
            source=Source.DTDL,
        ))
    return measurements


def derive_dtdl_model(measurements: list[Measurement]) -> dict:
    """Build the interface model implied by a set of measurements."""
    if not measurements:
        raise Unrepresentable("nothing to derive a model from")
    model_id = measurements[0].entity_id
    if not model_id.startswith("dtmi:"):
        model_id = f"dtmi:twinarch:{measurements[0].entity_type};1"
    contents = []
    seen = set()
    for m in measurements:
        if m.attribute in seen:
            continue
        seen.add(m.attribute)
        contents.append({"@type": "Telemetry", "name": m.attribute,
                         "schema": scalar_type(m.value)})
    return {"@id": model_id, "@type": "Interface", "contents": contents}


def serialize_dtdl_telemetry(measurements: list[Measurement]) -> str:
    """Encode measurements as one flat telemetry message."""
    import json

    if not measurements:
        raise Unrepresentable("nothing to serialize")
    entity_id = measurements[0].entity_id
    message: dict[str, Scalar] = {}
    for m in measurements:
        if m.entity_id != entity_id:
            raise Unrepresentable("one telemetry message per entity")
        if m.location is not None:
            raise Unrepresentable("DTDL telemetry cannot carry a location")
        message[m.attribute] = m.value
    return json.dumps(message, sort_keys=True)
