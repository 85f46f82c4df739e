"""Ultralight 2.0 payload handling.

The format is a flat `key|value|key|value|...` token string, e.g.
`f|35`. Keys are device-local short names; an attribute map translates
them to canonical attribute names (`f` -> `vehicleFlow`). Values carry
no type information, so we decode them conservatively: integer, then
float, then bare string.
"""

from __future__ import annotations

from datetime import datetime

from ..errors import MalformedPayload, UnknownKey
from .common import Measurement, Scalar, Source, is_number


def _decode_value(token: str) -> Scalar:
    try:
        value = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            return token
    # nan, inf and ints beyond a float's range stay text: not numbers
    return value if is_number(value) else token


def parse_ultralight(payload: str | bytes, device_id: str,
                     observed_at: datetime,
                     attribute_map: dict[str, str] | None = None,
                     entity_type: str = "Device") -> list[Measurement]:
    """Decode one Ultralight payload into measurements.

    `attribute_map` translates short keys; unmapped keys raise
    :class:`UnknownKey` when a map is given, otherwise keys pass
    through verbatim.
    """
    if isinstance(payload, bytes):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPayload(f"payload is not UTF-8: {exc}") from exc
    text = payload.strip()
    if not text:
        raise MalformedPayload("empty payload")
    tokens = text.split("|")
    if len(tokens) % 2 != 0:
        raise MalformedPayload(
            f"odd token count {len(tokens)}; expected key|value pairs")
    measurements = []
    for key, raw in zip(tokens[::2], tokens[1::2]):
        if not key:
            raise MalformedPayload("empty key in payload")
        if not raw:
            raise MalformedPayload(f"empty value for key {key!r}")
        if attribute_map is not None:
            if key not in attribute_map:
                raise UnknownKey(f"device {device_id}: unmapped key {key!r}")
            attribute = attribute_map[key]
        else:
            attribute = key
        measurements.append(Measurement(
            entity_id=device_id,
            entity_type=entity_type,
            attribute=attribute,
            value=_decode_value(raw),
            observed_at=observed_at,
            source=Source.ULTRALIGHT,
        ))
    return measurements


def serialize_ultralight(measurements: list[Measurement],
                         attribute_map: dict[str, str] | None = None) -> str:
    """Encode measurements back to `key|value` form.

    The inverse of the parse-time map is applied when given; attribute
    order follows the input list.
    """
    from ..errors import Unrepresentable

    if not measurements:
        raise Unrepresentable("nothing to serialize")
    inverse = {v: k for k, v in (attribute_map or {}).items()}
    parts = []
    for m in measurements:
        if m.location is not None:
            raise Unrepresentable("Ultralight cannot carry a location")
        key = inverse.get(m.attribute, m.attribute)
        if isinstance(m.value, bool):
            raise Unrepresentable("Ultralight cannot carry booleans losslessly")
        if "|" in key or (isinstance(m.value, str) and "|" in m.value):
            raise Unrepresentable("'|' inside key or value")
        if isinstance(m.value, str):
            if not m.value or m.value != m.value.strip():
                raise Unrepresentable("empty or padded string value")
            # a string that decodes as a number cannot round-trip
            if not isinstance(_decode_value(m.value), str):
                raise Unrepresentable(f"ambiguous numeric string {m.value!r}")
        if isinstance(m.value, float):
            value = repr(m.value)
        else:
            value = str(m.value)
        parts.extend([key, value])
    return "|".join(parts)
