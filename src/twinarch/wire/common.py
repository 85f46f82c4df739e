"""Canonical in-memory telemetry model shared by all wire formats."""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from ..errors import SchemaViolation

# Value types every supported format can carry.
Scalar = int | float | str | bool


class Source(Enum):
    ULTRALIGHT = "ultralight"
    DITTO = "ditto"
    DTDL = "dtdl"
    NGSI_LD = "ngsi-ld"
    INTERNAL = "internal"


def is_number(value: object) -> bool:
    """An int or a float that a float holds finitely (RFC 8259 §6): never
    a bool (an int in Python), NaN, an infinity or a too large int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int beyond a float's range
        return False


def check_scalar(value: object, context: str) -> Scalar:
    """Validate that a decoded value is a representable scalar."""
    if isinstance(value, (bool, str)) or is_number(value):
        return value
    if isinstance(value, (int, float)):
        raise SchemaViolation(f"{context}: not a finite number: "
                              f"{reprlib.repr(value)}")
    raise SchemaViolation(
        f"{context}: unsupported value type {type(value).__name__}")


def scalar_type(value: Scalar) -> str:
    """The value type name Ditto and DTDL share for a scalar."""
    # bool before int: bool is an int subclass
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "double"
    return "string"


@dataclass(frozen=True)
class Measurement:
    """One observed attribute value, normalized from any wire format."""

    entity_id: str
    entity_type: str
    attribute: str
    value: Scalar
    observed_at: datetime
    unit: str | None = None
    location: tuple[float, float] | None = None   # (lat, lon)
    source: Source = Source.INTERNAL

    def __post_init__(self) -> None:
        if self.observed_at.tzinfo is None:
            raise SchemaViolation(
                f"{self.entity_id}/{self.attribute}: naive observation timestamp")

    def body(self) -> dict:
        """Storage/journal body for this measurement."""
        doc: dict = {"value": self.value, "entity_type": self.entity_type,
                     "source": self.source.value}
        if self.unit is not None:
            doc["unit"] = self.unit
        if self.location is not None:
            doc["location"] = list(self.location)
        return doc

    def to_json(self) -> dict:
        """Full canonical document, including identity and timestamp."""
        from ..clock import format_rfc3339
        doc: dict = {"entity_id": self.entity_id,
                     "entity_type": self.entity_type,
                     "attribute": self.attribute,
                     "value": self.value,
                     "observed_at": format_rfc3339(self.observed_at),
                     "source": self.source.value}
        if self.unit is not None:
            doc["unit"] = self.unit
        if self.location is not None:
            doc["location"] = list(self.location)
        return doc
