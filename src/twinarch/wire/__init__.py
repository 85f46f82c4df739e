"""Parsers and serializers for the supported telemetry wire formats.

Four external formats are handled: Ultralight 2.0 key|value payloads,
Eclipse Ditto thing JSON, Azure DTDL interface/telemetry JSON, and
NGSI-LD entities. All of them map onto one canonical, NGSI-LD-shaped
in-memory model, :class:`~twinarch.wire.common.Measurement`.
"""

from .common import Measurement, Source
from .ditto import parse_ditto_thing
from .dtdl import derive_dtdl_model, parse_dtdl_telemetry
from .ngsi_ld import parse_ngsi_ld
from .serialize import serialize
from .ultralight import parse_ultralight

__all__ = [
    "Measurement",
    "Source",
    "derive_dtdl_model",
    "parse_ditto_thing",
    "parse_dtdl_telemetry",
    "parse_ngsi_ld",
    "parse_ultralight",
    "serialize",
]
