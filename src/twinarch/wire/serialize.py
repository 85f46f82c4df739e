"""Format-dispatching serializer for canonical measurements."""

from __future__ import annotations

from ..errors import Unrepresentable
from .common import Measurement, Source
from .ditto import serialize_ditto_thing
from .dtdl import serialize_dtdl_telemetry
from .ngsi_ld import serialize_ngsi_ld
from .ultralight import serialize_ultralight

_FORMATS = {
    Source.ULTRALIGHT: lambda ms, amap: serialize_ultralight(ms, amap),
    Source.DITTO: lambda ms, amap: serialize_ditto_thing(ms),
    Source.DTDL: lambda ms, amap: serialize_dtdl_telemetry(ms),
    Source.NGSI_LD: lambda ms, amap: serialize_ngsi_ld(ms),
}


def serialize(data: list[Measurement], fmt: Source | str,
              attribute_map: dict[str, str] | None = None) -> str:
    """Render measurements in the requested format.

    Raises :class:`Unrepresentable` when the target format cannot carry
    the data losslessly (e.g. a location under Ultralight).
    """
    if isinstance(fmt, str):
        fmt = Source(fmt)
    if fmt not in _FORMATS:
        raise Unrepresentable(f"no serializer for {fmt.value}")
    return _FORMATS[fmt](list(data), attribute_map)
