"""Boundary adapters between the physical and digital realms.

P2DAdapter takes raw wire payloads inbound: parse with the format's
parser (`parse_payload`, which `twinarch parse` runs too), filter by
device, clean via processing, commit to the Measurements namespace.
D2PAdapter takes feedback outbound: alerts become notification JSON,
plans become one command envelope per action, delivered to a receiver
callable that must acknowledge.

Command envelope (stable key order):

    {"device": ..., "command": ..., "args": {...},
     "correlationId": ..., "issuedAt": ...}
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Callable

from .clock import format_rfc3339
from .errors import DeliveryFailed, ParseError
from .processing import process
from .storage import Namespace, RecordKey, SharedStorage
from .wire import (parse_ditto_thing, parse_dtdl_telemetry, parse_ngsi_ld,
                   parse_ultralight)
from .wire.common import Measurement, Source


class Direction(Enum):
    P2D = "p2d"
    D2P = "d2p"


@dataclass(frozen=True)
class AdapterConfig:
    direction: Direction
    format: Source = Source.ULTRALIGHT
    # exact-match conditions on device registry metadata; empty = pass all
    device_filter: dict[str, str] = field(default_factory=dict)
    attribute_map: dict[str, str] = field(default_factory=dict)
    entity_type: str = "Device"
    dtdl_model: dict | None = None


@dataclass(frozen=True)
class OutboundCommand:
    target_device: str
    command_name: str
    arguments: dict
    issued_at: datetime
    correlation_id: str

    def envelope(self) -> str:
        doc = {"device": self.target_device,
               "command": self.command_name,
               "args": self.arguments,
               "correlationId": self.correlation_id,
               "issuedAt": format_rfc3339(self.issued_at)}
        return json.dumps(doc)


@dataclass(frozen=True)
class IngestReceipt:
    decoded: int            # measurements encoded in the payload
    stored: int
    rejected: int           # failed the device filter
    dropped: int            # removed by processing (dups, non-finite)
    measurements: tuple[Measurement, ...] = ()   # what was committed

    def __post_init__(self) -> None:
        assert self.stored + self.rejected + self.dropped == self.decoded


def parse_payload(config: AdapterConfig, raw: str | bytes, device_id: str,
                  observed_at: datetime) -> list[Measurement]:
    """Decode one payload with the parser of `config.format`. The
    parsers are looked up by their module names at call time, so an
    instrumented run that rebinds one of them takes effect here."""
    fmt = config.format
    try:
        if fmt is Source.ULTRALIGHT:
            return parse_ultralight(
                raw, device_id, observed_at,
                attribute_map=config.attribute_map or None,
                entity_type=config.entity_type)
        if fmt is Source.DITTO:
            return parse_ditto_thing(raw, observed_at,
                                     entity_type=config.entity_type)
        if fmt is Source.DTDL:
            if config.dtdl_model is None:
                raise ParseError("adapter has no DTDL model configured")
            return parse_dtdl_telemetry(config.dtdl_model, raw, observed_at)
        if fmt is Source.NGSI_LD:
            return parse_ngsi_ld(raw, observed_at)
    except ParseError as exc:
        excerpt = raw[:80] if isinstance(raw, str) else raw[:80].decode(
            "utf-8", errors="replace")
        raise type(exc)(f"{exc} [payload: {excerpt!r}]") from exc
    raise ParseError(f"no parser for format {fmt.value}")


class P2DAdapter:
    """Inbound adapter: wire payload to committed canonical measurements."""

    def __init__(self, config: AdapterConfig, storage: SharedStorage,
                 device_registry: dict[str, dict] | None = None) -> None:
        if config.direction is not Direction.P2D:
            raise ValueError("P2DAdapter needs a P2D config")
        self.config = config
        self.storage = storage
        self.device_registry = device_registry or {}

    def _passes_filter(self, entity_id: str) -> bool:
        if not self.config.device_filter:
            return True
        meta = self.device_registry.get(entity_id)
        if meta is None:
            return False
        return all(meta.get(k) == v
                   for k, v in self.config.device_filter.items())

    def ingest(self, raw: str | bytes, device_id: str,
               observed_at: datetime) -> IngestReceipt:
        """Parse, filter, clean, and commit one payload."""
        measurements = parse_payload(self.config, raw, device_id,
                                     observed_at)
        accepted = [m for m in measurements if self._passes_filter(m.entity_id)]
        rejected = len(measurements) - len(accepted)
        result = process(accepted)
        stored = 0
        for m in result.measurements:
            key = RecordKey(namespace=Namespace.MEASUREMENTS,
                            entity_id=m.entity_id, name=m.attribute,
                            observed_at=m.observed_at)
            self.storage.upsert(key, m.body())
            stored += 1
        return IngestReceipt(decoded=len(measurements), stored=stored,
                             rejected=rejected,
                             dropped=len(accepted) - stored,
                             measurements=tuple(result.measurements))


# receiver callable: payload line in, ack dict out
Receiver = Callable[[str], dict]


class D2PAdapter:
    """Outbound adapter: feedback to wire payloads plus acknowledgments."""

    def __init__(self, config: AdapterConfig, receiver: Receiver,
                 run_id: str = "run") -> None:
        if config.direction is not Direction.D2P:
            raise ValueError("D2PAdapter needs a D2P config")
        self.config = config
        self.receiver = receiver
        self._correlation = (f"{run_id}-c{n}" for n in itertools.count(1))

    def next_correlation_id(self) -> str:
        return next(self._correlation)

    def _deliver(self, payload: str, correlation_id: str) -> dict:
        ack = self.receiver(payload)
        if not isinstance(ack, dict) or ack.get("status") != "ok":
            detail = ack.get("detail") if isinstance(ack, dict) else ack
            raise DeliveryFailed(
                f"receiver rejected {correlation_id}: {detail}")
        return ack

    def emit_alert(self, message: str, severity: str,
                   issued_at: datetime) -> dict:
        """Send one notification payload; returns the acknowledgment."""
        correlation_id = self.next_correlation_id()
        payload = json.dumps({"notification": message,
                              "severity": severity,
                              "correlationId": correlation_id,
                              "issuedAt": format_rfc3339(issued_at)})
        return self._deliver(payload, correlation_id)

    def emit_commands(self, actions: list[tuple[str, str, dict]],
                      issued_at: datetime) -> list[tuple[OutboundCommand, dict]]:
        """Send one command envelope per (device, name, args) action,
        preserving order."""
        sent = []
        for device, name, args in actions:
            command = OutboundCommand(
                target_device=device, command_name=name, arguments=args,
                issued_at=issued_at,
                correlation_id=self.next_correlation_id())
            ack = self._deliver(command.envelope(), command.correlation_id)
            sent.append((command, ack))
        return sent
