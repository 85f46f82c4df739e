"""Simulated physical twin: a traffic intersection with one loop
sensor (DataProvider) and one signal controller (DataReceiver).

The harness is the source of truth the digital side mirrors. It emits
telemetry per a configured schedule and accepts command envelopes;
actuation feeds back into what it emits, closing the loop without
hardware:

    emitted_flow = max(0, (scheduled - response_gain * green_extension)
                          * (1 - divert_fraction))

Deterministic given (config, seed); the only randomness is optional
seeded jitter.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Callable

from .errors import MalformedCommand
from .wire import serialize
from .wire.common import Measurement, Source, is_number


class FaultKind(Enum):
    DROP = "Drop"
    CORRUPT = "Corrupt"
    DELAY = "Delay"


@dataclass(frozen=True)
class Fault:
    tick: int
    kind: FaultKind
    param: int = 1          # delay ticks; unused for Drop/Corrupt


@dataclass(frozen=True)
class HarnessConfig:
    device_id: str
    format: Source = Source.ULTRALIGHT
    # (tick, scheduled flow value); ticks non-decreasing
    schedule: tuple[tuple[int, float], ...] = ()
    latency: int = 0
    faults: tuple[Fault, ...] = ()
    response_gain: float = 1.0
    entity_type: str = "Device"
    attribute: str = "vehicleFlow"
    short_key: str = "f"     # Ultralight key for the attribute
    jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        ticks = [t for t, _ in self.schedule]
        if any(b < a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("schedule ticks must be non-decreasing")


@dataclass
class ActuatorState:
    green_extension: float = 0.0
    divert_fraction: float = 0.0
    last_correlation_id: str | None = None
    applied_at: int | None = None


@dataclass
class _PendingCommand:
    apply_at: int
    command: str
    args: dict
    correlation_id: str


class PhysicalHarness:
    """Drives telemetry out and applies commands in, tick by tick."""

    def __init__(self, config: HarnessConfig,
                 clock: Callable[[int], datetime]) -> None:
        # clock maps a tick number to its simulated timestamp
        self.config = config
        self.clock = clock
        self.actuator = ActuatorState()
        self.notifications: list[dict] = []
        self.acks: list[dict] = []
        self._rng = random.Random(config.seed)
        self._tick = 0
        self._pending: list[_PendingCommand] = []
        self._delayed: dict[int, list[str]] = {}
        self._echo: list[tuple[str, object]] = []
        self._schedule = {t: v for t, v in config.schedule}
        self.emitted_flows: list[tuple[int, float]] = []

    # -- outbound ---------------------------------------------------------------

    def _apply_pending(self, tick: int) -> None:
        due = [p for p in self._pending if p.apply_at <= tick]
        self._pending = [p for p in self._pending if p.apply_at > tick]
        for p in due:                      # later command wins on ties
            if p.command == "extend-green":
                self.actuator.green_extension = float(p.args["seconds"])
            elif p.command == "divert-traffic":
                self.actuator.divert_fraction = float(p.args["fraction"])
            self.actuator.last_correlation_id = p.correlation_id
            self.actuator.applied_at = tick

    def _fault_at(self, tick: int) -> Fault | None:
        for fault in self.config.faults:
            if fault.tick == tick:
                return fault
        return None

    def _flow_at(self, tick: int) -> float | None:
        if tick not in self._schedule:
            return None
        scheduled = float(self._schedule[tick])
        if self.config.jitter_sigma > 0:
            scheduled += self._rng.gauss(0.0, self.config.jitter_sigma)
        flow = (scheduled
                - self.config.response_gain * self.actuator.green_extension)
        flow *= 1.0 - self.actuator.divert_fraction
        return max(0.0, flow)

    def _render(self, attribute: str, value: object, tick: int) -> str:
        measurement = Measurement(
            entity_id=self.config.device_id,
            entity_type=self.config.entity_type,
            attribute=attribute,
            value=value,
            observed_at=self.clock(tick),
            source=self.config.format)
        return serialize([measurement], self.config.format,
                         attribute_map={self.config.short_key:
                                        self.config.attribute})

    def emit(self, tick: int) -> list[str]:
        """Payloads for this tick, after actuation and fault injection."""
        self._tick = tick
        self._apply_pending(tick)
        payloads = list(self._delayed.pop(tick, ()))
        for attribute, value in self._echo:
            payloads.append(self._render(attribute, value, tick))
        self._echo.clear()
        flow = self._flow_at(tick)
        if flow is not None:
            self.emitted_flows.append((tick, flow))
            fault = self._fault_at(tick)
            rendered = self._render(self.config.attribute,
                                    self._round(flow), tick)
            if fault is None:
                payloads.append(rendered)
            elif fault.kind is FaultKind.DROP:
                pass
            elif fault.kind is FaultKind.CORRUPT:
                payloads.append(rendered[: len(rendered) // 2] + "\x00|")
            elif fault.kind is FaultKind.DELAY:
                self._delayed.setdefault(tick + fault.param, []).append(
                    rendered)
        return payloads

    @staticmethod
    def _round(flow: float) -> object:
        # emit integers when the value is whole, like a real loop counter
        return int(flow) if float(flow).is_integer() else flow

    # -- inbound -----------------------------------------------------------------

    def receive(self, payload: str) -> dict:
        """Apply one inbound payload; always returns exactly one ack."""
        try:
            ack = self._receive(payload)
        except MalformedCommand as exc:
            ack = {"status": "error", "detail": str(exc),
                   "correlationId": None}
        self.acks.append(ack)
        return ack

    def _receive(self, payload: str) -> dict:
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise MalformedCommand(f"payload is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MalformedCommand("payload is not an object")
        if "notification" in doc:
            self.notifications.append(doc)
            return {"status": "ok",
                    "correlationId": doc.get("correlationId")}
        for field_name in ("device", "command", "args", "correlationId",
                           "issuedAt"):
            if field_name not in doc:
                raise MalformedCommand(f"envelope lacks {field_name!r}")
        command = doc["command"]
        args = doc["args"]
        if not isinstance(args, dict):
            raise MalformedCommand("args must be an object")
        correlation_id = doc["correlationId"]
        if command == "extend-green":
            if not is_number(args.get("seconds")):
                raise MalformedCommand("extend-green needs numeric 'seconds'")
        elif command == "divert-traffic":
            fraction = args.get("fraction")
            if not is_number(fraction) or not 0 <= fraction <= 1:
                raise MalformedCommand(
                    "divert-traffic needs 'fraction' in [0, 1]")
        elif command == "echo-state":
            if "attribute" not in args or "value" not in args:
                raise MalformedCommand("echo-state needs attribute and value")
            self._echo.append((args["attribute"], args["value"]))
            return {"status": "ok", "correlationId": correlation_id}
        else:
            raise MalformedCommand(f"unknown command {command!r}")
        # a command lands during tick t; with latency 0 it takes effect
        # at the next emission, tick t + 1
        self._pending.append(_PendingCommand(
            apply_at=self._tick + 1 + self.config.latency,
            command=command, args=args, correlation_id=correlation_id))
        return {"status": "ok", "correlationId": correlation_id}
