"""Time handling: RFC 3339 helpers and the simulated run clock.

Runs never read the wall clock; the orchestrator advances a logical
clock tick by tick so that traces, journals, and digests are
reproducible byte for byte. The RFC 3339 helpers own an instant's
text and remember it while the instant is in use: call them freely.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from functools import lru_cache

# Demo epoch; any fixed tz-aware instant would do.
DEFAULT_EPOCH = datetime(2024, 12, 10, 12, 0, 0, tzinfo=timezone.utc)

_FRACTION = re.compile(r"\.(\d+)")

# far more than the instants in use at once (a tick's now and base time,
# a payload's stamps, a journal's neighbouring lines), and not a history
_CACHED = 1024


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into a tz-aware datetime.

    Accepts both 'Z' and numeric offsets, and any number of fractional
    digits (fromisoformat on 3.10 takes only 3 or 6; RFC 3339 allows
    any). Raises ValueError on naive or unparseable input.
    """
    if not isinstance(text, str):
        raise ValueError(f"timestamp must be a string, got {type(text).__name__}")
    return _parse(text)


@lru_cache(maxsize=_CACHED)
def _parse(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    raw = _FRACTION.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), raw, count=1)
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} is not timezone-aware")
    return dt


def format_rfc3339(dt: datetime) -> str:
    """Render a tz-aware datetime as RFC 3339, using 'Z' for UTC.

    Sub-second digits are emitted only when nonzero, so round trips are
    byte-stable for whole-second instants.
    """
    if dt.tzinfo is None:
        raise ValueError("refusing to format a naive datetime")
    # keyed by the UTC instant: wall times of one zone that differ only
    # in `fold` compare and hash equal, yet are different instants
    return _format_utc(dt.astimezone(timezone.utc))


@lru_cache(maxsize=_CACHED)
def _format_utc(dt: datetime) -> str:
    base = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if dt.microsecond:
        base += f".{dt.microsecond:06d}".rstrip("0")
    return base + "Z"


class LogicalClock:
    """Simulated clock advanced by the orchestrator.

    Maps tick numbers onto timestamps: epoch + tick * tick_interval.
    """

    def __init__(self, epoch: datetime = DEFAULT_EPOCH, tick_interval: float = 1.0):
        if tick_interval <= 0:
            raise ValueError("tick_interval must be > 0")
        self.epoch = epoch
        self.tick_interval = tick_interval
        self.tick = 0
        self._now = epoch

    def advance(self) -> int:
        self.tick += 1
        self._now = self.at(self.tick)
        return self.tick

    def at(self, tick: int) -> datetime:
        return self.epoch + timedelta(seconds=tick * self.tick_interval)

    def now(self) -> datetime:
        return self._now      # computed once a tick, by `advance`
