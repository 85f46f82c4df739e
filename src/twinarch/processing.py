"""Measurement cleaning and normalization ahead of storage.

Raw measurements are deduplicated (same entity, attribute, and
timestamp), sorted by time, converted to canonical units via a static
table, and stripped of numbers that are not finite after conversion,
which can overflow a finite one (see `is_number`). Nothing is an
error: drops are counted and reported alongside the surviving
measurements, and the whole step is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .wire.common import Measurement, is_number

# unit -> (canonical unit, factor). Values multiply by the factor.
UNIT_TABLE: dict[str, tuple[str, float]] = {
    "km/h": ("km/h", 1.0),
    "m/s": ("km/h", 3.6),
    "mph": ("km/h", 1.609344),
    "s": ("s", 1.0),
    "ms": ("s", 0.001),
}


@dataclass(frozen=True)
class ProcessStats:
    input_count: int
    output_count: int
    duplicates_dropped: int = 0
    non_finite_dropped: int = 0
    units_normalized: int = 0


@dataclass(frozen=True)
class ProcessResult:
    measurements: list[Measurement] = field(default_factory=list)
    stats: ProcessStats = field(default=ProcessStats(0, 0))


def _normalize_unit(m: Measurement) -> tuple[Measurement, bool]:
    if m.unit is None or m.unit not in UNIT_TABLE:
        return m, False
    canonical, factor = UNIT_TABLE[m.unit]
    if canonical == m.unit:
        return m, False
    if not is_number(m.value):
        return m, False
    return replace(m, unit=canonical, value=m.value * factor), True


def process(raw: list[Measurement]) -> ProcessResult:
    """Clean and standardize a batch of raw measurements."""
    non_finite = 0
    duplicates = 0
    normalized = 0
    seen: set[tuple[str, str, object]] = set()
    kept: list[Measurement] = []
    for m in raw:
        m, did = _normalize_unit(m)
        if not (is_number(m.value) or isinstance(m.value, (str, bool))):
            non_finite += 1
            continue
        if did:
            normalized += 1
        identity = (m.entity_id, m.attribute, m.observed_at)
        if identity in seen:
            duplicates += 1
            continue
        seen.add(identity)
        kept.append(m)
    kept.sort(key=lambda m: (m.observed_at, m.entity_id, m.attribute))
    return ProcessResult(
        measurements=kept,
        stats=ProcessStats(
            input_count=len(raw),
            output_count=len(kept),
            duplicates_dropped=duplicates,
            non_finite_dropped=non_finite,
            units_normalized=normalized,
        ))
