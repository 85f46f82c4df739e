"""Digital twin runtime: catalog, data plane, shadows, simulation, services.

The package wires a simulated physical twin to a digital twin through
format adapters and a shared storage plane, keeps per-entity shadows,
runs what-if simulations on a small engine, and closes the loop with
monitoring and prediction services. Runs are traced and checked
against embedded sequence templates.
"""

from __future__ import annotations

from .catalog import (Catalog, ConformanceReport, check_traceability,
                      iso_report, load_catalog, traceability_report)
from .clock import DEFAULT_EPOCH, LogicalClock, format_rfc3339, parse_rfc3339
from .errors import TwinArchError
from .orchestrator import RunOutput, TwinManager, run_loop
from .storage import Namespace, Query, Record, RecordKey, SharedStorage
from .wire import Measurement, Source

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "ConformanceReport",
    "DEFAULT_EPOCH",
    "LogicalClock",
    "Measurement",
    "Namespace",
    "Query",
    "Record",
    "RecordKey",
    "RunOutput",
    "SharedStorage",
    "Source",
    "TwinArchError",
    "TwinManager",
    "check_traceability",
    "format_rfc3339",
    "iso_report",
    "load_catalog",
    "parse_rfc3339",
    "run_loop",
    "traceability_report",
    "__version__",
]
