"""Zero-overhead-when-disabled telemetry: structured events and counters.

The facade is :class:`Telemetry` / :class:`NullTelemetry`; instrumented
code holds a reference (defaulting to :data:`NULL_TELEMETRY`) and checks
``telemetry.enabled`` before doing any work, so disabled runs pay one
attribute read per site.  Events are schema-validated (:mod:`.events`),
stream to an append-only JSONL file (:mod:`.sinks`), and roll up through
``python -m repro.cli trace-report`` (:mod:`.report`).

Invariant: telemetry consumes no RNG and touches no numeric training
state — enabled and disabled runs are bit-identical on every backend.
"""

from .events import ENGINE_PHASES, EVENT_TYPES, validate_event
from .health import HealthMonitor
from .log import configure_cli_logging, get_logger
from .report import format_trace_report, summarize_trace
from .sinks import JsonlSink, MemoryAggregator, encode_event
from .telemetry import (
    NULL_TELEMETRY,
    SPARSE_ELEMENT_BYTES,
    NullTelemetry,
    Telemetry,
    open_telemetry,
)

__all__ = [
    "ENGINE_PHASES",
    "EVENT_TYPES",
    "HealthMonitor",
    "JsonlSink",
    "MemoryAggregator",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SPARSE_ELEMENT_BYTES",
    "Telemetry",
    "configure_cli_logging",
    "encode_event",
    "format_trace_report",
    "get_logger",
    "open_telemetry",
    "summarize_trace",
    "validate_event",
]
