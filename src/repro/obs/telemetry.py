"""The telemetry facade: counters and structured events.

Two implementations share one interface:

* :class:`NullTelemetry` — the default.  Every method is a no-op and
  ``enabled`` is ``False``, so instrumented hot paths pay exactly one
  attribute check before skipping all telemetry work.
* :class:`Telemetry` — accumulates counters in memory and emits
  schema-validated events to (optionally) an append-only JSONL sink;
  ``trace-report`` rolls the file up afterwards
  (:func:`repro.obs.report.summarize_trace`).

Everything is emitted in the parent process: a sharded pool worker
sends its one timing back as plain numbers on its last report, and the
pool emits it here as a ``worker-<i>`` span.

The hard invariant every emitter must respect: telemetry consumes **no
RNG and touches no numeric training state**.  It only reads values the
run already computed (plus ``time.perf_counter``), which is what keeps
telemetry-on runs bit-identical to telemetry-off runs on every backend.
"""

from __future__ import annotations

from .events import validate_event
from .sinks import JsonlSink

#: Bytes per sparse upload element on the simulated wire: an int64
#: coordinate plus a float64 value.
SPARSE_ELEMENT_BYTES = 16


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op.

    Instrumentation sites should check ``telemetry.enabled`` before doing
    any work beyond calling these methods, so the disabled path costs one
    attribute read.
    """

    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def annotate(self, **fields) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


#: Shared default instance — safe because NullTelemetry is stateless.
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Enabled telemetry: counters and structured events."""

    enabled = True

    def __init__(self, sink: JsonlSink | None = None):
        self.sink = sink
        #: Engine-maintained current round index, used to stamp worker
        #: spans (set by ``RoundEngine.begin_round`` when tracing).
        self.current_round = 0
        self.counters: dict[str, float] = {}
        self.annotations: dict[str, object] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named monotonically-growing counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **fields) -> None:
        """Attach run-level context (figure, method, …) to future events."""
        self.annotations.update(fields)

    def event(self, kind: str, **fields) -> None:
        """Emit one schema-validated event to the sink."""
        record = {"type": kind, **self.annotations, **fields}
        if kind == "span":
            record.setdefault("process", "parent")
        validate_event(record)
        if self.sink is not None:
            self.sink.write(record)

    def flush(self) -> None:
        """Emit accumulated counters as a ``counters`` event.

        Counters are reset after the snapshot so repeated flushes (e.g.
        per sweep unit) report deltas, never double-counting.
        """
        if self.counters:
            self.event("counters", counters=dict(self.counters))
            self.counters = {}
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        self.flush()
        if self.sink is not None:
            self.sink.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def open_telemetry(path: str | None) -> NullTelemetry | Telemetry:
    """Build telemetry from a config/CLI value.

    ``None`` (or empty string) yields the shared no-op instance; a path
    yields enabled telemetry appending JSONL events to that file.
    """
    if not path:
        return NULL_TELEMETRY
    return Telemetry(sink=JsonlSink(path))
