"""Telemetry sinks: the append-only JSONL file a run writes and the
rollup ``trace-report`` replays it through.

The JSONL sink writes one complete line per event in append mode, so
several processes (e.g. sweep workers tracing into the same file) each
append whole records without interleaving; POSIX ``O_APPEND`` semantics
make single-``write`` line appends safe.  Alerts are not tallied here:
the health monitor (:mod:`.health`) raises them while the trace replays.
"""

from __future__ import annotations

import json
import pathlib


def _jsonable(obj):
    """Coerce numpy scalars (and other ``.item()`` carriers) to plain JSON."""
    item = getattr(obj, "item", None)
    if callable(item):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def encode_event(record: dict) -> str:
    """One event as a compact, key-sorted JSON line (no trailing newline).

    ``allow_nan=False`` is a backstop: emitters are responsible for
    coercing non-finite floats (the engine ships them as ``loss: null``
    plus a ``loss_nonfinite`` marker), and any NaN/inf that slips
    through raises here instead of writing the non-standard
    ``NaN``/``Infinity`` tokens that break strict JSONL consumers.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=_jsonable, allow_nan=False)


class JsonlSink:
    """Append-only JSON-lines event file."""

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._file.write(encode_event(record) + "\n")

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class MemoryAggregator:
    """Running rollup of the event stream (no per-event storage).

    Keeps totals only — event counts by type, span/phase wall-clock,
    traffic, and drop/recovery tallies — so tracing a long run costs
    O(1) memory on top of the JSONL file.
    """

    def __init__(self):
        self.event_counts: dict[str, int] = {}
        self.span_seconds: dict[str, float] = {}
        self.phase_seconds: dict[str, float] = {}
        self.rounds = 0
        self.uplink_elements = 0
        self.downlink_elements = 0
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.wall_seconds = 0.0
        self.dropped_uploads = 0
        self.recovered_clients = 0
        self.counters: dict[str, float] = {}
        # flagged rollup: detector -> events seen, client -> times flagged.
        self.flagged_by_detector: dict[str, int] = {}
        self.flags_by_client: dict[int, int] = {}
        # per-process span rollup (parent vs worker-N attribution).
        self.process_spans: dict[str, dict[str, float]] = {}

    def add(self, record: dict) -> None:
        kind = record["type"]
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        if kind == "round":
            self.rounds += 1
            for phase, seconds in record["phases"].items():
                self.phase_seconds[phase] = (
                    self.phase_seconds.get(phase, 0.0) + seconds
                )
            self.uplink_elements += record["uplink_elements"]
            self.downlink_elements += record["downlink_elements"]
            self.uplink_bytes += record["uplink_bytes"]
            self.downlink_bytes += record["downlink_bytes"]
            self.wall_seconds += record["wall_seconds"]
        elif kind == "span":
            name = record["name"]
            self.span_seconds[name] = (
                self.span_seconds.get(name, 0.0) + record["seconds"]
            )
            per = self.process_spans.setdefault(record["process"], {})
            per[name] = per.get(name, 0.0) + record["seconds"]
        elif kind == "flagged":
            detector = record["detector"]
            self.flagged_by_detector[detector] = (
                self.flagged_by_detector.get(detector, 0) + 1
            )
            for cid in record["client_ids"]:
                cid = int(cid)
                self.flags_by_client[cid] = self.flags_by_client.get(cid, 0) + 1
        elif kind == "drop":
            self.dropped_uploads += len(record["client_ids"])
        elif kind == "recovery":
            self.recovered_clients += len(record["client_ids"])
        elif kind == "counters":
            for name, value in record["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value

    def summary(self) -> dict:
        return {
            "events": dict(sorted(self.event_counts.items())),
            "rounds": self.rounds,
            "phases": sorted(self.phase_seconds),
            "phase_seconds": {k: self.phase_seconds[k]
                              for k in sorted(self.phase_seconds)},
            "wall_seconds": self.wall_seconds,
            "uplink_elements": self.uplink_elements,
            "downlink_elements": self.downlink_elements,
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "dropped_uploads": self.dropped_uploads,
            "recovered_clients": self.recovered_clients,
            "span_seconds": {k: self.span_seconds[k]
                             for k in sorted(self.span_seconds)},
            "span_seconds_by_process": {
                process: {name: per[name] for name in sorted(per)}
                for process, per in sorted(self.process_spans.items())
            },
            "flagged": {
                "events": sum(self.flagged_by_detector.values()),
                "by_detector": dict(sorted(self.flagged_by_detector.items())),
                # [client_id, times_flagged], worst offenders first
                "top_clients": [[cid, count] for cid, count in sorted(
                    self.flags_by_client.items(),
                    key=lambda item: (-item[1], item[0]),
                )[:10]],
            },
            "counters": dict(sorted(self.counters.items())),
        }
