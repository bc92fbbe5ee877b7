"""Summarize a JSONL trace file: the ``trace-report`` rollup.

Replays a trace through :class:`MemoryAggregator`: the rollup is built
from the file, after the run.
"""

from __future__ import annotations

import json
import pathlib

from .events import ENGINE_PHASES, validate_event
from .health import HealthMonitor
from .sinks import MemoryAggregator


def summarize_trace(path: str | pathlib.Path) -> dict:
    """Validate every event in ``path`` and return the aggregate summary.

    The stream is also replayed through a :class:`HealthMonitor`, so the
    summary's ``health`` section reports what the run-health detectors
    raise over the recorded run.  A line that is not JSON or not a valid
    event raises ``ValueError`` naming ``path`` and the line number.
    """
    aggregator = MemoryAggregator()
    monitor = HealthMonitor()
    with open(path, "rb") as fh:  # decoded per line, so bad bytes name it
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}")
            try:
                validate_event(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
            aggregator.add(record)
            monitor.observe(record)
    summary = aggregator.summary()
    summary["health"] = monitor.summary()
    return summary


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024


def format_trace_report(summary: dict) -> str:
    """Human-readable phase-time / bytes / drops rollup of a summary."""
    lines = ["trace summary", "============="]
    events = ", ".join(
        f"{kind}={count}" for kind, count in summary["events"].items()
    )
    lines.append(f"events:   {events or 'none'}")
    lines.append(f"rounds:   {summary['rounds']}")

    total = sum(summary["phase_seconds"].values())
    if summary["phase_seconds"]:
        lines.append("")
        lines.append(f"phase wall-clock ({total:.3f}s total)")
        # Present in engine order, extras (if any) after.
        ordered = [p for p in ENGINE_PHASES if p in summary["phase_seconds"]]
        ordered += [p for p in summary["phase_seconds"] if p not in ordered]
        for phase in ordered:
            seconds = summary["phase_seconds"][phase]
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"  {phase:<14} {seconds:9.3f}s  {share:5.1f}%")

    lines.append("")
    lines.append(
        f"uplink:   {summary['uplink_elements']} elements"
        f" ({_fmt_bytes(summary['uplink_bytes'])})"
    )
    lines.append(
        f"downlink: {summary['downlink_elements']} elements"
        f" ({_fmt_bytes(summary['downlink_bytes'])})"
    )
    lines.append(
        f"drops:    {summary['dropped_uploads']} uploads dropped,"
        f" {summary['recovered_clients']} clients recovered"
    )

    if summary["span_seconds"]:
        lines.append("")
        lines.append("spans")
        for name, seconds in summary["span_seconds"].items():
            lines.append(f"  {name:<24} {seconds:9.3f}s")

    by_process = summary.get("span_seconds_by_process", {})
    if len(by_process) > 1 or any(p != "parent" for p in by_process):
        lines.append("")
        lines.append("spans by process")
        for process, per in by_process.items():
            total_seconds = sum(per.values())
            lines.append(f"  {process:<14} {total_seconds:9.3f}s")
            for name, seconds in per.items():
                lines.append(f"    {name:<22} {seconds:9.3f}s")

    flagged = summary.get("flagged", {})
    if flagged.get("events"):
        lines.append("")
        lines.append(f"flagged clients ({flagged['events']} events)")
        for detector, count in flagged["by_detector"].items():
            lines.append(f"  {detector:<24} {count} events")
        if flagged["top_clients"]:
            offenders = ", ".join(
                f"{cid}×{count}" for cid, count in flagged["top_clients"]
            )
            lines.append(f"  top offenders: {offenders}")

    health = summary.get("health")
    if health is not None:
        lines.append("")
        if health["healthy"]:
            lines.append(
                f"health:   OK ({health['rounds_observed']} rounds,"
                " no alerts)"
            )
        else:
            lines.append(f"health:   {len(health['alerts'])} alert(s)")
            for alert in health["alerts"]:
                lines.append(
                    f"  [{alert['severity']}] {alert['detector']}"
                    f" @ round {alert['round']}: {alert['message']}"
                )

    if summary["counters"]:
        lines.append("")
        lines.append("counters")
        for name, value in summary["counters"].items():
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<28} {rendered}")
    return "\n".join(lines)
