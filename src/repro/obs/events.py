"""Event schema for the telemetry subsystem.

Every record a run writes through :class:`repro.obs.Telemetry` is a flat
JSON object with a ``type`` field naming one of the schemas below, and
every kind here is emitted by some run (an ``ast`` lint in the tests
keeps the two in step).  The schema is open: required keys must be
present (they are what ``trace-report`` reads), while extra keys — run
annotations such as ``figure``/``method``/``backend``, or event-specific
detail — are always allowed.
"""

from __future__ import annotations

#: The engine phases every ``round`` event's ``phases`` breakdown covers.
#: ``probe`` aggregates the hook work around local steps (deadline gate,
#: counterfactual replays, probe-loss evaluations).
ENGINE_PHASES = (
    "sample",
    "local_steps",
    "probe",
    "select",
    "aggregate",
    "update",
    "residual_reset",
    "eval",
)

#: ``type`` -> required field names.  Extra fields are always permitted.
EVENT_TYPES: dict[str, frozenset[str]] = {
    # One per engine round: RoundRecord fields + wall-clock breakdown and
    # element/byte traffic.
    "round": frozenset({
        "round", "k", "round_time", "cumulative_time", "participants",
        "uplink_elements", "downlink_elements", "uplink_bytes",
        "downlink_bytes", "wall_seconds", "phases",
    }),
    # A named wall-clock interval.  ``process`` attributes the span to
    # its emitter: ``"parent"`` for the driver process, ``"worker-<i>"``
    # for a pool worker's ``worker.gradients`` time, which the parent
    # emits once the request's result has been read, in worker order.
    "span": frozenset({"name", "seconds", "process"}),
    # The deadline gate rejected uploads this round.
    "drop": frozenset({"round", "client_ids", "deadline", "close_time"}),
    # Previously-dropped clients delivered an accepted upload again.
    "recovery": frozenset({"round", "client_ids"}),
    # Online-k probe walk (the learned k, LearnedK).
    "probe": frozenset({
        "round", "k_continuous", "probe_k", "loss_prev", "loss_now",
        "loss_probe",
    }),
    # A robust aggregator found uploads suspicious (detector = aggregator
    # name, scores aligned with client_ids).  Detection is deterministic
    # arithmetic over the round's uploads — no RNG, no numeric state.
    "flagged": frozenset({"round", "client_ids", "detector", "scores"}),
    # Learned-deadline walk (adaptive deadline schedule).
    "deadline": frozenset({
        "round", "deadline", "arrived", "dropped", "round_time",
    }),
    # Snapshot of accumulated counters (emitted on flush/close).
    "counters": frozenset({"counters"}),
}


def validate_event(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the schema."""
    if not isinstance(record, dict):
        raise ValueError(f"event must be a dict, got {type(record).__name__}")
    kind = record.get("type")
    if kind not in EVENT_TYPES:
        raise ValueError(f"unknown event type: {kind!r}")
    missing = EVENT_TYPES[kind] - record.keys()
    if missing:
        raise ValueError(
            f"{kind!r} event missing fields: {sorted(missing)}"
        )
    if kind == "round":
        phases = record["phases"]
        if not isinstance(phases, dict):
            raise ValueError("'phases' must be a dict of phase -> seconds")
        unknown = set(phases) - set(ENGINE_PHASES)
        if unknown:
            raise ValueError(f"unknown engine phases: {sorted(unknown)}")
