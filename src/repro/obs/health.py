"""Run-health monitor: pure streaming detectors over a recorded trace.

:class:`HealthMonitor` replays the schema-validated records a run wrote
to its JSONL trace and raises alerts where the run looked unhealthy:

* **divergence** — a round loss is non-finite (NaN/inf) or exploded far
  above the best loss seen so far;
* **drop_rate** — the cumulative share of dropped uploads crossed a
  threshold;
* **flagged_accumulation** — one client keeps getting flagged by the
  robust aggregators (a persistent-attacker signature);
* **stall** — one engine phase's wall-clock is a far outlier against its
  own history, by a robust (median/MAD) z-score.

Every detector is pure streaming arithmetic over values the run already
emitted — no RNG, no numeric training state, O(1) memory apart from the
bounded per-phase windows — so the monitor rides the telemetry invariant
unchanged.  Detectors latch: each (detector, subject) pair alerts once
per run, so a sick run produces a handful of alerts, not thousands.

The detectors run post-hoc only: ``trace-report`` replays a finished
trace (:func:`repro.obs.report.summarize_trace`) and prints what they
raised in its health section; nothing watches a run while it trains,
and no event kind carries an alert — this monitor's ``alerts`` list is
the one place they live.  The thresholds below are deliberately
conservative module constants.  The stall detector reads wall-clock
phase times, so its verdict is host-dependent.
"""

from __future__ import annotations

import math
from collections import Counter, deque

#: Loss counts as diverged when above ``DIVERGENCE_FACTOR * best``
#: (after ``DIVERGENCE_MIN_ROUNDS`` finite losses have been seen).
DIVERGENCE_FACTOR = 50.0
DIVERGENCE_MIN_ROUNDS = 3
#: Alert when cumulative dropped / (participants + dropped) crosses
#: this share, after ``DROP_MIN_ROUNDS`` rounds.
DROP_RATE_THRESHOLD = 0.5
DROP_MIN_ROUNDS = 5
#: Alert when one client has been flagged this many times.
FLAG_THRESHOLD = 3
#: Stall: per-phase robust z-score ``(x - median) / (1.4826 * MAD)``
#: over a bounded window; both the z and an absolute floor must trip,
#: so microsecond jitter on fast phases never alerts.
STALL_ZSCORE = 8.0
STALL_MIN_SECONDS = 0.25
STALL_WINDOW = 64
STALL_MIN_SAMPLES = 8
#: Phases excluded from stall detection (``eval`` is bimodal by
#: design — the evaluation cadence skips most rounds).
STALL_EXCLUDE = ("eval",)


def robust_zscore(value: float, history: list[float]) -> float:
    """``(value - median) / (1.4826 * MAD)`` over ``history``.

    Returns 0.0 when the history is degenerate (MAD of 0 means the
    phase is metronome-steady; any jitter would otherwise be infinite).
    """
    ordered = sorted(history)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    deviations = sorted(abs(x - median) for x in ordered)
    mad = deviations[mid] if n % 2 else (
        (deviations[mid - 1] + deviations[mid]) / 2
    )
    if mad <= 0.0:
        return 0.0
    return (value - median) / (1.4826 * mad)


class HealthMonitor:
    """Streaming health detectors; feed records, collect alert dicts.

    ``observe(record)`` returns a (usually empty) list of alert dicts —
    each with ``round``, ``detector``, ``severity`` (``"warning"`` or
    ``"critical"``) and ``message``, plus detector detail — and
    ``summary()`` reports everything raised so far.
    """

    def __init__(self) -> None:
        self._best_loss = math.inf
        self._finite_losses = 0
        self._rounds = 0
        self._participants = 0
        self._dropped = 0
        self._flag_counts: dict[int, int] = {}
        self._phase_history: dict[str, deque] = {}
        self._latched: set[tuple] = set()
        self.alerts: list[dict] = []

    # ------------------------------------------------------------------
    def observe(self, record: dict) -> list[dict]:
        """Feed one event record; return any newly raised alerts."""
        kind = record.get("type")
        if kind == "round":
            return self._observe_round(record)
        if kind == "flagged":
            return self._observe_flagged(record)
        return []

    def _raise(self, key: tuple, round_index: int, detector: str,
               severity: str, message: str, **detail) -> list[dict]:
        if key in self._latched:
            return []
        self._latched.add(key)
        alert = {
            "round": round_index,
            "detector": detector,
            "severity": severity,
            "message": message,
            **detail,
        }
        self.alerts.append(alert)
        return [alert]

    def _observe_round(self, record: dict) -> list[dict]:
        out: list[dict] = []
        round_index = record["round"]
        self._rounds += 1

        # --- divergence --------------------------------------------------
        loss = record.get("loss")
        nonfinite = record.get("loss_nonfinite")
        if loss is None and isinstance(nonfinite, str):
            # This repo's sink ships non-finite losses as ``loss: null``
            # plus a ``loss_nonfinite`` marker (strict JSON has no
            # NaN/Infinity literal); surface them to the detector.
            loss = float(nonfinite)
        if isinstance(loss, (int, float)):
            loss = float(loss)
            if not math.isfinite(loss):
                out += self._raise(
                    ("divergence",), round_index, "divergence", "critical",
                    f"non-finite loss at round {round_index}",
                    loss=repr(loss),
                )
            else:
                if (
                    self._finite_losses >= DIVERGENCE_MIN_ROUNDS
                    and loss > DIVERGENCE_FACTOR
                    * max(self._best_loss, 1e-12)
                ):
                    out += self._raise(
                        ("divergence",), round_index, "divergence",
                        "critical",
                        f"loss {loss:.6g} exploded to "
                        f"{loss / max(self._best_loss, 1e-12):.1f}x the "
                        f"best seen ({self._best_loss:.6g})",
                        loss=loss, best_loss=self._best_loss,
                    )
                self._finite_losses += 1
                self._best_loss = min(self._best_loss, loss)

        # --- drop rate ---------------------------------------------------
        # ``participants`` on a round event counts the *survivors* (the
        # scenario hooks filter dropped clients out before the engine
        # snapshots the round), so the exposure base is survivors plus
        # drops — dropped/(participants+dropped), bounded in [0, 1].
        self._participants += record.get("participants", 0)
        self._dropped += record.get("dropped", 0)
        exposed = self._participants + self._dropped
        if (
            self._rounds >= DROP_MIN_ROUNDS
            and exposed > 0
            and self._dropped / exposed > DROP_RATE_THRESHOLD
        ):
            out += self._raise(
                ("drop_rate",), round_index, "drop_rate", "warning",
                f"{self._dropped}/{exposed} uploads dropped "
                f"({100.0 * self._dropped / exposed:.0f}% cumulative)",
                dropped=self._dropped, participants=exposed,
            )

        # --- stall -------------------------------------------------------
        phases = record.get("phases")
        if isinstance(phases, dict):
            for phase, seconds in phases.items():
                if phase in STALL_EXCLUDE:
                    continue
                history = self._phase_history.setdefault(
                    phase, deque(maxlen=STALL_WINDOW)
                )
                if (
                    len(history) >= STALL_MIN_SAMPLES
                    and seconds >= STALL_MIN_SECONDS
                ):
                    z = robust_zscore(seconds, list(history))
                    if z > STALL_ZSCORE:
                        out += self._raise(
                            ("stall", phase), round_index, "stall",
                            "warning",
                            f"phase {phase!r} took {seconds:.3f}s at round "
                            f"{round_index} (robust z={z:.1f} against its "
                            f"history)",
                            phase=phase, seconds=seconds, zscore=z,
                        )
                history.append(seconds)
        return out

    def _observe_flagged(self, record: dict) -> list[dict]:
        out: list[dict] = []
        round_index = record["round"]
        for cid in record["client_ids"]:
            cid = int(cid)
            count = self._flag_counts.get(cid, 0) + 1
            self._flag_counts[cid] = count
            if count >= FLAG_THRESHOLD:
                out += self._raise(
                    ("flagged_accumulation", cid), round_index,
                    "flagged_accumulation", "warning",
                    f"client {cid} flagged {count} times "
                    f"(detector {record['detector']!r})",
                    client_id=cid, times_flagged=count,
                )
        return out

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Everything raised so far, for the trace-report health section."""
        by_detector = Counter(alert["detector"] for alert in self.alerts)
        return {
            "healthy": not self.alerts,
            "rounds_observed": self._rounds,
            "alerts": [dict(alert) for alert in self.alerts],
            "by_detector": dict(sorted(by_detector.items())),
        }

