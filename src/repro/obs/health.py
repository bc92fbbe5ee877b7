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
raised in its health section; nothing watches a run while it trains.
The stall detector reads wall-clock phase times, so its verdict is
host-dependent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class HealthConfig:
    """Detector thresholds; defaults are deliberately conservative."""

    #: Loss counts as diverged when above ``divergence_factor * best``
    #: (after ``divergence_min_rounds`` finite losses have been seen).
    divergence_factor: float = 50.0
    divergence_min_rounds: int = 3
    #: Alert when cumulative dropped / (participants + dropped) crosses
    #: this share, after ``drop_min_rounds`` rounds.
    drop_rate_threshold: float = 0.5
    drop_min_rounds: int = 5
    #: Alert when one client has been flagged this many times.
    flag_threshold: int = 3
    #: Stall: per-phase robust z-score ``(x - median) / (1.4826 * MAD)``
    #: over a bounded window; both the z and an absolute floor must
    #: trip, so microsecond jitter on fast phases never alerts.
    stall_zscore: float = 8.0
    stall_min_seconds: float = 0.25
    stall_window: int = 64
    stall_min_samples: int = 8
    #: Phases excluded from stall detection (``eval`` is bimodal by
    #: design — the evaluation cadence skips most rounds).
    stall_exclude: tuple[str, ...] = ("eval",)


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


@dataclass
class HealthMonitor:
    """Streaming health detectors; feed records, collect alert dicts.

    ``observe(record)`` returns a (usually empty) list of alert field
    dicts — each carrying the ``alert`` event fields — and ``summary()``
    reports everything raised so far.
    """

    config: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
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
        cfg = self.config
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
                    self._finite_losses >= cfg.divergence_min_rounds
                    and loss > cfg.divergence_factor
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
            self._rounds >= cfg.drop_min_rounds
            and exposed > 0
            and self._dropped / exposed > cfg.drop_rate_threshold
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
                if phase in cfg.stall_exclude:
                    continue
                history = self._phase_history.setdefault(
                    phase, deque(maxlen=cfg.stall_window)
                )
                if (
                    len(history) >= cfg.stall_min_samples
                    and seconds >= cfg.stall_min_seconds
                ):
                    z = robust_zscore(seconds, list(history))
                    if z > cfg.stall_zscore:
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
        cfg = self.config
        out: list[dict] = []
        round_index = record["round"]
        for cid in record["client_ids"]:
            cid = int(cid)
            count = self._flag_counts.get(cid, 0) + 1
            self._flag_counts[cid] = count
            if count >= cfg.flag_threshold:
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
        by_detector: dict[str, int] = {}
        for alert in self.alerts:
            by_detector[alert["detector"]] = (
                by_detector.get(alert["detector"], 0) + 1
            )
        return {
            "healthy": not self.alerts,
            "rounds_observed": self._rounds,
            "alerts": [dict(alert) for alert in self.alerts],
            "by_detector": dict(sorted(by_detector.items())),
        }

