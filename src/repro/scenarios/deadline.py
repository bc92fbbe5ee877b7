"""Deadline-driven partial aggregation: which uploads make the round.

In the paper every round waits for its slowest participant (the
straggler tail the synchronous protocol inherits).  A deployment-grade
server instead sets a *deadline*: uploads that arrive in time are
aggregated, late ones are dropped, and the round's clock charge is
bounded by the deadline rather than the tail.  Because Algorithm 1
accumulates every gradient into the client residual *before* selection,
a dropped upload is not lost information — the untransmitted residual
simply rides along and is recovered by top-k/FAB selection in a later
round (``tests/test_scenarios.py`` proves the recovery is exact).

Per-client finish times come from the round's timing model, the one
owner of client speeds
(:meth:`repro.simulation.timing.TimingModel.arrival_times`):

    finish_i = computation_time · compute_factor_i
             + uplink_time(nnz_i) · comm_factor_i

Everything is a pure function of (uploads, timing, round_index), so
deadline verdicts are identical across execution backends.

Round-close semantics ("charge the deadline, not the straggler tail"):

- over-selection satisfied early (more in-time uploads than the target
  ``m``): the server closes when the ``m``-th acceptee finishes;
- every upload arrived in time: close at the last acceptee's finish;
- someone missed the deadline: the server waited until the deadline to
  learn that, so close at the deadline;
- fewer than ``min_uploads`` arrived: the server extends the round for
  the fastest ``min_uploads`` clients (close at the last forced
  acceptee) — partial aggregation never degenerates to an empty round.

The deadline *in force* each round comes from one of two policies (or
none at all — the server waits for everyone):

- :class:`CyclingDeadlinePolicy` — a per-round sequence that cycles
  (``schedule[(m - 1) mod len]``), which lets a server run periodic
  straggler amnesty — a few tight rounds, then one loose round in which
  slow clients flush their accumulated residuals.  A fixed deadline d
  is the one-entry cycle ``(d,)``;
- :class:`AdaptiveDeadlinePolicy` — the server *learns* the deadline
  online, the exact dual of the paper's learned sparsity k: a thin
  adapter over :class:`repro.online.knob.OnlineKnob` (which owns the
  walk, the probe points and the sign estimate) that says what probing
  a deadline means — replaying the gate at d ∓ δ/2, for free.

:meth:`repro.scenarios.config.ScenarioConfig.deadline_schedule` builds
the policy a config names; :class:`DeadlineRoundPolicy` holds it, and
its gate judges whatever deadline it is handed — the one in force, or a
probe's counterfactual one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.online.interval import SearchInterval
from repro.online.knob import OnlineKnob, Reading
from repro.sparsify.base import ClientUpload


# ----------------------------------------------------------------------
# Deadline policies: what budget is in force each round
# ----------------------------------------------------------------------
def _check_round(round_index: int) -> None:
    if round_index < 1:
        raise ValueError("round_index is 1-based and must be >= 1")


class CyclingDeadlinePolicy:
    """A per-round deadline sequence that cycles (straggler amnesty); a
    fixed deadline d is the one-entry cycle ``(d,)``."""

    def __init__(self, schedule: Sequence[float]) -> None:
        schedule = tuple(float(d) for d in schedule)
        if not schedule:
            raise ValueError("empty deadline sequence")
        if any(d <= 0 for d in schedule):
            raise ValueError("deadlines must be positive")
        self.schedule = schedule

    def deadline_for(self, round_index: int) -> float:
        """The deadline in force for 1-based round ``round_index``."""
        _check_round(round_index)
        return self.schedule[(round_index - 1) % len(self.schedule)]


class AdaptiveDeadlinePolicy:
    """Online-learned deadline — the exact dual of the learned k.

    An :class:`~repro.online.knob.OnlineKnob` over a deadline interval
    (the walk, the probe-point rule and the eq. (10)–(11) sign estimate
    live there).  What a probe means here: because the server already
    observed every upload's arrival time, it can replay the deadline
    gate at d' = d − δ_m/2 and re-aggregate the uploads that would have
    made it, entirely server-side, with no extra client communication
    (unlike the k-probe, which ships a difference downlink).  τ_m(d) is
    the round's realized charge, θ_m(d') the counterfactual charge.

    The probe point is floored at d/2 — strictly positive, so (unlike
    the k-probe's floor at 1) the estimate does not go unavailable at
    the interval's lower edge and the walk cannot get stuck there.  With
    ``probe=False`` the policy never updates — a "frozen adaptive"
    control.

    The probe is *two-sided* in the tight regime: when the round
    actually dropped uploads the hooks additionally replay the gate at
    d'' = d + δ_m/2 (:meth:`probe_deadline_up`) — still free, the late
    arrival times are already server knowledge.  The d'-reading comes
    first, so whenever it is usable the walk is the one-sided walk; the
    d''-reading substitutes on the deadlock round a one-sided policy
    freezes on (the tighter counterfactual made no loss progress), so a
    d whose tightness is costing uploads learns from a direct
    looser-deadline comparison instead of waiting out the freeze.

    All state lives in the parent process, so adaptive-deadline runs are
    bit-identical across the serial and sharded backends.
    """

    def __init__(
        self,
        interval: SearchInterval,
        d1: float | None = None,
        probe: bool = True,
    ) -> None:
        self.knob = OnlineKnob.over(interval, start=d1)
        self.probe = probe

    @property
    def deadline(self) -> float:
        """The continuous decision d_m for the current round."""
        return self.knob.value

    def deadline_for(self, round_index: int) -> float:
        """The deadline in force for 1-based round ``round_index``."""
        _check_round(round_index)
        return self.knob.value

    def probe_deadline(self, round_index: int) -> float | None:
        """The d' < d to probe this round (None = none)."""
        _check_round(round_index)
        if not self.probe:
            return None
        return self.knob.probe_below(floor=self.knob.value / 2.0)

    def probe_deadline_up(self, round_index: int) -> float | None:
        """The d'' > d to probe when the round dropped uploads (None =
        none)."""
        _check_round(round_index)
        if not self.probe:
            return None
        return self.knob.probe_above()

    def observe(self, *readings: Reading) -> None:
        """Consume the round's probe readings — d' first, then d'' when
        it ran; none when no probe ran."""
        self.knob.observe(*readings)


@dataclass(frozen=True)
class DeadlineVerdict:
    """Outcome of one round's deadline gate.

    ``accepted`` holds positions into the round's upload list (ascending,
    so filtered lists keep their participant order), ``dropped_ids`` the
    client ids whose uploads were discarded, and ``close_time`` the
    normalized time at which the server closed the uplink phase.
    """

    accepted: tuple[int, ...]
    dropped_ids: tuple[int, ...]
    close_time: float


class DeadlineRoundPolicy:
    """Server-side deadline gate with optional over-selection.

    Parameters
    ----------
    schedule:
        The deadline policy naming each round's compute+uplink budget
        (:class:`CyclingDeadlinePolicy` or :class:`AdaptiveDeadlinePolicy`),
        or ``None`` for "wait for everyone" (no drops; useful to isolate
        availability effects).
    over_selection:
        The ε of "sample ``m·(1+ε)`` clients, aggregate the first ``m``
        to finish" — the policy only consumes the *target* ``m``; the
        extra sampling itself is the scenario sampler's job.
    min_uploads:
        Floor on accepted uploads: if fewer finish in time the server
        extends the round for the fastest ``min_uploads`` clients.
    """

    def __init__(
        self,
        schedule: CyclingDeadlinePolicy | AdaptiveDeadlinePolicy | None,
        over_selection: float = 0.0,
        min_uploads: int = 1,
    ) -> None:
        if over_selection < 0.0:
            raise ValueError("over_selection must be >= 0")
        if min_uploads < 1:
            raise ValueError("min_uploads must be >= 1 (the server cannot "
                             "aggregate an empty round)")
        self.schedule = schedule
        self.over_selection = over_selection
        self.min_uploads = min_uploads

    def admit(
        self,
        uploads: list[ClientUpload],
        finish: np.ndarray,
        deadline: float | None,
        target_uploads: int | None = None,
    ) -> DeadlineVerdict:
        """Gate one round's uploads; a pure function of its arguments.

        ``finish`` holds the uploads' arrival times
        (:meth:`~repro.simulation.timing.TimingModel.arrival_times`),
        ``deadline`` the budget to judge them by (``None``: wait for
        everyone) — the one in force, or a probe's counterfactual one, so
        a replay is a pure threshold change.  ``target_uploads`` is the over-selection target ``m``
        (``None`` means "as many as arrive" — plain deadline semantics).
        """
        if not uploads:
            raise ValueError("no uploads to admit")
        # Deterministic service order: finish time, then client id.
        order = sorted(
            range(len(uploads)),
            key=lambda i: (finish[i], uploads[i].client_id),
        )
        if deadline is None:
            in_time = list(order)
        else:
            in_time = [i for i in order if finish[i] <= deadline]
        target = (
            len(uploads) if target_uploads is None
            else max(self.min_uploads, target_uploads)
        )
        accepted = in_time[:target]
        extended = False
        if len(accepted) < self.min_uploads:
            accepted = order[: self.min_uploads]
            extended = True

        if extended:
            close = float(max(finish[i] for i in accepted))
        elif (
            target_uploads is not None
            and len(accepted) == target
            and len(uploads) > target
        ):
            # Over-selection reached its target: the server has its m
            # uploads the moment the m-th finisher lands and closes
            # there — whether or not stragglers would also have made the
            # deadline.  (``accepted`` is still in service order here,
            # so its last element is the m-th finisher.)
            close = float(finish[accepted[-1]])
        elif deadline is None or len(in_time) == len(uploads):
            close = float(max(finish[i] for i in accepted))
        else:
            # Someone missed; the server only learns so at the deadline.
            close = float(deadline)

        accepted_set = set(accepted)
        dropped = tuple(
            uploads[i].client_id
            for i in range(len(uploads))
            if i not in accepted_set
        )
        return DeadlineVerdict(
            accepted=tuple(sorted(accepted)),
            dropped_ids=dropped,
            close_time=close,
        )

    def applies(self, target_uploads: int | None) -> bool:
        """Whether this policy can drop or re-time a round.

        True with a deadline schedule, and also for pure over-selection
        (no deadline, but the server still closes once the first
        ``target_uploads`` of the over-sampled cohort finish).
        """
        return self.schedule is not None or (
            self.over_selection > 0 and target_uploads is not None
        )
