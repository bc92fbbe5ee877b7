"""Policy interface shared by the proposed method and the Fig. 5 baselines.

The learned k (:class:`~repro.online.adaptive_trainer.LearnedK`) is
method-agnostic: each round it asks the policy for a continuous decision
k, optionally runs the k' probe the policy requests, and feeds back a
:class:`RoundObservation` carrying everything any of the methods needs
(probe losses for sign/value-based updates, realized cost for the bandit
methods).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.online.algorithm2 import SignOGD
from repro.online.knob import OnlineKnob, Reading


@dataclass(frozen=True)
class RoundObservation:
    """Feedback for one adaptive round.

    Attributes
    ----------
    k:
        The continuous decision that was played.
    round_time:
        Realized normalized time of the round, τ_m(k_m).
    loss_prev, loss_now:
        Averaged one-sample losses L̃(w(m−1)) and L̃(w(m)).
    loss_probe:
        L̃(w'(m)) if a probe was run, else None.
    probe_k:
        The probed k' (None when no probe was requested).
    probe_round_time:
        θ_m(k'): wall time of one round at k' (None when no probe).
    cost:
        Realized time-per-unit-loss-decrease of the round,
        ``round_time / (loss_prev − loss_now)``; None when the loss did
        not decrease.  Bandit-style methods consume this scalar.
    """

    k: float
    round_time: float
    loss_prev: float
    loss_now: float
    loss_probe: float | None = None
    probe_k: float | None = None
    probe_round_time: float | None = None
    cost: float | None = None


class KPolicy:
    """Interface: propose a continuous k, request probes, consume feedback."""

    name = "abstract"

    def propose(self) -> float:
        """The continuous decision k_m for the coming round."""
        raise NotImplementedError

    def probe_k(self) -> float | None:
        """The k' < k this policy wants probed this round (None = no probe)."""
        return None

    def observe(self, observation: RoundObservation) -> None:
        """Consume the round's feedback and update internal state."""
        raise NotImplementedError


class SignPolicy(KPolicy):
    """The paper's proposed method: Algorithm 2 or 3 + the sign estimator,
    as an :class:`~repro.online.knob.OnlineKnob` over k.

    What a probe means here: k' = k − δ_m/2 floored at 1 (Section IV-E),
    realized by the trainer as the top-k' of the k-element downlink.
    """

    def __init__(self, algorithm: SignOGD) -> None:
        self.algorithm = algorithm
        self.knob = OnlineKnob(algorithm)
        self.name = f"sign({algorithm.name})"

    def propose(self) -> float:
        return self.knob.value

    def probe_k(self) -> float | None:
        return self.knob.probe_below(floor=1.0)

    def observe(self, observation: RoundObservation) -> None:
        if observation.probe_k is None or observation.loss_probe is None:
            self.knob.observe()
            return
        assert observation.probe_round_time is not None
        self.knob.observe(Reading(
            loss_prev=observation.loss_prev,
            loss_now=observation.loss_now,
            loss_probe=observation.loss_probe,
            round_time=observation.round_time,
            probe_round_time=observation.probe_round_time,
            value=observation.k,
            probe_value=observation.probe_k,
        ))
