"""Policy interface shared by the proposed method and the Fig. 5 baselines.

The learned k (:class:`~repro.online.adaptive_trainer.LearnedK`) is
method-agnostic: each round it asks the policy for a continuous decision
k, optionally runs the k' probe the policy requests, and feeds back what
any of the methods needs — the probe's :class:`~repro.online.knob.
Reading` (sign/value-based updates; None on a round without a probe),
the same record the deadline and the staleness exponent learn from, and
the round's realized cost (the bandit methods).
"""

from __future__ import annotations

from repro.online.algorithm2 import SignOGD
from repro.online.knob import OnlineKnob, Reading


class KPolicy:
    """Interface: propose a continuous k, request probes, consume feedback."""

    name = "abstract"

    def propose(self) -> float:
        """The continuous decision k_m for the coming round."""
        raise NotImplementedError

    def probe_k(self) -> float | None:
        """The k' < k this policy wants probed this round (None = no probe)."""
        return None

    def observe(self, reading: Reading | None, cost: float | None) -> None:
        """Consume the round's feedback and update internal state.

        ``reading`` is the k' probe's (None when no probe ran); ``cost``
        the round's realized time per unit loss decrease, τ_m / (L̃(w(m−1))
        − L̃(w(m))), None when the loss did not decrease.
        """
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

    def observe(self, reading: Reading | None, cost: float | None) -> None:
        del cost
        self.knob.observe(*(() if reading is None else (reading,)))
