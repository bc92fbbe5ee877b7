"""One online-learned scalar: the paper's rule, written once.

The paper's contribution is a single online rule — play a decision x_m,
probe one point δ_m/2 away, map three losses through eqs. (10)–(11) to a
sign, step Algorithm 2/3 — and the repo applies it to three decisions:
the sparsity k (:class:`repro.online.policy.SignPolicy`), the round
deadline (:class:`repro.scenarios.deadline.AdaptiveDeadlinePolicy`) and
the staleness exponent (:class:`repro.fl.async_engine.
AdaptiveStalenessDiscount`).  :class:`OnlineKnob` is that rule; the three
classes are adapters that only say what a probe *means* for their
decision and hand back :class:`Reading`s.

- **Walk**: a :class:`~repro.online.algorithm2.SignOGD` (or its
  Algorithm-3 subclass) owns the value and its trajectory.
- **Probe point**: ``max(x − δ_m/2, floor)`` below, ``x + δ_m/2`` above,
  and ``None`` whenever the point would not differ from x (a floor
  reached, a zero-width interval) — eq. (11) divides by the distance, so
  a colliding probe is an unavailable estimate, never an error.
- **Observe**: Section IV-E's estimator on the first reading that
  yields a sign; with none usable the round counter advances and the
  value stays put (the paper's "the value of km remains unchanged").
  Several readings are alternatives, not votes: the deadline's upward
  replay substitutes for an unusable downward one and never sums with it
  (opposite signs would cancel and pin the walk at the interval floor).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.online.algorithm2 import SignOGD
from repro.online.estimator import estimate_sign
from repro.online.interval import SearchInterval


class Reading(NamedTuple):
    """One probe's measurements, in :func:`estimate_sign`'s argument order.

    ``round_time`` is τ_m(x), the realized cost of the round at the
    played ``value``; ``probe_round_time`` is θ_m(x'), what one round
    would have cost at ``probe_value``.  Where the losses come from is
    the adapter's business (per-client probe samples for k, the engine's
    evaluation pool for the deadline and the exponent).
    """

    loss_prev: float
    loss_now: float
    loss_probe: float
    round_time: float
    probe_round_time: float
    value: float
    probe_value: float


class OnlineKnob:
    """A scalar decision walked by Algorithm 2/3 from probe readings."""

    def __init__(self, walker: SignOGD) -> None:
        self.walker = walker

    @classmethod
    def over(
        cls, interval: SearchInterval, start: float | None = None
    ) -> "OnlineKnob":
        """A knob walking ``interval`` with Algorithm 2 from ``start``
        (the midpoint by default)."""
        return cls(SignOGD(interval, k1=start))

    @property
    def value(self) -> float:
        """The continuous decision x_m for the current round."""
        return self.walker.k

    @property
    def history(self) -> list[float]:
        """Every decision played so far (the learned {x_m} trace)."""
        return self.walker.k_history

    def probe_below(self, floor: float) -> float | None:
        """x' = max(x − δ_m/2, floor), or None unless x' < x."""
        x = self.walker.k
        point = max(x - self.walker.step_size() / 2.0, floor)
        return point if point < x else None

    def probe_above(self) -> float | None:
        """x'' = x + δ_m/2, or None unless x'' > x."""
        x = self.walker.k
        point = x + self.walker.step_size() / 2.0
        return point if point > x else None

    def observe(self, *readings: Reading) -> None:
        """Step the walk with the first available sign estimate."""
        sign = None
        for reading in readings:
            sign = estimate_sign(*reading)
            if sign is not None:
                break
        self.walker.update(sign)
