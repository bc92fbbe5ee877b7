"""Algorithm 2 — online learning to determine k from the derivative sign.

Per round m the system reveals s_m = sign(τ'_m(k_m)) (or an estimate ŝ_m),
and the algorithm updates

    k_{m+1} = P_K(k_m − δ_m · s_m),   δ_m = B / √(2m).

Theorem 1: with exact signs the regret satisfies R(M) ≤ GB√(2M).
Theorem 2: with a noisy sign satisfying conditions (6)–(7) the expected
regret satisfies E[R(M)] ≤ GHB√(2M).

When the sign estimate is unavailable in a round (Section IV-E: the probe
losses did not decrease), pass ``None`` — k stays unchanged, matching the
paper's "the value of km remains unchanged" rule; the round counter still
advances with training.
"""

from __future__ import annotations

import math

from repro.online.interval import SearchInterval


class SignOGD:
    """Sign-based online 'gradient' descent over the sparsity k.

    Parameters
    ----------
    interval:
        The search interval K = [kmin, kmax]; B is its width.
    k1:
        Initial decision; defaults to the interval midpoint.
    """

    name = "sign-ogd"

    def __init__(self, interval: SearchInterval, k1: float | None = None) -> None:
        #: the interval being walked (Algorithm 3 shrinks it on restart)
        self.interval = interval
        if k1 is None:
            k1 = 0.5 * (interval.kmin + interval.kmax)
        if not interval.contains(k1):
            raise ValueError(f"k1={k1} outside interval {interval}")
        self._k = float(k1)
        self._m = 1
        #: round before the current instance started (Algorithm 3 moves it)
        self._m0 = 0
        self.k_history: list[float] = [self._k]

    @property
    def m(self) -> int:
        """Current round index (1-based)."""
        return self._m

    @property
    def k(self) -> float:
        """The continuous decision k_m for the current round."""
        return self._k

    def step_size(self, m: int | None = None) -> float:
        """δ_m = B/√(2(m − m0)); m0 = 0 outside Algorithm 3."""
        if m is None:
            m = self._m
        instance_round = m - self._m0
        if instance_round < 1:
            raise ValueError("round index precedes the current instance")
        return self.interval.width / math.sqrt(2.0 * instance_round)

    def update(self, sign: int | None) -> float:
        """Consume ŝ_m, produce k_{m+1}; advances the round counter.

        ``sign`` must be −1, 0, +1, or None (estimate unavailable).
        """
        if sign is not None:
            if sign not in (-1, 0, 1):
                raise ValueError(f"sign must be -1, 0, 1, or None, got {sign}")
            delta = self.step_size(self._m)
            self._k = self.interval.project(self._k - delta * sign)
            self._after_step()
        self._m += 1
        self.k_history.append(self._k)
        return self._k

    def _after_step(self) -> None:
        """Called after a signed step moved k, before the round counter
        advances (Algorithm 3's window bookkeeping and restart)."""
