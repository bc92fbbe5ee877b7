"""Online-learning baselines compared against the proposed method (Fig. 5).

1. :class:`ValueBasedGD` — online gradient descent on the *value* of the
   estimated derivative (the paper's "value-based gradient (derivative)
   descent [36]"): identical probe machinery to the proposed method, but
   the update uses the raw derivative estimate instead of its sign.
2. :class:`Exp3Policy` — the EXP3 adversarial-bandit algorithm [38] over a
   discretized arm grid.  The paper treats "each integer value of k" as an
   arm, which is infeasible for D > 10⁴; like any practical EXP3 run at
   this scale we discretize [kmin, kmax] into geometrically spaced arms
   (the paper's qualitative result — slow exploration and wild k
   fluctuation — is preserved; ``tests/slow/test_fig5.py`` asserts it).
3. :class:`ContinuousBandit` — one-point bandit gradient descent of
   Flaxman et al. [37]: play a perturbed point, use the realized cost as
   a gradient estimate.

Each consumes what :meth:`~repro.online.policy.KPolicy.observe` hands
back: the value-based descent the k' probe's :class:`~repro.online.knob.
Reading`, the two bandits the realized per-round cost (time per unit
loss decrease).
"""

from __future__ import annotations

import math

import numpy as np

from repro.online.estimator import estimate_derivative
from repro.online.interval import SearchInterval
from repro.online.knob import Reading
from repro.online.policy import KPolicy

__all__ = [
    "ContinuousBandit",
    "Exp3Policy",
    "KPolicy",
    "ValueBasedGD",
]


class ValueBasedGD(KPolicy):
    """Online descent with the estimated derivative *value* (not sign).

    Update: k_{m+1} = P_K(k_m − δ_m · d̂_m) with δ_m = B/√(2m), exactly
    Algorithm 2's schedule, as the paper specifies for this baseline.  The
    weakness this exposes: d̂_m has arbitrary scale, so the product
    δ_m·d̂_m is either negligible or enormous depending on the cost units.
    """

    name = "value-based-gd"

    def __init__(self, interval: SearchInterval) -> None:
        self.interval = interval
        # k_1 is the interval's midpoint.
        self._k = 0.5 * (interval.kmin + interval.kmax)
        self._m = 1
        self.k_history: list[float] = [self._k]

    def step_size(self) -> float:
        return self.interval.width / math.sqrt(2.0 * self._m)

    def propose(self) -> float:
        return self._k

    def probe_k(self) -> float | None:
        probe = self._k - self.step_size() / 2.0
        probe = max(probe, 1.0)
        return probe if probe < self._k else None

    def observe(self, reading: Reading | None, cost: float | None) -> None:
        del cost
        if reading is not None:
            derivative = estimate_derivative(*reading)
            if derivative is not None:
                self._k = self.interval.project(
                    self._k - self.step_size() * derivative
                )
        self._m += 1
        self.k_history.append(self._k)


class Exp3Policy(KPolicy):
    """EXP3 over a geometric grid of arms in [kmin, kmax].

    Rewards must live in [0, 1]; realized costs are mapped through a
    running min–max normalization (reward = 1 − normalized cost), with
    missing costs (rounds whose loss did not decrease) scored as reward 0.
    """

    name = "exp3"
    #: exploration rate: the share of the probability mass spread evenly
    GAMMA = 0.1

    def __init__(
        self,
        interval: SearchInterval,
        num_arms: int = 32,
        seed: int = 0,
    ) -> None:
        if num_arms < 2:
            raise ValueError("need at least 2 arms")
        self.interval = interval
        self.arms = np.geomspace(interval.kmin, interval.kmax, num_arms)
        self._log_weights = np.zeros(num_arms)
        self._rng = np.random.default_rng(seed)
        self._current_arm: int | None = None
        self._cost_min = math.inf
        self._cost_max = -math.inf
        self.k_history: list[float] = []

    def _probabilities(self) -> np.ndarray:
        # Log-sum-exp normalization keeps the weights finite forever.
        w = np.exp(self._log_weights - self._log_weights.max())
        p = (1.0 - self.GAMMA) * w / w.sum() + self.GAMMA / self.arms.size
        return p / p.sum()

    def propose(self) -> float:
        p = self._probabilities()
        self._current_arm = int(self._rng.choice(self.arms.size, p=p))
        k = float(self.arms[self._current_arm])
        self.k_history.append(k)
        return k

    def observe(self, reading: Reading | None, cost: float | None) -> None:
        del reading
        if self._current_arm is None:
            raise RuntimeError("observe called before propose")
        reward = self._reward(cost)
        p = self._probabilities()[self._current_arm]
        estimated = reward / p
        self._log_weights[self._current_arm] += (
            self.GAMMA * estimated / self.arms.size
        )
        self._current_arm = None

    def _reward(self, cost: float | None) -> float:
        if cost is None or not math.isfinite(cost):
            return 0.0
        self._cost_min = min(self._cost_min, cost)
        self._cost_max = max(self._cost_max, cost)
        spread = self._cost_max - self._cost_min
        if spread <= 0.0:
            return 0.5
        return 1.0 - (cost - self._cost_min) / spread


class ContinuousBandit(KPolicy):
    """One-point bandit gradient descent (Flaxman et al. [37]).

    Maintains a center z_m, plays k_m = P_K(z_m + ξ_m·u_m) with u_m = ±1,
    and updates z_{m+1} = P_K(z_m − η_m·(c_m/ξ_m)·u_m) where c_m is the
    realized cost.  Schedules ξ_m ∝ m^(−1/4) and η_m ∝ m^(−3/4) follow
    the theory; the cost is normalized by a running mean so the step
    scale is unit-free.
    """

    name = "continuous-bandit"
    #: ξ₁ and η₁ as fractions of the interval's width
    PERTURBATION_FRACTION = 0.25
    LEARNING_FRACTION = 0.5

    def __init__(self, interval: SearchInterval, seed: int = 0) -> None:
        self.interval = interval
        # z_1 is the interval's midpoint.
        self._z = 0.5 * (interval.kmin + interval.kmax)
        self._xi0 = self.PERTURBATION_FRACTION * interval.width
        self._eta0 = self.LEARNING_FRACTION * interval.width
        self._rng = np.random.default_rng(seed)
        self._m = 1
        self._direction: float | None = None
        self._played: float | None = None
        self._cost_mean = 0.0
        self._cost_count = 0
        self.k_history: list[float] = []

    def _xi(self) -> float:
        return self._xi0 * self._m ** (-0.25)

    def _eta(self) -> float:
        return self._eta0 * self._m ** (-0.75)

    def propose(self) -> float:
        self._direction = 1.0 if self._rng.random() < 0.5 else -1.0
        self._played = self.interval.project(self._z + self._xi() * self._direction)
        self.k_history.append(self._played)
        return self._played

    def observe(self, reading: Reading | None, cost: float | None) -> None:
        del reading
        if self._direction is None:
            raise RuntimeError("observe called before propose")
        if cost is not None and math.isfinite(cost):
            self._cost_count += 1
            self._cost_mean += (cost - self._cost_mean) / self._cost_count
            scale = self._cost_mean if self._cost_mean > 0 else 1.0
            gradient = (cost / scale) / self._xi() * self._direction
            self._z = self.interval.project(self._z - self._eta() * gradient)
        self._m += 1
        self._direction = None
        self._played = None
