"""Synthetic cost functions satisfying the paper's Assumption 2.

The online-learning algorithms (Section IV) are analyzed against an
abstract time-density ``t(k, l)``: the expected training time per unit of
loss decrease when running k-element GS at loss level l.  Assumption 2
requires ``t(k, l)`` to be (a) convex in k, (b) with bounded ∂t/∂k, and
(c) minimized at the same k* for every l.

These families let us unit-test Algorithms 2 and 3 and *empirically verify
Theorems 1 and 2* (regret bounds GB√(2M) and GHB√(2M)) without running any
actual model training — ``tests/slow/test_regret.py`` does exactly
that.

:class:`TimePerLossCost` is the physically-motivated family: one round
costs ``1 + β·2k/D`` time and decreases loss at a rate that improves with
k (diminishing returns), giving a convex U-shaped time-per-unit-loss with
an interior optimum that moves down as β grows — the qualitative structure
the paper's experiments exhibit (larger comm time → smaller optimal k).
"""

from __future__ import annotations

import numpy as np


class CostOracle:
    """Interface the online-learning tests use.

    ``tau(k, m)`` is the per-round cost τ_m(k) and ``derivative(k, m)`` its
    exact ∂τ_m/∂k; ``sign(k, m)`` is the exact derivative sign s_m.
    """

    #: Upper bound G on |τ'_m(k)| over the search interval (eq. 4).
    derivative_bound: float

    def optimum(self, kmin: float, kmax: float) -> float:
        """The minimizing k* within [kmin, kmax]."""
        raise NotImplementedError

    def tau(self, k: float, m: int) -> float:
        raise NotImplementedError

    def derivative(self, k: float, m: int) -> float:
        raise NotImplementedError

    def sign(self, k: float, m: int) -> int:
        d = self.derivative(k, m)
        if d > 0:
            return 1
        if d < 0:
            return -1
        return 0

    def regret(self, ks: list[float], kmin: float, kmax: float) -> float:
        """R(M) = Σ_m τ_m(k_m) − Σ_m τ_m(k*)."""
        k_star = self.optimum(kmin, kmax)
        return sum(
            self.tau(k, m + 1) - self.tau(k_star, m + 1) for m, k in enumerate(ks)
        )


class QuadraticCost(CostOracle):
    """τ_m(k) = c_m · (k − k*)² + b_m, the simplest Assumption-2 family.

    Round-varying positive scales ``c_m`` (seeded, uniform in
    [``SCALE_LOW``, ``SCALE_HIGH``]) model the shrinking loss interval
    [L_m, L_{m-1}]; the optimum is static per Assumption 2(c).
    """

    SCALE_LOW = 0.5
    SCALE_HIGH = 1.5

    def __init__(self, k_star: float, kmax: float, seed: int = 0) -> None:
        self.k_star = float(k_star)
        self._rng = np.random.default_rng(seed)
        self._scales: dict[int, float] = {}
        # |τ'| = 2 c_m |k − k*| <= 2·SCALE_HIGH·range.
        self.derivative_bound = 2.0 * self.SCALE_HIGH * kmax

    def _scale(self, m: int) -> float:
        if m not in self._scales:
            self._scales[m] = float(
                self._rng.uniform(self.SCALE_LOW, self.SCALE_HIGH)
            )
        return self._scales[m]

    def optimum(self, kmin: float, kmax: float) -> float:
        return float(np.clip(self.k_star, kmin, kmax))

    def tau(self, k: float, m: int) -> float:
        return self._scale(m) * (k - self.k_star) ** 2

    def derivative(self, k: float, m: int) -> float:
        return 2.0 * self._scale(m) * (k - self.k_star)


class TimePerLossCost(CostOracle):
    """Physically-motivated τ_m(k): round time / loss progress.

    Round time: ``θ(k) = 1 + β·2k/D`` (the paper's timing model, one
    unit of computation).  Loss progress per round: ``ρ(k) = k/(k + s)``
    — concave, saturating: more gradient elements help with diminishing
    returns (``s = D/20`` is the half-saturation constant).  The
    per-unit-loss density is

        t(k) = θ(k)/ρ(k) = (1 + 2βk/D)(k + s)/k,

    which is convex in k > 0 with interior optimum
    ``k* = sqrt(s·D/(2β))`` when that lies in [1, D] — decreasing in
    β, matching the paper's Fig. 7 observation.
    """

    def __init__(
        self,
        dimension: int,
        comm_time: float,
        round_scale_jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if dimension < 2 or comm_time <= 0:
            raise ValueError("need dimension >= 2 and positive comm_time")
        self.dimension = dimension
        self.beta = comm_time
        self.saturation = dimension / 20.0
        self._jitter = round_scale_jitter
        self._rng = np.random.default_rng(seed)
        self._scales: dict[int, float] = {}
        self.derivative_bound = self._compute_derivative_bound()

    def _compute_derivative_bound(self) -> float:
        grid = np.linspace(1.0, self.dimension, 512)
        derivs = np.abs([self._derivative_base(k) for k in grid])
        return float(derivs.max() * (1.0 + self._jitter))

    def _scale(self, m: int) -> float:
        if self._jitter == 0.0:
            return 1.0
        if m not in self._scales:
            self._scales[m] = float(
                self._rng.uniform(1.0 - self._jitter, 1.0 + self._jitter)
            )
        return self._scales[m]

    def _theta(self, k: float) -> float:
        return 1.0 + 2.0 * self.beta * k / self.dimension

    def _rho(self, k: float) -> float:
        return k / (k + self.saturation)

    def _tau_base(self, k: float) -> float:
        if k <= 0:
            raise ValueError("k must be positive")
        return self._theta(k) / self._rho(k)

    def _derivative_base(self, k: float) -> float:
        # d/dk [ (1 + c k)(k + s) / k ] with c = 2β/D:
        c = 2.0 * self.beta / self.dimension
        return c - self.saturation / (k * k)

    def optimum(self, kmin: float, kmax: float) -> float:
        c = 2.0 * self.beta / self.dimension
        k_star = np.sqrt(self.saturation / c)
        return float(np.clip(k_star, kmin, kmax))

    def tau(self, k: float, m: int) -> float:
        return self._scale(m) * self._tau_base(k)

    def derivative(self, k: float, m: int) -> float:
        return self._scale(m) * self._derivative_base(k)


class NoisySignOracle:
    """Wrap a :class:`CostOracle` with a noisy sign channel (Section IV-C).

    With probability ``flip_probability`` the reported sign is flipped.
    For p < 1/2 the estimator satisfies condition (6) of the paper:
    E[ŝ] = (1 − 2p)·s has the sign of s, with H = 1/(1 − 2p) in (7).
    """

    def __init__(
        self, oracle: CostOracle, flip_probability: float, seed: int = 0
    ) -> None:
        if not 0.0 <= flip_probability < 0.5:
            raise ValueError("flip probability must be in [0, 0.5)")
        self.oracle = oracle
        self.flip_probability = flip_probability
        self._rng = np.random.default_rng(seed)

    @property
    def H(self) -> float:
        """The estimator-quality constant of Theorem 2."""
        return 1.0 / (1.0 - 2.0 * self.flip_probability)

    def sign(self, k: float, m: int) -> int:
        s = self.oracle.sign(k, m)
        if self._rng.random() < self.flip_probability:
            return -s
        return s
