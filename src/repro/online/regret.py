"""Regret bounds and bookkeeping (Theorems 1 and 2).

``tests/slow/test_regret.py`` drives Algorithm 2/3 against synthetic
Assumption-2 cost oracles and checks the measured regret against these
bounds; the theory tests in ``tests/test_online_theory.py`` do the same at
smaller scale.
"""

from __future__ import annotations

import math


def theorem1_bound(G: float, B: float, M: int) -> float:
    """Theorem 1: R(M) ≤ GB√(2M) for Algorithm 2 with exact signs."""
    if G < 0 or B < 0 or M < 0:
        raise ValueError("G, B, M must be nonnegative")
    return G * B * math.sqrt(2.0 * M)


def theorem2_bound(G: float, H: float, B: float, M: int) -> float:
    """Theorem 2: E[R(M)] ≤ GHB√(2M) with estimated signs (H ≥ 1)."""
    if H < 1.0:
        raise ValueError("H must be >= 1")
    return H * theorem1_bound(G, B, M)


def two_instance_bound(
    G: float, H: float, B: float, M_prime: int, B_prime: float, M_dprime: int
) -> float:
    """Regret bound after a single Algorithm-3 restart (Section IV-D).

    GH√2·(B√M' + B'√M'') — the quantity compared against the no-restart
    bound GHB√(2(M'+M'')) to justify the restart rule.
    """
    return G * H * math.sqrt(2.0) * (
        B * math.sqrt(M_prime) + B_prime * math.sqrt(M_dprime)
    )


def restart_is_beneficial(B: float, B_prime: float) -> bool:
    """The paper's restart criterion: B' < (√2 − 1)·B.

    Derived by requiring the two-instance bound to beat the single-
    instance bound for all M'' ≥ M' (paper eq. 9 discussion).
    """
    return B_prime < (math.sqrt(2.0) - 1.0) * B


def empirical_regret(costs_played: list[float], costs_optimal: list[float]) -> float:
    """R(M) = Σ_m τ_m(k_m) − Σ_m τ_m(k*), from per-round cost samples."""
    if len(costs_played) != len(costs_optimal):
        raise ValueError("cost series must have equal length")
    return sum(costs_played) - sum(costs_optimal)
