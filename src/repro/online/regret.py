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
