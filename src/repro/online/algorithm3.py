"""Algorithm 3 — extended online learning with shrinking search intervals.

Algorithm 2's update step δ_m is proportional to the interval width B, so
when the optimal k is small (large communication time) the early steps
overshoot and waste communication.  Algorithm 3 runs Algorithm 2 instances
on successively smaller intervals: every ``update_window`` rounds it forms
a candidate interval from the min/max of recent decisions widened by α,
and restarts onto it when

    B' < (√2 − 1) · B    and    M'' ≥ M',

where M'' is the length of the current instance and M' of the previous —
the condition under which the summed two-instance regret bound
GH√2·(B√M' + B'√M'') beats the single-instance bound (paper eq. 9).

Note on the round origin: the paper's pseudocode initializes m0 ← 1 while
the step uses δ_m = B/√(2(m − m0)), which is undefined at m = 1; we take
m0 = 0 initially (so δ_1 = B/√2, exactly Algorithm 2's first step) and set
m0 ← m on restart as written.
"""

from __future__ import annotations

import math

from repro.online.algorithm2 import SignOGD
from repro.online.interval import SearchInterval

_SHRINK_FACTOR = math.sqrt(2.0) - 1.0


class AdaptiveSignOGD(SignOGD):
    """Algorithm 3: Algorithm 2 restarted on a self-shrinking interval.

    The step, projection and "unavailable sign leaves k unchanged" rule
    are :class:`SignOGD`'s (with ``interval`` the *current* instance's
    and ``m0`` its start); this class adds only the window trackers and
    the restart (lines 6–15).  When the sign is None the trackers stay
    untouched too (the paper: "Lines 6 and 7 in Algorithm 3 are skipped
    when km does not change in round m").
    """

    name = "adaptive-sign-ogd"

    def __init__(
        self,
        interval: SearchInterval,
        k1: float | None = None,
        alpha: float = 1.5,
        update_window: int = 20,
    ) -> None:
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        if update_window < 1:
            raise ValueError("update_window must be >= 1")
        super().__init__(interval, k1)
        self.global_interval = interval
        self.alpha = alpha
        self.update_window = update_window
        self._window_count = 0  # n in the pseudocode
        self._prev_instance_rounds = 0  # M'
        self._window_min = math.inf  # k'_min
        self._window_max = 0.0  # k'_max
        self.restart_rounds: list[int] = []

    def _after_step(self) -> None:
        self._window_min = min(self._window_min, self._k)
        self._window_max = max(self._window_max, self._k)
        self._window_count += 1
        if self._window_count >= self.update_window:
            self._maybe_restart()

    def _maybe_restart(self) -> None:
        new_max = min(self.alpha * self._window_max, self.global_interval.kmax)
        new_min = max(self._window_min / self.alpha, self.global_interval.kmin)
        new_width = new_max - new_min
        instance_rounds = self._m - self._m0  # M''
        if (
            new_width < _SHRINK_FACTOR * self.interval.width
            and instance_rounds >= self._prev_instance_rounds
            and new_width > 0
        ):
            self.interval = SearchInterval(new_min, new_max)
            self._prev_instance_rounds = instance_rounds
            self._m0 = self._m
            self._k = self.interval.project(self._k)
            self.restart_rounds.append(self._m)
        self._window_count = 0
        self._window_min = math.inf
        self._window_max = 0.0
