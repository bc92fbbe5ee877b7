"""Periodic / random-k GS — Fig. 4 baseline [8], [30].

A random subset of k coordinates is chosen each round — the same subset at
every client, drawn from a shared permutation that is re-drawn once
exhausted so that over ⌈D/k⌉ consecutive rounds every coordinate is
transmitted at least once ("periodic averaging" GS).  Because the shared
subset is known to both sides from a synchronized seed, no index
transmission is strictly necessary; we still count pairs conservatively so
the timing comparison is not biased in this baseline's favor.

The residual follows the random-sparsification baseline of [30]: the
unselected part of each round's gradient is *discarded* (clients reset
their residual every round).  This is the variant the paper's Fig. 4
shows learning very slowly ("generally gives worse performance than
top-k", Section II).
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.base import ClientUpload, SelectionResult, Sparsifier


class PeriodicK(Sparsifier):
    """Synchronized random-k coordinate selection with periodic coverage."""

    name = "periodic-k"
    discards_residual = True

    def __init__(self, dimension: int, seed: int = 0) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._rng = np.random.default_rng(seed)
        self._permutation = self._rng.permutation(dimension)
        self._cursor = 0
        self._current: np.ndarray | None = None

    def start_round(self, k: int) -> np.ndarray:
        """Draw this round's shared coordinate set (all clients see it).

        Exactly k distinct coordinates are returned even when the
        permutation wraps mid-round (a coordinate already taken from the
        old permutation's tail is skipped in the fresh one).
        """
        self.validate_k(k, self.dimension)
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < k:
            if self._cursor >= self.dimension:
                self._permutation = self._rng.permutation(self.dimension)
                self._cursor = 0
            candidate = int(self._permutation[self._cursor])
            self._cursor += 1
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        self._current = np.sort(np.array(chosen, dtype=np.int64))
        return self._current

    def client_select(self, residual: np.ndarray, k: int) -> np.ndarray:
        if self._current is None or self._current.size != k:
            self.start_round(k)
        assert self._current is not None
        return self._current

    def server_select(
        self, uploads: list[ClientUpload], k: int, dimension: int
    ) -> SelectionResult:
        self.validate_k(k, dimension)
        if not uploads:
            raise ValueError("no uploads to select from")
        if self._current is None:
            raise RuntimeError("server_select called before any client selection")
        result = SelectionResult(self._current, uploads, dimension)
        self._current = None  # force a fresh draw next round
        return result
