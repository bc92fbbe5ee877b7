"""Fairness-Aware Bidirectional top-k GS (FAB-top-k) — paper Section III-B.

Server-side selection: find the per-client quota κ such that the union of
every client's top-κ uploaded indices has size at most k while the union
at κ+1 exceeds k; take the κ-union and top up to exactly k
elements using the largest-|value| candidates from the (κ+1)-union minus
the κ-union.

Fairness guarantee (paper): each client contributes at least ⌊k/N⌋
elements to the downlink set, because ``|∪_i J_i^κ| ≤ N·κ ≤ k`` whenever
``κ = ⌊k/N⌋``, so the search never settles below that quota.
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.base import ClientUpload, SelectionResult, Sparsifier
from repro.sparsify.topk import ranked_indices, top_k_indices


class FABTopK(Sparsifier):
    """The paper's fairness-aware bidirectional top-k sparsifier."""

    name = "fab-top-k"

    def client_select(self, residual: np.ndarray, k: int) -> np.ndarray:
        return top_k_indices(residual, k)

    def server_select(
        self, uploads: list[ClientUpload], k: int, dimension: int
    ) -> SelectionResult:
        self.validate_k(k, dimension)
        if not uploads:
            raise ValueError("no uploads to select from")
        return SelectionResult(fair_select(uploads, k), uploads, dimension)


def fair_select(uploads: list[ClientUpload], k: int) -> np.ndarray:
    """The fairness-aware gradient element selection of Section III-B.

    ``uploads`` carry each client's (index, value) pairs; values are the
    client's accumulated residuals at those indices.  Returns the sorted
    downlink index set ``J`` with ``|J| = min(k, |∪_i J_i|)``.

    The server already holds a D-vector (w), so set membership is three
    more.  A first pass marks whether anyone uploaded j: a union ∪_i J_i
    that fits in k is J, with nothing ranked (always-send-all, k = D).
    Otherwise a second pass keeps the largest |value| uploaded at j, and
    ``first_rank[j] = min_i rank_i(j)`` holds the rest: j ∈ ∪_i J_i^κ
    exactly when ``first_rank[j] < κ``, and a bincount of it is the
    union-size curve.
    It is read only to κ*+1, so uploads are ranked to a depth d
    (``ranked_indices``, O(nnz + d log d)) from d = 2⌈k/N⌉, doubling while
    κ* ≥ d and d is short of the longest upload (the full ranking).
    O(D + Σ nnz) a pass: the O(D) part only loses to sorting index sets
    when N·k ≪ D, where the N client-side top-k passes cost more anyway.
    """
    dimension = uploads[0].payload.dimension
    uploaded = np.zeros(dimension, dtype=bool)
    for up in uploads:
        uploaded[up.payload.indices] = True
    if np.count_nonzero(uploaded) <= k:
        # Every uploaded index fits in the downlink budget.
        return np.flatnonzero(uploaded)
    max_magnitude = np.zeros(dimension)
    for up in uploads:
        # Indices are unique inside one upload: plain gather/scatter sees
        # every pair exactly once (no ufunc.at, no stacking of uploads).
        indices = up.payload.indices
        max_magnitude[indices] = np.maximum(
            max_magnitude[indices], np.abs(up.payload.values)
        )
    longest = max(up.payload.nnz for up in uploads)
    depth = 2 * -(-k // len(uploads))
    while True:
        depth = min(depth, longest)  # also "unranked": one past any rank
        first_rank = np.full(dimension, depth, dtype=np.int64)
        for up in uploads:
            # Payload indices are sorted, so ranked_indices' position
            # tie-break is the index tie-break: J_i^κ is ranked[:κ].
            ranked = up.payload.indices[ranked_indices(up.payload.values, depth)]
            first_rank[ranked] = np.minimum(
                first_rank[ranked], np.arange(ranked.size)
            )
        # union_sizes[κ-1] = |∪_i J_i^κ| for κ = 1..depth; the paper's κ*
        # is the largest κ whose union still fits in k.
        union_sizes = np.cumsum(np.bincount(first_rank, minlength=depth + 1)[:depth])
        kappa = int(np.searchsorted(union_sizes, k, side="right"))
        # At depth == longest, |∪_i J_i| > k keeps κ* below the depth.
        if kappa < depth:
            break
        depth *= 2
    base = np.flatnonzero(first_rank < kappa)
    # Fill from (∪ J^{κ+1}) \ (∪ J^κ), largest absolute uploaded value
    # first; ``candidates`` is sorted, so top_k_indices' position tie-break
    # is the index tie-break.
    candidates = np.flatnonzero(first_rank == kappa)
    fill = candidates[top_k_indices(max_magnitude[candidates], k - base.size)]
    return np.sort(np.concatenate([base, fill]))
