"""Fairness-Unaware Bidirectional top-k (FUB-top-k) — Fig. 4 baseline.

Selects the k downlink elements with the largest absolute *aggregated*
values across all client uploads, without any per-client floor — the
global-top-k family of [28] adapted to the star (client-server) topology,
as the paper's footnote 4 describes, and the selection used by [31].
Because selection ignores provenance, a client whose residuals are small
can contribute zero elements, which is exactly the unfairness FAB-top-k
removes (compare contribution CDFs in Fig. 4 right).
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.base import ClientUpload, SelectionResult, Sparsifier
from repro.sparsify.topk import top_k_indices


class FUBTopK(Sparsifier):
    """Bidirectional top-k without the fairness floor."""

    name = "fub-top-k"

    def client_select(self, residual: np.ndarray, k: int) -> np.ndarray:
        return top_k_indices(residual, k)

    def server_select(
        self, uploads: list[ClientUpload], k: int, dimension: int
    ) -> SelectionResult:
        self.validate_k(k, dimension)
        if not uploads:
            raise ValueError("no uploads to select from")
        total_weight = float(sum(up.sample_count for up in uploads))
        aggregate = np.zeros(dimension)
        uploaded = np.zeros(dimension, dtype=bool)
        for up in uploads:
            # Same accumulate as Server.aggregate's mean (upload order).
            aggregate[up.payload.indices] += (
                up.sample_count / total_weight
            ) * up.payload.values
            uploaded[up.payload.indices] = True
        # Index-ordered candidates, so top_k_indices' position tie-break is
        # the index tie-break every other selector uses.
        indices = np.flatnonzero(uploaded)
        return SelectionResult(
            indices[top_k_indices(aggregate[indices], k)], uploads, dimension
        )
