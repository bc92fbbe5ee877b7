"""Unidirectional top-k GS — Fig. 4 baseline [22].

Clients upload their top-k pairs; the server keeps the *union* of all
uploaded indices in the downlink.  With N clients selecting disjoint
indices the downlink can carry up to k·N pairs, which is the communication
blow-up the bidirectional schemes avoid (paper Section III-B).
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.base import ClientUpload, SelectionResult, Sparsifier
from repro.sparsify.topk import top_k_indices


class UnidirectionalTopK(Sparsifier):
    """Top-k uplink, union downlink (no downlink budget)."""

    name = "unidirectional-top-k"

    def client_select(self, residual: np.ndarray, k: int) -> np.ndarray:
        return top_k_indices(residual, k)

    def server_select(
        self, uploads: list[ClientUpload], k: int, dimension: int
    ) -> SelectionResult:
        self.validate_k(k, dimension)
        if not uploads:
            raise ValueError("no uploads to select from")
        uploaded = np.zeros(dimension, dtype=bool)
        for up in uploads:
            uploaded[up.payload.indices] = True
        return SelectionResult(np.flatnonzero(uploaded), uploads, dimension)
