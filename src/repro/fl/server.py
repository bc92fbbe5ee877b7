"""FL server: weighted aggregation of selected residual elements.

Implements Algorithm 1, lines 8–11: given the downlink index set ``J``
(chosen by the sparsifier) the server computes

    b_j = (1/C) Σ_i C_i a_ij · 1[j ∈ J_i]       for j ∈ J,

i.e. a client contributes to coordinate ``j`` only if it actually uploaded
that coordinate.
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.base import (
    ClientUpload,
    DownlinkMessage,
    SelectionResult,
)
from repro.sparsify.base import SparseVector


class Server:
    """Aggregator for the synchronized-GS protocol.

    Stateless by default (the paper's weighted mean).  An optional
    :class:`~repro.fl.robust.RobustAggregator` replaces the mean with a
    Byzantine-tolerant statistic; with ``aggregator=None`` the original
    mean path runs byte-for-byte unchanged.
    """

    def __init__(self, dimension: int, aggregator=None) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.aggregator = aggregator

    def aggregate(
        self,
        uploads: list[ClientUpload],
        selection: SelectionResult,
        total_weight: float | None = None,
        commit: bool = True,
    ) -> DownlinkMessage:
        """Aggregate uploaded residuals over the selected index set.

        The mean accumulates into one dense D-vector, one upload at a
        time.  Indices are unique inside one upload, so a plain ``+=``
        scatter adds every pair exactly once, and looping uploads in
        order gives each coordinate its terms in upload order — the sum
        is a fixed float expression, bit-identical on every backend.

        ``total_weight`` overrides the normalizing constant ``C``.  By
        default ``C`` is the received uploads' total sample count; under
        deadline-driven partial aggregation a deployment scenario may
        instead pass the *sampled cohort's* total weight, so an update
        missing some uploads is scaled down rather than renormalized
        (unbiased with respect to the cohort).

        ``commit`` only matters with a robust aggregator: counterfactual
        re-aggregations (deadline probes) pass ``commit=False`` so a
        stateful aggregator's reputation/flag state never observes a
        round that didn't happen.
        """
        if self.aggregator is not None:
            return self.aggregator.aggregate(
                uploads,
                selection,
                self.dimension,
                total_weight=total_weight,
                commit=commit,
            )
        if not uploads:
            raise ValueError("no uploads to aggregate")
        if total_weight is None:
            total_weight = float(sum(up.sample_count for up in uploads))
        elif total_weight <= 0:
            raise ValueError("total_weight must be positive")
        selected = selection.indices
        dense = np.zeros(self.dimension)
        for up in uploads:
            dense[up.payload.indices] += (
                up.sample_count / total_weight
            ) * up.payload.values
        # The selection sorted J and checked it unique and in range once,
        # when server_select built it, and the gather is fresh float64:
        # take the trusted constructor, no second sort or scan.
        payload = SparseVector.from_sorted(
            selected, dense[selected], self.dimension
        )
        return DownlinkMessage(payload=payload)
