"""Normalized-time accounting for one FL round.

Model (paper Section V, footnotes 3 and 5):

- Computation: all clients compute in parallel; one round costs
  ``computation_time`` = 1 (the paper's normalization).
- Communication: ``comm_time`` (β) is the time to ship the full
  D-dimensional gradient **in both directions**.  A full one-direction
  transfer therefore costs β/2.  Transfers of fewer elements scale
  proportionally; sparse transfers carry (index, value) pairs and pay a
  factor ``pair_overhead`` = 2 (footnote 5 — this is why the comm-matched
  FedAvg baseline communicates every ⌊D/(2k)⌋ rounds).
- Clients communicate in parallel with the server (per footnote 3, β
  covers "between all clients and the server"); the uplink time of a round
  is governed by the largest single-client payload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RoundTiming:
    """Breakdown of one round's normalized time."""

    computation: float
    uplink: float
    downlink: float

    @property
    def communication(self) -> float:
        return self.uplink + self.downlink

    @property
    def total(self) -> float:
        return self.computation + self.communication


class TimingModel:
    """Computes normalized round times for sparse and dense exchanges.

    Parameters
    ----------
    dimension:
        Flat model dimension D.
    comm_time:
        β — normalized time of a full bidirectional D-element exchange.
    """

    #: normalized local-computation time per round (1 in the paper)
    computation_time = 1.0
    #: cost of a sparse (index, value) pair in dense elements (footnote 5)
    pair_overhead = 2.0

    def __init__(self, dimension: int, comm_time: float) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if comm_time < 0:
            raise ValueError("comm_time must be nonnegative")
        self.dimension = dimension
        self.comm_time = comm_time

    # ------------------------------------------------------------------
    def _direction_time(self, elements: int, sparse: bool) -> float:
        """Time for one direction carrying ``elements`` gradient entries."""
        if elements < 0:
            raise ValueError("element count cannot be negative")
        per_full_direction = self.comm_time / 2.0
        effective = elements * (self.pair_overhead if sparse else 1.0)
        # A sparse payload never costs more than just sending the dense
        # vector (a real system would fall back to dense encoding).
        effective = min(effective, self.dimension)
        return per_full_direction * effective / self.dimension

    def sparse_round(self, uplink_elements: int, downlink_elements: int) -> RoundTiming:
        """Round using sparse pair encoding in both directions."""
        return RoundTiming(
            computation=self.computation_time,
            uplink=self._direction_time(uplink_elements, sparse=True),
            downlink=self._direction_time(downlink_elements, sparse=True),
        )

    def dense_round(self) -> RoundTiming:
        """Round exchanging the full dense gradient (always-send-all)."""
        return RoundTiming(
            computation=self.computation_time,
            uplink=self._direction_time(self.dimension, sparse=False),
            downlink=self._direction_time(self.dimension, sparse=False),
        )

    def local_round(self) -> RoundTiming:
        """Round with no communication (FedAvg between aggregations)."""
        return RoundTiming(
            computation=self.computation_time, uplink=0.0, downlink=0.0
        )

    def fedavg_period(self, k: int) -> int:
        """FedAvg aggregation period with comm budget matched to k-GS.

        The paper sends the full gradient every ⌊D/(2k)⌋ rounds so that
        the *average* communication per round equals a k-element GS round
        (the 2 accounts for index transmission).  Clamped to >= 1.
        """
        if k < 1:
            raise ValueError("k must be positive")
        return max(1, self.dimension // (int(self.pair_overhead) * k))
