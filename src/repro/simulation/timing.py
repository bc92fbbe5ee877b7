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
- Client speeds (Section VI's heterogeneous clients): ``profiles`` maps a
  client id to its compute and comm multipliers.  A synchronous round is
  as slow as its slowest participant — the slowest computation and the
  slowest transfer, which may belong to different clients; an upload
  arrives at its own client's speed; a broadcast is paced by the cohort's
  slowest link.  A client missing from the map runs at unit speed, and
  the map is empty here, so every client does.

This class is the one place a per-client time is computed: the round
engine's charge, the deadline gate's arrival times and the async
engine's arrival queue all ask it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


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

    ``participants`` (the round's client ids) picks whose speeds pace a
    round; ``None`` means every client the map knows — for a population
    map, the support of its speed distribution.
    """

    #: normalized local-computation time per round (1 in the paper)
    computation_time = 1.0
    #: cost of a sparse (index, value) pair in dense elements (footnote 5)
    pair_overhead = 2.0
    #: client id -> :class:`~repro.simulation.heterogeneous.ClientProfile`
    #: (anything with ``get``/``values``); empty: every client at unit speed
    profiles = MappingProxyType({})

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

    def _speeds(self, client_ids) -> list[tuple[float, float]]:
        """``(compute, comm)`` factors of each client in ``client_ids``
        (of every known profile when None); unit for an unknown client."""
        profiles = self.profiles
        chosen = (profiles.values() if client_ids is None
                  else [profiles.get(cid) for cid in client_ids])
        return [(1.0, 1.0) if p is None else (p.compute_factor, p.comm_factor)
                for p in chosen]

    def _slowest(self, participants) -> tuple[float, float]:
        """The slowest ``(compute, comm)`` factors among the participants;
        1.0 each when no profile is known."""
        speeds = self._speeds(participants)
        if participants is not None and not speeds:
            raise ValueError("no participants")
        return (
            max((compute for compute, _ in speeds), default=1.0),
            max((comm for _, comm in speeds), default=1.0),
        )

    def _paced_round(self, uplink: float, downlink: float,
                     participants) -> RoundTiming:
        compute, comm = self._slowest(participants)
        return RoundTiming(
            computation=self.computation_time * compute,
            uplink=uplink * comm,
            downlink=downlink * comm,
        )

    def sparse_round(self, uplink_elements: int, downlink_elements: int,
                     participants=None) -> RoundTiming:
        """Round using sparse pair encoding in both directions."""
        return self._paced_round(
            self._direction_time(uplink_elements, sparse=True),
            self._direction_time(downlink_elements, sparse=True),
            participants,
        )

    def dense_round(self, participants=None) -> RoundTiming:
        """Round exchanging the full dense gradient (FedAvg's averaging
        round); equal to ``sparse_round(D, D)``, since a sparse payload
        is never charged more than the dense vector."""
        dense = self._direction_time(self.dimension, sparse=False)
        return self._paced_round(dense, dense, participants)

    def local_round(self, participants=None) -> RoundTiming:
        """Round with no communication (FedAvg between aggregations)."""
        return self._paced_round(0.0, 0.0, participants)

    def arrival_times(self, client_ids, uplink_elements) -> np.ndarray:
        """Each upload's compute + sparse-uplink finish time, at its own
        client's speed (the deadline gate and the async arrival queue)."""
        return np.array([
            self.computation_time * compute
            + self._direction_time(elements, sparse=True) * comm
            for (compute, comm), elements in zip(
                self._speeds(client_ids), uplink_elements
            )
        ])

    def broadcast_time(self, client_ids, elements: int) -> float:
        """Sparse downlink of ``elements`` to ``client_ids``, paced by
        their slowest link."""
        return (self._direction_time(elements, sparse=True)
                * self._slowest(client_ids)[1])

    def fedavg_period(self, k: int) -> int:
        """FedAvg aggregation period with comm budget matched to k-GS.

        The paper sends the full gradient every ⌊D/(2k)⌋ rounds so that
        the *average* communication per round equals a k-element GS round
        (the 2 accounts for index transmission).  Clamped to >= 1.
        """
        if k < 1:
            raise ValueError("k must be positive")
        return max(1, self.dimension // (int(self.pair_overhead) * k))
