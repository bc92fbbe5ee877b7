"""Heterogeneous client resources — the paper's "future work" extension.

Section VI: "Future work can also consider heterogeneous client resources,
where it may be beneficial to select a subset of clients in each training
round...".  This module provides:

- :class:`ClientProfile` — per-client computation and communication speed
  multipliers.
- :class:`HeterogeneousTimingModel` — a drop-in extension of
  :class:`~repro.simulation.timing.TimingModel` where a synchronous round
  is as slow as its slowest *participating* client (the straggler effect),
  exposing the same ``sparse_round``/``dense_round``/``local_round``
  surface plus participant-aware variants.
- :class:`ClientSampler` — seeded per-round client-subset selection
  (uniform or speed-weighted), used by the trainers' ``sampler`` option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.simulation.timing import RoundTiming, TimingModel


@dataclass(frozen=True)
class ClientProfile:
    """Relative speeds of one client (1.0 = the baseline of the paper).

    ``compute_factor`` multiplies local computation time and
    ``comm_factor`` multiplies that client's transfer time; both > 0.
    A straggler has factors > 1.
    """

    client_id: int
    compute_factor: float = 1.0
    comm_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_factor <= 0 or self.comm_factor <= 0:
            raise ValueError("speed factors must be positive")


class HeterogeneousTimingModel(TimingModel):
    """Synchronous-round timing dominated by the slowest participant."""

    def __init__(
        self,
        dimension: int,
        comm_time: float,
        profiles: "list[ClientProfile] | Mapping[int, ClientProfile]",
    ) -> None:
        super().__init__(dimension, comm_time)
        if isinstance(profiles, Mapping) or (
            not isinstance(profiles, (list, tuple)) and hasattr(profiles, "values")
        ):
            # A per-cid mapping (e.g. a population-scale ProfileMap whose
            # values() is the distribution's support) is used as-is.
            self.profiles = profiles
            return
        if not profiles:
            raise ValueError("need at least one client profile")
        ids = [p.client_id for p in profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate client ids in profiles")
        self.profiles = {p.client_id: p for p in profiles}

    def _slowest(self, participants: list[int] | None) -> ClientProfile:
        profiles = (
            list(self.profiles.values())
            if participants is None
            else [self.profiles[cid] for cid in participants]
        )
        if not profiles:
            raise ValueError("no participants")
        compute = max(p.compute_factor for p in profiles)
        comm = max(p.comm_factor for p in profiles)
        # Synthetic "slowest corner" profile: a synchronous round waits
        # for the slowest computation AND the slowest transfer, which may
        # belong to different clients.
        return ClientProfile(client_id=-1, compute_factor=compute,
                             comm_factor=comm)

    def sparse_round_for(
        self,
        uplink_elements: int,
        downlink_elements: int,
        participants: list[int] | None = None,
    ) -> RoundTiming:
        """Sparse round slowed by the slowest participating client."""
        base = super().sparse_round(uplink_elements, downlink_elements)
        worst = self._slowest(participants)
        return RoundTiming(
            computation=base.computation * worst.compute_factor,
            uplink=base.uplink * worst.comm_factor,
            downlink=base.downlink * worst.comm_factor,
        )

    def dense_round_for(self, participants: list[int] | None = None
                        ) -> RoundTiming:
        base = super().dense_round()
        worst = self._slowest(participants)
        return RoundTiming(
            computation=base.computation * worst.compute_factor,
            uplink=base.uplink * worst.comm_factor,
            downlink=base.downlink * worst.comm_factor,
        )

    # The plain TimingModel surface reports the all-clients round so the
    # model stays a drop-in replacement for trainers without samplers.
    def sparse_round(self, uplink_elements: int, downlink_elements: int
                     ) -> RoundTiming:
        return self.sparse_round_for(uplink_elements, downlink_elements, None)

    def dense_round(self) -> RoundTiming:
        return self.dense_round_for(None)


class ClientSampler:
    """Seeded per-round selection of a client subset.

    ``strategy`` is "uniform" (each round draws ``count`` clients
    uniformly without replacement) or "fastest-biased" (draw probability
    inversely proportional to the client's round slowdown — the natural
    heuristic for straggler avoidance the paper's future-work remark
    points at).
    """

    STRATEGIES = ("uniform", "fastest-biased")

    def __init__(
        self,
        client_ids: list[int],
        count: int,
        strategy: str = "uniform",
        profiles: list[ClientProfile] | None = None,
        seed: int = 0,
    ) -> None:
        if not client_ids:
            raise ValueError("need at least one client")
        if not 1 <= count <= len(client_ids):
            raise ValueError(
                f"count must be in [1, {len(client_ids)}], got {count}"
            )
        if strategy not in self.STRATEGIES:
            raise ValueError(f"strategy must be one of {self.STRATEGIES}")
        if strategy == "fastest-biased" and profiles is None:
            raise ValueError("fastest-biased sampling needs client profiles")
        self.client_ids = list(client_ids)
        self.count = count
        self.strategy = strategy
        self._rng = np.random.default_rng(seed)
        if strategy == "fastest-biased":
            assert profiles is not None
            slowdown = {
                p.client_id: max(p.compute_factor, p.comm_factor)
                for p in profiles
            }
            weights = np.array(
                [1.0 / slowdown.get(cid, 1.0) for cid in self.client_ids]
            )
            self._weights = weights / weights.sum()
        else:
            self._weights = None

    def sample(self) -> list[int]:
        """Draw this round's participant ids (sorted)."""
        chosen = self._rng.choice(
            self.client_ids,
            size=self.count,
            replace=False,
            p=self._weights,
        )
        return sorted(int(c) for c in chosen)
