"""Heterogeneous client resources — the paper's "future work" extension.

Section VI: "Future work can also consider heterogeneous client resources,
where it may be beneficial to select a subset of clients in each training
round...".  This module provides:

- :class:`ClientProfile` — per-client computation and communication speed
  multipliers.
- :class:`HeterogeneousTimingModel` — a
  :class:`~repro.simulation.timing.TimingModel` carrying those profiles;
  the timing model answers every per-client question with them (a round
  as slow as its slowest participant, each upload's arrival, the
  broadcast).
- :class:`ClientSampler` — seeded per-round client-subset selection
  (uniform or speed-weighted), used by the trainers' ``sampler`` option.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.simulation.timing import TimingModel


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
    """A :class:`~repro.simulation.timing.TimingModel` that knows its
    clients' speeds: ``profiles`` is a profile list (unique ids) or a
    per-cid mapping, used as-is."""

    def __init__(
        self,
        dimension: int,
        comm_time: float,
        profiles: "list[ClientProfile] | Mapping[int, ClientProfile]",
    ) -> None:
        super().__init__(dimension, comm_time)
        if not isinstance(profiles, (list, tuple)):
            # A per-cid mapping (e.g. a population-scale ProfileMap whose
            # values() is the distribution's support) is used as-is.
            self.profiles = profiles
            return
        if not profiles:
            raise ValueError("need at least one client profile")
        ids = [p.client_id for p in profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate client ids in profiles")
        self.profiles = MappingProxyType({p.client_id: p for p in profiles})


def check_profiles(profiles, timing: TimingModel) -> None:
    """Raise unless ``profiles`` describes exactly ``timing``'s map: a
    list entry by entry, a mapping only as the timing's own object.

    Client speeds live on the timing model; this guards the callers that
    still hand the same map a second time."""
    if isinstance(profiles, (list, tuple)):
        by_id = {p.client_id: p for p in profiles}
        same = len(by_id) == len(profiles) and by_id == timing.profiles
    else:
        same = profiles is timing.profiles
    if not same:
        raise ValueError(
            "profiles must be the timing model's own map: build the "
            "timing as HeterogeneousTimingModel(dimension, comm_time, "
            "profiles) and let it time every client"
        )


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
