"""Population models: per-client laws without enumerating the population.

The list-based processes in :mod:`repro.scenarios.availability` and
:meth:`repro.scenarios.config.ScenarioConfig.build_profiles` draw every
client from one shared sequential RNG — O(population) per query and per
construction, fine at 96 clients, structurally impossible at a million.
This module provides the *population-scale* counterparts: every per-client
quantity is a pure function of ``(seed, client_id)`` (plus the round index
for availability), so any client can be asked about on demand, in any
order, in any process, without touching the other N−1.

Like :class:`repro.data.virtual.VirtualFederation` these are new
generative families in the same statistical family as the list-based
ones — not reorderings of them (the shared-stream draws are not
per-client decomposable).  The determinism contract of the scenario
subsystem carries over unchanged: availability is a pure function of
``(construction args, client_id, round_index)`` and profiles of
``(construction args, client_id)``, so population runs stay bit-identical
across execution backends.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.heterogeneous import ClientProfile

#: straggler-designation stream tag: ``ScenarioConfig.build_profiles``'
#: one shared stream, and the per-cid streams here
PROFILE_TAG = 0x51C0
#: Markov-chain stream tag: ``MarkovAvailability``'s one shared stream,
#: and the per-cid chains here
MARKOV_TAG = 0xC4A1
#: diurnal-phase stream tag: ``DiurnalAvailability``'s one shared
#: stream, and the per-cid phases here
DIURNAL_TAG = 0xD1A7

POPULATION_AVAILABILITY_KINDS = ("always", "markov", "diurnal")


class ProfileMap:
    """Read-only per-cid profile mapping derived from seeds.

    Satisfies the mapping surface a
    :class:`~repro.simulation.heterogeneous.HeterogeneousTimingModel`
    times clients by (``in`` / ``[]`` / ``get`` / ``values``) while
    deriving each profile on demand: client ``cid`` is a straggler iff
    its personal uniform draw falls below ``slow_fraction``.
    ``values()`` returns the *support* of the distribution (the distinct
    slow/fast profiles), which is exactly what the timing model's
    all-clients worst-corner fallback needs — enumerating a million
    identical profiles would answer the same question in O(population).
    """

    def __init__(
        self,
        population: int,
        slow_fraction: float = 0.0,
        slow_factor: float = 4.0,
        seed: int = 0,
    ) -> None:
        if population < 1:
            raise ValueError("population must be positive")
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError("slow_fraction must be in [0, 1]")
        if slow_factor <= 0.0:
            raise ValueError("slow_factor must be positive")
        self.population = population
        self.slow_fraction = slow_fraction
        self.slow_factor = slow_factor
        self.seed = seed

    def is_slow(self, client_id: int) -> bool:
        """Pure per-cid straggler designation."""
        if self.slow_fraction == 0.0:
            return False
        rng = np.random.default_rng((self.seed, PROFILE_TAG, int(client_id)))
        return bool(rng.random() < self.slow_fraction)

    def __contains__(self, client_id: int) -> bool:
        return 0 <= int(client_id) < self.population

    def __getitem__(self, client_id: int) -> ClientProfile:
        cid = int(client_id)
        if cid not in self:
            raise KeyError(client_id)
        factor = self.slow_factor if self.is_slow(cid) else 1.0
        return ClientProfile(
            client_id=cid, compute_factor=factor, comm_factor=factor
        )

    def get(self, client_id: int, default=None):
        if client_id in self:
            return self[client_id]
        return default

    def values(self) -> list[ClientProfile]:
        """The distribution's support: the distinct profiles that occur."""
        support = [ClientProfile(client_id=-2)]
        if self.slow_fraction > 0.0:
            support.append(ClientProfile(
                client_id=-3,
                compute_factor=self.slow_factor,
                comm_factor=self.slow_factor,
            ))
        return support


class PopulationModel:
    """Size-N population with per-cid availability and profile laws.

    ``availability`` is one of :data:`POPULATION_AVAILABILITY_KINDS`:

    - ``"always"`` — every client online every round (O(1));
    - ``"markov"`` — an *independent* on/off chain per client, seeded
      ``(seed, MARKOV_TAG, cid)``; queried rounds replay the chain from
      its last cached state, so sequential queries are O(1) amortized and
      the realization is one fixed function of ``(seed, cid, round)``
      regardless of query order;
    - ``"diurnal"`` — duty cycle with a per-cid seeded phase (O(1)).

    Only ever-queried clients hold cache entries, so memory tracks the
    ever-sampled set, never the population.
    """

    def __init__(
        self,
        population: int,
        availability: str = "always",
        p_drop: float = 0.1,
        p_recover: float = 0.5,
        period: int = 24,
        duty: float = 0.5,
        slow_fraction: float = 0.0,
        slow_factor: float = 4.0,
        seed: int = 0,
    ) -> None:
        if population < 1:
            raise ValueError("population must be positive")
        if availability not in POPULATION_AVAILABILITY_KINDS:
            raise ValueError(
                f"unknown population availability {availability!r}; "
                f"expected one of {POPULATION_AVAILABILITY_KINDS}"
            )
        if not 0.0 <= p_drop <= 1.0 or not 0.0 <= p_recover <= 1.0:
            raise ValueError("transition probabilities must be in [0, 1]")
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        self.population = population
        self.availability = availability
        self.p_drop = p_drop
        self.p_recover = p_recover
        self.period = period
        self.duty = duty
        self.seed = seed
        self.profiles = ProfileMap(
            population, slow_fraction=slow_fraction,
            slow_factor=slow_factor, seed=seed,
        )
        self._window = max(1, int(round(duty * period)))
        #: cid -> (last replayed round, online state, chain RNG)
        self._markov: dict[int, tuple[int, bool, np.random.Generator]] = {}

    @classmethod
    def from_scenario_config(cls, config, population: int) -> "PopulationModel":
        """Derive the population laws from a ``ScenarioConfig``.

        Trace availability has no population analogue (a trace *is* an
        enumeration); everything else maps field-for-field.
        """
        if config.availability not in POPULATION_AVAILABILITY_KINDS:
            raise ValueError(
                f"availability {config.availability!r} has no "
                f"population-scale law (supported: "
                f"{POPULATION_AVAILABILITY_KINDS})"
            )
        return cls(
            population=population,
            availability=config.availability,
            p_drop=config.p_drop,
            p_recover=config.p_recover,
            period=config.period,
            duty=config.duty,
            slow_fraction=config.slow_fraction,
            slow_factor=config.slow_factor,
            seed=config.seed,
        )

    # ------------------------------------------------------------------
    def is_online(self, client_id: int, round_index: int) -> bool:
        """Whether ``client_id`` is online in 1-based ``round_index``.

        A pure function of ``(construction args, client_id,
        round_index)`` — repeated queries (in any order) agree.
        """
        if round_index < 1:
            raise ValueError("round_index is 1-based and must be >= 1")
        cid = int(client_id)
        if not 0 <= cid < self.population:
            raise ValueError(
                f"client_id {cid} outside population [0, {self.population})"
            )
        if self.availability == "always":
            return True
        if self.availability == "diurnal":
            phase = int(np.random.default_rng(
                (self.seed, DIURNAL_TAG, cid)
            ).integers(0, self.period))
            return (round_index - 1 + phase) % self.period < self._window
        return self._markov_state(cid, round_index)

    def _markov_state(self, cid: int, round_index: int) -> bool:
        """Replay this client's chain up to ``round_index`` (cached).

        A query for an *earlier* round than the cache restarts the chain
        from round 1 — the same deterministic realization either way,
        since the chain RNG is a pure function of ``(seed, cid)``.
        """
        cached = self._markov.get(cid)
        if cached is None or cached[0] > round_index:
            # Round 0 is the implicit "all online" start; round 1's state
            # is already a draw, matching the list-based chain.
            state, rng = True, np.random.default_rng(
                (self.seed, MARKOV_TAG, cid)
            )
            replayed = 0
        else:
            replayed, state, rng = cached
        while replayed < round_index:
            draw = float(rng.random())
            state = draw >= self.p_drop if state else draw < self.p_recover
            replayed += 1
        self._markov[cid] = (replayed, state, rng)
        return state
