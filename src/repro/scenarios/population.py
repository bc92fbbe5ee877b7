"""Population-scale deployment scenarios: O(cohort) rounds at any N.

:class:`~repro.scenarios.scenario.ScenarioSampler` asks its availability
process for the *full* online set each round — O(population).  The
population-scale path inverts the query: draw candidate clients from
``[0, N)`` and ask the :class:`~repro.simulation.population.
PopulationModel` whether each one is online (a pure per-cid law), keeping
the first ``cohort_size`` distinct online hits.  Per-round cost is
O(cohort), independent of N, and only ever-queried clients hold any
state.

:func:`build_population_scenario` is the population analogue of
:meth:`~repro.scenarios.scenario.DeploymentScenario.build`: same
:class:`~repro.scenarios.scenario.ScenarioHooks` (the deadline gate is
already O(cohort) — it only sees the round's uploads), same stats; the
gate times arrivals with the run's timing model, which carries the
model's per-cid :class:`~repro.simulation.population.ProfileMap`
instead of an enumerated profile list.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.config import ScenarioConfig
from repro.scenarios.scenario import (
    COHORT_TAG,
    DeploymentScenario,
    ScenarioStats,
)
from repro.simulation.population import PopulationModel
from repro.simulation.timing import TimingModel


class PopulationSampler:
    """Seeded O(cohort) cohort sampler over a virtual population.

    Each round draws its own RNG stream ``(seed, COHORT_TAG, round)`` (the
    :class:`~repro.scenarios.scenario.ScenarioSampler`'s tag, keyed per
    round instead of advancing) and
    rejection-samples candidate ids until ``cohort_size`` distinct online
    clients are found.  The candidate sequence is a pure function of
    ``(seed, round)`` and the availability law is a pure function of
    ``(seed, cid, round)``, so the cohort is deterministic regardless of
    execution backend — the same contract the list-based sampler keeps.

    When availability is so low that ``MAX_ATTEMPTS`` candidate batches
    cannot fill the cohort, the round runs with the online clients found
    (never empty: offline candidates seen along the way fill in, mirroring
    the list-based sampler's "no one is online" full-population fallback).
    """

    MAX_ATTEMPTS = 64

    def __init__(
        self,
        model: PopulationModel,
        count: int,
        over_selection: float = 0.0,
        seed: int = 0,
        stats: ScenarioStats | None = None,
    ) -> None:
        if count < 1:
            raise ValueError(
                "population sampling needs an explicit cohort size >= 1 "
                "(count=0 'all available clients' is O(population))"
            )
        if over_selection < 0.0:
            raise ValueError("over_selection must be >= 0")
        self.model = model
        self.count = count
        self.over_selection = over_selection
        self.seed = seed
        self.stats = stats
        self._round = 0

    @property
    def cohort_size(self) -> int:
        """Clients sampled per round before the deadline gate."""
        return int(np.ceil(self.count * (1.0 + self.over_selection)))

    def sample(self) -> list[int]:
        """Draw the next round's cohort (sorted ids), O(cohort)."""
        self._round += 1
        size = min(self.cohort_size, self.model.population)
        rng = np.random.default_rng((self.seed, COHORT_TAG, self._round))
        online: list[int] = []
        offline: list[int] = []
        seen: set[int] = set()
        for _ in range(self.MAX_ATTEMPTS):
            batch = rng.integers(
                0, self.model.population, size=max(2 * size, 8)
            )
            for cid in batch:
                cid = int(cid)
                if cid in seen:
                    continue
                seen.add(cid)
                if self.model.is_online(cid, self._round):
                    online.append(cid)
                    if len(online) >= size:
                        break
                else:
                    offline.append(cid)
            if len(online) >= size:
                break
        cohort = online[:size]
        if len(cohort) < size:
            # Deep outage: fill from the offline candidates in draw order
            # (the population analogue of the list sampler's fallback to
            # the full population when nobody is online).
            cohort = cohort + offline[: size - len(cohort)]
        if self.stats is not None:
            self.stats.record_available(len(online))
        return sorted(cohort)


def build_population_scenario(
    config: ScenarioConfig,
    model: PopulationModel,
    timing: TimingModel,
) -> DeploymentScenario:
    """Materialize ``config`` over the virtual population ``model``.

    The population analogue of :meth:`DeploymentScenario.build`: requires
    an explicit ``participants`` target (cohort size); ``model`` is the
    :meth:`PopulationModel.from_scenario_config` law the caller already
    built; ``timing`` carries its per-cid profiles (a
    :class:`~repro.simulation.heterogeneous.HeterogeneousTimingModel`
    over ``model.profiles``) and times every client of the run.  The returned
    scenario plugs into trainers exactly like a list-based one
    (``.sampler`` / ``.hooks``).
    """
    if config.participants < 1:
        raise ValueError(
            "population scenarios need an explicit participants target "
            "(participants=0 means 'all available', which is O(population))"
        )
    stats = ScenarioStats()
    sampler = PopulationSampler(
        model,
        count=config.participants,
        over_selection=config.over_selection,
        seed=config.seed,
        stats=stats,
    )
    return DeploymentScenario.assemble(config, sampler, stats, timing)
