"""Deployment-scenario simulation: availability, churn, deadlines.

Wraps any engine-based trainer in a realistic client population — who is
online each round (:mod:`~repro.scenarios.availability`), which uploads
beat the server deadline (:mod:`~repro.scenarios.deadline`), which
clients are Byzantine and how their poisoned uploads are aggregated
robustly (:mod:`~repro.scenarios.adversary` + :mod:`repro.fl.robust`) —
all declared by a JSON-serializable
:class:`~repro.scenarios.config.ScenarioConfig` and materialized by
:class:`~repro.scenarios.scenario.DeploymentScenario`.
"""

from repro.scenarios.adversary import (
    ADVERSARY_KINDS,
    AdversaryModel,
    AdversaryProcess,
    NoiseAdversary,
    ScaleAdversary,
    SignFlipAdversary,
    TopKAwareAdversary,
    build_adversary,
)
from repro.scenarios.availability import (
    AlwaysAvailable,
    ClientAvailability,
    DiurnalAvailability,
    MarkovAvailability,
    TraceAvailability,
)
from repro.scenarios.config import (
    AVAILABILITY_KINDS,
    DEADLINE_POLICY_KINDS,
    REWEIGHT_MODES,
    ScenarioConfig,
)
from repro.scenarios.deadline import (
    AdaptiveDeadlinePolicy,
    CyclingDeadlinePolicy,
    DeadlineRoundPolicy,
    DeadlineVerdict,
)
from repro.scenarios.population import (
    PopulationSampler,
    build_population_scenario,
)
from repro.scenarios.scenario import (
    DeploymentScenario,
    ScenarioHooks,
    ScenarioSampler,
    ScenarioStats,
    build_availability,
)

__all__ = [
    "ADVERSARY_KINDS",
    "AVAILABILITY_KINDS",
    "DEADLINE_POLICY_KINDS",
    "REWEIGHT_MODES",
    "AdaptiveDeadlinePolicy",
    "AdversaryModel",
    "AdversaryProcess",
    "AlwaysAvailable",
    "ClientAvailability",
    "CyclingDeadlinePolicy",
    "DeadlineRoundPolicy",
    "DeadlineVerdict",
    "DeploymentScenario",
    "DiurnalAvailability",
    "MarkovAvailability",
    "NoiseAdversary",
    "PopulationSampler",
    "ScaleAdversary",
    "ScenarioConfig",
    "ScenarioHooks",
    "ScenarioSampler",
    "ScenarioStats",
    "SignFlipAdversary",
    "TopKAwareAdversary",
    "TraceAvailability",
    "build_adversary",
    "build_availability",
    "build_population_scenario",
]
