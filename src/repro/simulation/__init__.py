"""Timing and cost-model substrate.

The paper simulates the FL system under *normalized time*: computation of
one round (all clients in parallel) costs 1, and the communication time β
is "the time required for sending the entire D-dimensional gradient vector
(both uplink and downlink) between all clients and the server", scaling
proportionally with the number of elements actually sent (footnote 3), with
sparse transmissions paying a 2x factor for index transmission
(footnote 5).  :class:`~repro.simulation.timing.TimingModel` implements
exactly this accounting.

:mod:`repro.simulation.cost` provides synthetic convex ``t(k, l)`` families
satisfying Assumption 2 of the paper; they let the online-learning
algorithms (and the regret theorems) be tested in isolation from the
learning system.
"""

from repro.simulation.cost import (
    CostOracle,
    NoisySignOracle,
    QuadraticCost,
    TimePerLossCost,
)
from repro.simulation.heterogeneous import (
    ClientProfile,
    ClientSampler,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import RoundTiming, TimingModel

__all__ = [
    "ClientProfile",
    "ClientSampler",
    "CostOracle",
    "HeterogeneousTimingModel",
    "NoisySignOracle",
    "QuadraticCost",
    "RoundTiming",
    "TimePerLossCost",
    "TimingModel",
]
