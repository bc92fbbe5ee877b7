"""The synchronized sparse-gradient FL loop — Algorithm 1 of the paper.

One round of :class:`FLTrainer`:

1. Every client adds its minibatch gradient (computed at the synchronized
   weights ``w(m-1)``) to its residual ``a_i`` and uploads its selected
   (index, value) pairs.
2. The sparsifier chooses the downlink index set ``J``; the server
   aggregates ``b_j``.
3. All clients apply the identical update
   ``w(m) = w(m-1) − η · dense(B)`` — weights stay synchronized — and
   zero their residual at ``J ∩ J_i``.
4. The timing model charges computation plus uplink/downlink transfer.

The round protocol itself lives in :class:`repro.fl.engine.RoundEngine`
(shared with the adaptive-k trainer and the baselines); this class is the
constant-or-scheduled-k façade over it.  ``backend`` selects how the
local steps execute — ``"serial"`` (the reference loop) or
``"vectorized"`` (one batched pass over all participants, identical
histories, faster wall-clock).

The per-round sparsity ``k`` may be a constant or a schedule (mapping from
round index to k), which is how learned {k_m} sequences from the adaptive
algorithm are replayed in the Fig. 7/8 cross-application experiments.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.partition import FederatedDataset
from repro.fl.engine import EngineFacade, RoundEngine
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.nn.flat import FlatModel
from repro.simulation.timing import TimingModel
from repro.sparsify.base import Sparsifier

KSchedule = Callable[[int], int]


class FLTrainer(EngineFacade):
    """Federated training with a pluggable gradient sparsifier.

    Parameters
    ----------
    model:
        The shared model; its weights represent the synchronized ``w``.
    federation:
        Client shards plus the global test pool.
    sparsifier:
        Any :class:`~repro.sparsify.base.Sparsifier`.
    timing:
        Normalized-time model; if omitted, a zero-communication model is
        used (useful in unit tests that only check learning behaviour).
    scenario:
        Optional :class:`repro.scenarios.DeploymentScenario` wrapping the
        run in a client population with availability churn and
        deadline-driven partial aggregation; supplies both the per-round
        sampler and the engine's persistent scenario hooks (mutually
        exclusive with ``sampler``).  Scenarios are stateful — build a
        fresh one per trainer.

    Every other keyword is an *engine setting*, forwarded untouched to
    :class:`~repro.fl.engine.RoundEngine` — the one signature that
    declares them and their defaults (a misspelt one fails there):

    learning_rate:
        SGD step size η (paper: 0.01).
    batch_size:
        Client minibatch size (paper: 32).
    eval_every:
        Evaluate global loss/accuracy every this many rounds (1 = always).
    eval_max_samples:
        Cap on evaluation-pool size for speed; the pool is subsampled
        deterministically once at construction.
    sampler:
        Optional per-round client-subset sampler (see
        :class:`repro.simulation.heterogeneous.ClientSampler`); when
        given, only sampled clients compute and upload in a round — the
        heterogeneous-clients extension of the paper's Section VI.
    backend:
        Execution backend for the local-step phase: ``"serial"``
        (default), ``"vectorized"``, or an
        :class:`~repro.fl.backends.ExecutionBackend` instance.
    spill_after:
        When positive, clients idle for this many rounds spill their
        dense residual/velocity to a sparse store (and release lazy
        virtual datasets) — exact, so results are identical with
        spilling on or off; it only bounds idle-client memory in
        population-scale runs.  0 (default) disables spilling.
    telemetry:
        Optional :class:`repro.obs.Telemetry` receiving round traces and
        counters.  Observation-only — traced runs are bit-identical to
        untraced ones.
    """

    #: the engine this façade builds (the async trainer swaps it)
    engine_class = RoundEngine

    def __init__(
        self,
        model: FlatModel,
        federation: FederatedDataset,
        sparsifier: Sparsifier,
        timing: TimingModel | None = None,
        scenario=None,
        **engine_settings,
    ) -> None:
        if timing is None:
            timing = TimingModel(dimension=model.dimension, comm_time=0.0)
        self.engine = self.engine_class(
            model, federation, sparsifier, timing,
            **_apply_scenario(scenario, engine_settings),
        )

    # ------------------------------------------------------------------
    def step(self, k: int) -> RoundRecord:
        """Run one training round with k-element GS and record it."""
        return self.engine.run_round(k)

    # ------------------------------------------------------------------
    def run(
        self, num_rounds: int, k: int | Sequence[int] | KSchedule
    ) -> TrainingHistory:
        """Run ``num_rounds`` rounds with constant, listed, or scheduled k."""
        schedule = _as_schedule(k, self.model.dimension)
        for m in range(num_rounds):
            self.step(schedule(self.engine.round_index + 1))
            del m
        return self.history

    def run_for_time(
        self,
        time_budget: float,
        k: int | Sequence[int] | KSchedule,
        max_rounds: int = 1_000_000,
    ) -> TrainingHistory:
        """Rounds of constant, listed, or scheduled k until the normalized
        clock reaches ``time_budget`` (or ``max_rounds``)."""
        schedule = _as_schedule(k, self.model.dimension)
        while self.clock < time_budget and self.round_index < max_rounds:
            self.step(schedule(self.round_index + 1))
        return self.history

    def run_until_loss(
        self,
        target_loss: float,
        k: int | Sequence[int] | KSchedule,
        max_rounds: int = 100_000,
    ) -> TrainingHistory:
        """Run until global loss <= ``target_loss`` (or ``max_rounds``).

        Used by the Fig. 1 Assumption-1 experiment, where training runs
        with one k until a target loss ψ is reached and then switches.
        The stopping rule needs the loss every round, so the engine is
        asked to evaluate it once per round and record it (accuracy keeps
        the ``eval_every`` cadence) — no duplicate evaluation outside the
        history as in earlier revisions.
        """
        schedule = _as_schedule(k, self.model.dimension)
        while self.engine.round_index < max_rounds:
            record = self.engine.run_round(
                schedule(self.engine.round_index + 1), ensure_loss=True
            )
            if record.loss <= target_loss:
                break
        return self.history


def _apply_scenario(scenario, engine_settings: dict) -> dict:
    """Engine settings with a deployment scenario's sampler, hooks and
    aggregator merged in.

    Duck-typed (``.sampler``/``.hooks``/``.aggregator`` attributes) so
    this module does not import :mod:`repro.scenarios`, which imports
    the engine back.
    """
    if scenario is None:
        return engine_settings
    if engine_settings.get("sampler") is not None:
        raise ValueError(
            "pass either a scenario or a sampler, not both: the scenario "
            "provides its own availability-gated sampler"
        )
    return {
        **engine_settings,
        "sampler": scenario.sampler,
        "scenario_hooks": scenario.hooks,
        "aggregator": getattr(scenario, "aggregator", None),
    }


def _as_schedule(
    k: int | Sequence[int] | KSchedule, dimension: int
) -> KSchedule:
    """Normalize a k specification into a function round_index -> k."""
    if callable(k):
        return k
    if isinstance(k, (int, np.integer)):
        constant = int(k)
        return lambda m: constant
    sequence = [int(v) for v in k]
    if not sequence:
        raise ValueError("empty k sequence")
    last = sequence[-1]

    def schedule(m: int) -> int:
        # Rounds are 1-based; hold the last value past the end.
        if m - 1 < len(sequence):
            return min(sequence[m - 1], dimension)
        return min(last, dimension)

    return schedule
