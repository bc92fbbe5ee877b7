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
(shared with the baselines); this class is the sparse-GS façade over it.
``backend`` selects how the local steps execute — ``"serial"`` (in
process: grouped passes over cache-sized blocks of participants, one
block at a time) or ``"sharded"`` (a worker pool); both produce
identical histories.

The per-round sparsity ``k`` handed to ``step``/``run``/``run_for_time``
becomes the engine's k rule: a constant, a list or a schedule (mapping
from round index to k — how learned {k_m} sequences are replayed in the
Fig. 7/8 cross-application experiments), or a
:class:`~repro.online.policy.KPolicy`, which learns k online — Fig. 3's
adaptive system, ``FLTrainer(...).run(n, policy)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.partition import FederatedDataset
from repro.fl.engine import EngineFacade, KSchedule, RoundEngine
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.nn.flat import FlatModel
from repro.simulation.timing import TimingModel
from repro.sparsify.base import Sparsifier


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
        Optional per-round cohort: any object whose ``sample()`` returns
        the round's client ids (a :class:`repro.simulation.heterogeneous.
        ClientSampler`, the heterogeneous-clients extension of the paper's
        Section VI, is one; a ``scenario`` supplies its own).  When given,
        only sampled clients compute and upload in a round.
    backend:
        Execution backend for the local-step phase: ``"serial"``
        (default), ``"sharded"``, or an
        :class:`~repro.fl.backends.ExecutionBackend` instance.
    scenario_hooks:
        Persistent :class:`~repro.fl.engine.RoundHooks` run in every
        round; a ``scenario`` supplies its own.
    telemetry:
        Optional :class:`repro.obs.Telemetry` receiving round traces and
        counters.  Observation-only — traced runs are bit-identical to
        untraced ones.
    seed:
        Seeds every client's selection/probe stream, the evaluation-pool
        subsample and the learned k's rounding stream.
    aggregator:
        Optional robust aggregator for the server's ``b_j`` (see
        :mod:`repro.fl.robust`); None keeps the paper's weighted mean.  A
        ``scenario`` supplies its own.
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
    def step(self, k=None) -> RoundRecord:
        """Run one round and record it; a given ``k`` becomes the
        engine's k rule first (:meth:`RoundEngine.use_k`)."""
        return self.engine.run_round(k)

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
        self.engine.use_k(k)
        while self.engine.round_index < max_rounds:
            if self.engine.run_round(ensure_loss=True).loss <= target_loss:
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
