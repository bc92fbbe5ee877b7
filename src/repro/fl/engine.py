"""The shared round engine: Algorithm 1's skeleton, written once.

Every trainer in this repo runs the same synchronized round protocol
(paper Fig. 3 / Algorithm 1); what differs between them is small and
pluggable.  :class:`RoundEngine` owns the invariant skeleton:

1.  participant sampling (all clients, or the cohort a sampler's
    ``sample()`` names: a scenario's available clients, a virtual
    population's draw, a heterogeneous-clients subset),
2.  local steps — :meth:`~repro.fl.backends.ExecutionBackend.local_steps`,
    written once; the backend only computes the gradients (serial or
    sharded),
3.  ``Sparsifier.server_select`` (J, as the round's one
    :class:`~repro.sparsify.base.SelectionResult`) → weighted aggregation
    (:class:`~repro.fl.server.Server`),
4.  the synchronized weight update ``w(m) = w(m−1) − η·b``,
5.  residual reset at ``J ∩ J_i``, read off the selection's position map
    (plus, for non-accumulating schemes, a full reset of every client
    that computed — the cohort, hook-dropped clients included),
6.  normalized-time accounting and the evaluation cadence,
7.  :class:`~repro.fl.metrics.RoundRecord` construction and history
    bookkeeping.

The round's k comes from the engine's **k rule**, itself a hook
(:meth:`RoundEngine.use_k`): a :class:`ScheduledK`, or the learned k
(:class:`~repro.online.adaptive_trainer.LearnedK`), which also charges
the probe downlink and, in ``observe`` (see :class:`RoundHooks`), forms
the probe weights (step ③ of Fig. 3), reads the probe losses and feeds
the policy back — so it runs wherever the round does, async commits
included, without duplicating any of the skeleton.  Trainers with a
different *local* phase (FedAvg's local SGD on per-client weight copies,
always-send-all's dense aggregation) reuse steps 6–7 through
:meth:`RoundEngine.begin_round` / :meth:`RoundEngine.finish_round`.
Steps 1–2 and the time charge of step 6 are the round's *upload
source*, three small overridable methods: the async engine
(:mod:`repro.fl.async_engine`) swaps the barrier for a virtual-time
arrival queue and the straggler tail for its virtual clock there, and
runs the rest of the round unchanged.

``FLTrainer`` (and its async subclass), ``FedAvgTrainer`` and
``AlwaysSendAllTrainer`` are thin façades over this class, and
:class:`EngineFacade`'s ``run``/``run_for_time`` are the only run loops;
produced histories are unchanged from the pre-engine implementations.
This is also the seam future scaling work (async rounds, client dropout,
multiprocessing, sharding) plugs into: a new scenario is a new hook
object or backend, not another copy of the loop.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.data.partition import FederatedDataset
from repro.fl.backends import ExecutionBackend, resolve_backend
from repro.obs import NULL_TELEMETRY, SPARSE_ELEMENT_BYTES
from repro.fl.client import Client
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.server import Server
from repro.nn.flat import FlatModel
from repro.simulation.timing import RoundTiming, TimingModel
from repro.sparsify.base import (
    ClientUpload,
    DownlinkMessage,
    SelectionResult,
    Sparsifier,
)

KSchedule = Callable[[int], int]


class RoundContext:
    """Mutable state of one in-flight round, passed to every hook.

    The engine fills fields progressively; a hook may only rely on the
    fields populated before its call point (documented per hook).
    """

    def __init__(self, engine: "RoundEngine", round_index: int, k: int) -> None:
        self.engine = engine
        self.round_index = round_index
        #: integer sparsity actually played this round
        self.k = k
        #: synchronized weights w(m-1), captured before local steps
        self.w_prev: np.ndarray | None = None
        self.participant_ids: list[int] | None = None
        self.participants: list[Client] = []
        #: the round's clients before any hook filtered them: who the
        #: broadcast reaches (dropped clients still apply the update)
        self.cohort: list[Client] = []
        #: the wire: what the server sees, from collection to round end
        self.uploads: list[ClientUpload] = []
        #: client id -> commits since the weights its upload was computed
        #: at (async arrivals; empty on a barrier round)
        self.staleness: dict[int, int] = {}
        #: when the uplink phase closes: stated by the upload source
        #: (None = the timing model's straggler tail), lowered by a gate
        #: through :meth:`close_by`
        self.close_time: float | None = None
        self.selection: SelectionResult | None = None
        self.downlink: DownlinkMessage | None = None
        #: weights w(m) after the synchronized update
        self.w_new: np.ndarray | None = None
        self.uplink_elements: int = 0
        #: total charged time including hook extras
        self.round_time: float = 0.0
        #: the k value stored in the round's record (the adaptive
        #: trainer's probe hooks store the continuous k_m)
        self.recorded_k: float = float(k)
        #: client ids whose uploads a scenario hook dropped this round
        self.dropped_ids: tuple[int, ...] = ()
        #: aggregation-weight override (deployment scenarios reweighting
        #: a partial aggregate over the full sampled cohort); None means
        #: the server normalizes over the received uploads.
        self.aggregation_weight: float | None = None
        #: evaluation-pool loss at ``w_new`` once anything evaluated it
        #: (:meth:`RoundEngine.probe_losses`); later probes and the eval
        #: cadence reuse it instead of re-running the identical
        #: deterministic forward pass.
        self.eval_loss: float | None = None
        #: extra fields for the round's trace event (telemetry only)
        self.trace_extra: dict = {}

    def close_by(self, time: float) -> None:
        """Close the uplink phase no later than ``time``: a gate may
        bring the source's close earlier, never later."""
        self.close_time = (
            time if self.close_time is None else min(self.close_time, time)
        )


class RoundHooks:
    """Extension points for trainer-specific behaviour inside a round.

    The default implementations are all no-ops, giving exactly the plain
    Algorithm-1 round.  A hook changes a round at two points and learns
    at one; call order within :meth:`RoundEngine.run_round`:

    ``after_local_steps`` (uploads drawn, model still at ``w_prev``) →
    ``before_select`` (the wire is final, nothing selected yet) →
    ``extra_round_time`` (selection, aggregation, update and reset done;
    the engine's charge computed) → ``observe`` (model at ``w_new``,
    ``round_time`` final, before evaluation/record).

    ``after_local_steps`` may *filter* ``ctx.uploads`` and
    ``ctx.participants`` (keeping the two lists aligned) — this is how
    deployment scenarios drop deadline-missing uploads; every later
    phase (selection, aggregation, residual reset) then sees only the
    survivors, so dropped clients keep their residuals.  A gate that
    closes the round early says so with ``ctx.close_by``; the engine
    charges the round, no hook does.  A hook that only changes what the
    server *sees* (Byzantine corruption, the async staleness discount)
    assigns a new list to ``ctx.uploads``: the residual reset zeroes
    ``J ∩ J_i`` by index, so what a client sent is its own residual at
    ``J_i`` whatever the wire carried.  Every learned knob (k, deadline,
    staleness exponent) measures and steps in ``observe``: its reading
    — L(w(m−1)), L(w(m)), L(w′(m)) and τ_m — exists only there.
    """

    #: ask the backend to draw one-sample probes during local steps
    wants_probes = False

    def after_local_steps(self, ctx: RoundContext) -> None:
        """Uploads collected; model still holds ``w_prev``."""

    def before_select(self, ctx: RoundContext) -> None:
        """The wire is final; selection not yet run."""

    # Never called, like after_update and round_timing below: kept only
    # because the frozen benchmarks/suite/trace.py:148-150 wraps
    # ScenarioHooks' methods of these names.
    def after_aggregate(self, ctx: RoundContext) -> None:
        del ctx

    def after_update(self, ctx: RoundContext) -> None:
        del ctx

    def round_timing(self, ctx: RoundContext) -> None:
        del ctx

    def extra_round_time(self, ctx: RoundContext) -> float:
        """Additional normalized time to charge (e.g. probe downlink)."""
        del ctx
        return 0.0

    def observe(self, ctx: RoundContext) -> None:
        """Model at ``ctx.w_new``, ``ctx.round_time`` final; called
        before evaluation/record."""


class ScheduledK(RoundHooks):
    """A k rule that only reads a schedule: round index -> k, no feedback."""

    def __init__(self, schedule: KSchedule) -> None:
        self.schedule = schedule

    def next_k(self, round_index: int, dimension: int) -> int:
        del dimension
        return self.schedule(round_index)


def _as_schedule(
    k: int | Sequence[int] | KSchedule, dimension: int
) -> KSchedule:
    """Normalize a k specification into a function round_index -> k."""
    if callable(k):
        return k
    if isinstance(k, (int, np.integer)):
        constant = int(k)
        return lambda m: constant
    sequence = [min(int(v), dimension) for v in k]
    if not sequence:
        raise ValueError("empty k sequence")
    # Rounds are 1-based; hold the last value past the end.
    return lambda m: sequence[min(m, len(sequence)) - 1]


class ChainedHooks(RoundHooks):
    """Compose several hook objects into one (outermost first).

    Used by the engine to stack the persistent scenario hook, the k rule
    and a caller's hooks.  It fans out exactly the four hook points:
    ``after_local_steps``, ``before_select`` and ``observe`` run in
    order (so a scenario's upload filtering happens before the learned
    k's probe measurements see ``ctx``, and the deadline learns before
    the k does) and ``extra_round_time`` contributions add.  Nothing
    here picks one hook's answer over another's: what a round decides
    (its close, its recorded k) is written on ``ctx``.
    """

    def __init__(self, *hooks: RoundHooks | None) -> None:
        self.hooks = [h for h in hooks if h is not None]
        self.wants_probes = any(h.wants_probes for h in self.hooks)

    def after_local_steps(self, ctx: RoundContext) -> None:
        for hook in self.hooks:
            hook.after_local_steps(ctx)

    def before_select(self, ctx: RoundContext) -> None:
        for hook in self.hooks:
            hook.before_select(ctx)

    def extra_round_time(self, ctx: RoundContext) -> float:
        return sum(hook.extra_round_time(ctx) for hook in self.hooks)

    def observe(self, ctx: RoundContext) -> None:
        for hook in self.hooks:
            hook.observe(ctx)


class EngineFacade:
    """Engine-delegation mixin shared by the trainer façades.

    Trainers set ``self.engine`` in their constructor; this mixin forwards
    the public surface the seed trainers exposed, so the three façades
    don't each carry a copy of the same property block.  Subclasses
    override the evaluation methods when they report something other than
    the current synchronized weights (FedAvg's weighted average).
    """

    engine: "RoundEngine"

    @property
    def model(self) -> FlatModel:
        return self.engine.model

    @property
    def federation(self) -> FederatedDataset:
        return self.engine.federation

    @property
    def timing(self) -> TimingModel:
        return self.engine.timing

    @property
    def learning_rate(self) -> float:
        return self.engine.learning_rate

    @property
    def clients(self) -> list[Client]:
        return self.engine.clients

    @property
    def history(self) -> TrainingHistory:
        return self.engine.history

    @property
    def round_index(self) -> int:
        """Index of the most recently completed round (0 before any)."""
        return self.engine.round_index

    @property
    def clock(self) -> float:
        """Cumulative normalized time elapsed."""
        return self.engine.clock

    def global_loss(self) -> float:
        """Global training loss L(w) at the current weights."""
        return self.engine.global_loss()

    def run(self, num_rounds: int, k=None) -> TrainingHistory:
        """``step()`` ``num_rounds`` times; a given ``k`` (see
        :meth:`RoundEngine.use_k`) becomes the engine's k rule first."""
        if k is not None:
            self.engine.use_k(k)
        for _ in range(num_rounds):
            self.step()
        return self.history

    def run_for_time(
        self, time_budget: float, k=None, max_rounds: int = 1_000_000
    ) -> TrainingHistory:
        """``step()`` until the normalized clock reaches ``time_budget``.

        The paper compares methods over equal normalized time, not equal
        rounds (Section V); ``max_rounds`` bounds runs whose rounds are
        nearly free.  ``k`` as in :meth:`run`.
        """
        if k is not None:
            self.engine.use_k(k)
        while self.clock < time_budget and self.round_index < max_rounds:
            self.step()
        return self.history

    def close(self) -> None:
        """Release the engine's execution backend (see RoundEngine.close)."""
        self.engine.close()


class RoundEngine:
    """Owns the Algorithm-1 round skeleton and all round bookkeeping.

    This signature is where the engine settings and their defaults are
    declared — every trainer façade forwards ``**engine_settings`` here
    (a misspelt keyword fails in this ``__init__``); see :class:`repro.
    fl.trainer.FLTrainer` for their meaning.  ``backend`` selects the
    execution strategy for the local-step phase (a name or an
    :class:`~repro.fl.backends.ExecutionBackend` instance); ``sparsifier``
    may be None for trainers that only use :meth:`begin_round` /
    :meth:`finish_round` (FedAvg-style local phases).
    """

    def __init__(
        self,
        model: FlatModel,
        federation: FederatedDataset,
        sparsifier: Sparsifier | None,
        timing: TimingModel,
        learning_rate: float = 0.01,
        batch_size: int = 32,
        eval_every: int = 1,
        eval_max_samples: int = 2000,
        sampler=None,
        backend: str | ExecutionBackend | None = None,
        scenario_hooks: RoundHooks | None = None,
        telemetry=None,
        seed: int = 0,
        aggregator=None,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        self.model = model
        self.federation = federation
        self.sparsifier = sparsifier
        self.timing = timing
        self.learning_rate = learning_rate
        self.eval_every = eval_every
        self.sampler = sampler
        #: persistent hooks applied to *every* round under the per-call
        #: hooks (deployment scenarios: availability/deadline gating).
        self.scenario_hooks = scenario_hooks
        self.backend = resolve_backend(backend)
        #: observation only — telemetry consumes no RNG and touches no
        #: numeric state, so traced runs stay bit-identical to untraced.
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        if telemetry is not None:
            self.backend.telemetry = self.telemetry
            if getattr(federation, "is_virtual", False):
                federation.telemetry = self.telemetry
        self._pending_trace: dict | None = None
        #: optional RobustAggregator (Byzantine-tolerant b_j); None keeps
        #: the paper's weighted-mean path byte-for-byte.
        self.server = Server(model.dimension, aggregator=aggregator)
        self._batch_size = batch_size
        self._seed = seed
        #: virtual federations construct Client objects on first
        #: participation; eager ones keep the seed behaviour (all up
        #: front), so existing runs are bit-identical.
        self._virtual = bool(getattr(federation, "is_virtual", False))
        if self._virtual:
            self._client_list: list[Client] = []
            self._clients_by_id: dict[int, Client] = {}
        else:
            self._client_list = [
                Client(shard, model.dimension, batch_size=batch_size,
                       seed=seed)
                for shard in federation.clients
            ]
            self._clients_by_id = {c.client_id: c for c in self._client_list}
        self.history = TrainingHistory()
        self._round = 0
        self._clock = 0.0
        #: (round index, L(w(m))) of the last probed round: L(w(m−1))
        #: for the next probe iff that probe runs in the very next round
        self._loss_prev: tuple[int, float] | None = None
        self._eval_x, self._eval_y = federation.eval_pool(
            eval_max_samples, seed
        )
        #: the learned k's stochastic-rounding stream: one per engine, so
        #: ``run(n, policy)`` twice draws what ``run(2n, policy)`` does
        self._k_rng = np.random.default_rng((seed, 0xADA9))
        #: the hook every round asks for its k (:meth:`use_k`)
        self.k_rule: RoundHooks | None = None

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Index of the most recently started round (0 before any)."""
        return self._round

    @property
    def clock(self) -> float:
        """Cumulative normalized time elapsed."""
        return self._clock

    @property
    def clients(self) -> list[Client]:
        """Every constructed client.

        For eager federations this is the whole population (seed
        behaviour); for virtual federations it is the *ever-touched* set
        in first-participation order — the only clients that exist.
        """
        return self._client_list

    def _client_for(self, cid: int) -> Client:
        """The client object for ``cid``, constructing it on first touch
        (virtual federations only — eager populations pre-exist)."""
        client = self._clients_by_id.get(cid)
        if client is None:
            if not self._virtual:
                raise KeyError(cid)
            client = Client(
                self.federation.client_dataset(cid), self.model.dimension,
                batch_size=self._batch_size, seed=self._seed,
            )
            self._clients_by_id[cid] = client
            self._client_list.append(client)
        return client

    def _all_participants(self) -> list[Client]:
        """The no-sampler cohort: the entire population.

        Virtual federations materialize every client here — a guarded
        small-N escape hatch (bit-identity tests run full-participation
        rounds); population-scale runs always come with a sampler.
        """
        if self._virtual:
            return [self._client_for(cid) for cid in self.federation.client_ids]
        return self._client_list

    def global_loss(self) -> float:
        """Global training loss L(w) at the current weights."""
        return self.model.loss_value(self._eval_x, self._eval_y)

    def loss_at(self, weights: np.ndarray) -> float:
        """Evaluation-pool loss at ``weights``; the model's own weights
        are restored (counterfactual probes compare it to ``L(w(m))``)."""
        return self.model.loss_at(weights, self._eval_x, self._eval_y)

    def sgd_step(
        self, w_prev: np.ndarray, indices: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """``w_prev − η·b`` for a sparse update b: the plain synchronized
        SGD rule, as a new array."""
        weights = w_prev.copy()
        weights[indices] -= self.learning_rate * values
        return weights

    def counterfactual_weights(
        self, ctx: RoundContext, uploads: list[ClientUpload]
    ) -> np.ndarray:
        """w'(m): what the round would have produced from ``uploads``.

        Same selection J as the actual round, re-aggregated over
        ``uploads`` only — a pure recomputation (``commit=False``: a
        robust aggregator's reputation and flags never observe a round
        that didn't happen) — then the round's SGD step.
        """
        payload = self.server.aggregate(
            uploads, ctx.selection, total_weight=ctx.aggregation_weight,
            commit=False,
        ).payload
        return self.sgd_step(ctx.w_prev, payload.indices, payload.values)

    def probe_losses(
        self, ctx: RoundContext, *probe_weights: np.ndarray
    ) -> tuple[float, float, list[float]]:
        """L(w(m−1)), L(w(m)) and each L(w') on the evaluation pool.

        Call with the model at ``ctx.w_new``.  L(w(m)) is evaluated at
        most once per round (memoised on ``ctx.eval_loss``, which the
        eval cadence also reads) and carried over as the next round's
        L(w(m−1)); after a round nothing probed, the carry is stale by
        construction and L(w(m−1)) is evaluated at ``ctx.w_prev``.
        """
        carried = self._loss_prev
        if carried is not None and carried[0] == ctx.round_index - 1:
            loss_prev = carried[1]
        else:
            loss_prev = self.loss_at(ctx.w_prev)
        if ctx.eval_loss is None:
            ctx.eval_loss = self.global_loss()
        self._loss_prev = (ctx.round_index, ctx.eval_loss)
        return loss_prev, ctx.eval_loss, [
            self.loss_at(weights) for weights in probe_weights
        ]

    def test_accuracy(self) -> float | None:
        """Accuracy on the held-out test pool, if the federation has one."""
        if self.federation.test_x is None or self.federation.test_y is None:
            return None
        return self.model.accuracy(self.federation.test_x, self.federation.test_y)

    def close(self) -> None:
        """Release the execution backend's resources once training is done.

        Process-backed backends (sharded) hold a worker pool; closing the
        engine shuts it down deterministically.  The serial backend
        makes this a no-op.  Only call when this engine is the
        backend's sole user — drivers sharing one backend across trainers
        close the backend itself instead.
        """
        self.backend.close()

    # ------------------------------------------------------------------
    # The full sparse-GS round
    # ------------------------------------------------------------------
    def use_k(self, k) -> None:
        """Make ``k`` — an int, a sequence, a callable of the round index
        or a :class:`~repro.online.policy.KPolicy` (the learned k) — the
        rule every later round asks for its sparsity."""
        # Local imports: repro.online imports the engine back.
        from repro.online.adaptive_trainer import LearnedK
        from repro.online.policy import KPolicy

        if isinstance(k, KPolicy):
            self.k_rule = LearnedK(k, self._k_rng)
        else:
            self.k_rule = ScheduledK(_as_schedule(k, self.model.dimension))

    def run_round(
        self,
        k=None,
        hooks: RoundHooks | None = None,
        ensure_loss: bool = False,
    ) -> RoundRecord:
        """Run one Algorithm-1 round at the k rule's k and record it; a
        given ``k`` becomes the rule first (:meth:`use_k`).

        Besides the k rule's ``next_k`` it calls four hook points, in
        :class:`RoundHooks`' order, two of which may change the round.

        ``ensure_loss`` evaluates the global loss even on rounds the
        evaluation cadence would skip (the stopping rule of
        ``run_until_loss`` needs it); accuracy keeps the normal cadence.
        """
        if self.sparsifier is None:
            raise RuntimeError("run_round requires a sparsifier")
        if k is not None:
            self.use_k(k)
        if self.k_rule is None:
            raise RuntimeError("no k rule: pass k or call use_k first")
        k = self.k_rule.next_k(self._round + 1, self.model.dimension)
        if not 1 <= k <= self.model.dimension:
            raise ValueError(
                f"k must be in [1, {self.model.dimension}], got {k}"
            )
        hooks = ChainedHooks(self.scenario_hooks, self.k_rule, hooks)
        ctx = RoundContext(self, self.begin_round(), k)

        tracing = self.telemetry.enabled
        if tracing:
            phases: dict[str, float] = {}
            wall_start = mark = time.perf_counter()

            def lap(phase: str) -> None:
                # Hook work around local steps (deadline gate, replays,
                # probe evals) accumulates under one "probe" phase.
                nonlocal mark
                now = time.perf_counter()
                phases[phase] = phases.get(phase, 0.0) + (now - mark)
                mark = now

        ctx.participants, ctx.participant_ids = self._start_wave()
        if tracing:
            lap("sample")

        ctx.w_prev = self.model.get_weights()
        ctx.uploads = self._collect_uploads(ctx, hooks.wants_probes)
        ctx.cohort = list(ctx.participants)
        if tracing:
            lap("local_steps")
        hooks.after_local_steps(ctx)
        hooks.before_select(ctx)
        if tracing:
            lap("probe")

        ctx.selection = self.sparsifier.server_select(
            ctx.uploads, k, self.model.dimension
        )
        if tracing:
            lap("select")
        ctx.downlink = self.server.aggregate(
            ctx.uploads, ctx.selection, total_weight=ctx.aggregation_weight
        )
        if tracing:
            lap("aggregate")

        sparse_update = ctx.downlink.payload
        weights = self.sgd_step(
            ctx.w_prev, sparse_update.indices, sparse_update.values
        )
        ctx.w_new = weights
        self.model.set_weights(weights)
        if tracing:
            lap("update")

        self.backend.reset_residuals(ctx.participants, ctx.selection)
        if self.sparsifier.discards_residual:
            # Every client that computed discards, dropped ones too: the
            # scheme's semantics, not a gate's.
            for client in ctx.cohort:
                client.reset_all()
        if tracing:
            lap("residual_reset")

        ctx.uplink_elements = max(up.payload.nnz for up in ctx.uploads)
        ctx.round_time = self._charge(ctx).total + hooks.extra_round_time(ctx)
        hooks.observe(ctx)
        if tracing:
            lap("probe")
            self._pending_trace = {
                "phases": phases,
                "wall_start": wall_start,
                "participants": len(ctx.participants),
                "dropped_ids": list(ctx.dropped_ids),
                "uplink_bytes": SPARSE_ELEMENT_BYTES * sum(
                    up.payload.nnz for up in ctx.uploads
                ),
                "extra": ctx.trace_extra,
            }

        return self.finish_round(
            k=ctx.recorded_k,
            round_time=ctx.round_time,
            uplink_elements=ctx.uplink_elements,
            downlink_elements=ctx.selection.indices.size,
            contributions=dict(ctx.selection.contributions),
            loss_fn=(
                (lambda: ctx.eval_loss) if ctx.eval_loss is not None
                else None
            ),
            ensure_loss=ensure_loss,
        )

    # ------------------------------------------------------------------
    # The round's upload source (the async engine overrides all three)
    # ------------------------------------------------------------------
    def _start_wave(self) -> tuple[list[Client], list[int] | None]:
        """Who starts a local step this round, and their sampled ids
        (None = no sampler, the whole population)."""
        if self.sampler is not None:
            ids = self.sampler.sample()
            return [self._client_for(cid) for cid in ids], ids
        return self._all_participants(), None

    def _collect_uploads(
        self, ctx: RoundContext, draw_probes: bool
    ) -> list[ClientUpload]:
        """The uploads this round aggregates, aligned with
        ``ctx.participants``.  Barrier protocol: the wave's own uploads,
        all of them, computed now."""
        return self.backend.local_steps(
            self.model, ctx.participants, ctx.k, self.sparsifier,
            draw_probes=draw_probes,
        )

    def _charge(self, ctx: RoundContext) -> RoundTiming:
        """The round's time charge.  Barrier protocol: with no close
        stated, the round paced by its slowest participant; once a gate
        closed the round (``ctx.close_by``), the computation, the wait
        until that close, and the broadcast to the cohort."""
        downlink_elements = ctx.selection.indices.size
        if ctx.close_time is None:
            return self.timing.sparse_round(
                ctx.uplink_elements, downlink_elements, ctx.participant_ids
            )
        computation = self.timing.computation_time
        return RoundTiming(
            computation=computation,
            uplink=max(0.0, ctx.close_time - computation),
            downlink=self.timing.broadcast_time(
                [c.client_id for c in ctx.cohort], downlink_elements
            ),
        )

    # ------------------------------------------------------------------
    # Skeleton primitives for trainers with a custom local phase
    # ------------------------------------------------------------------
    def begin_round(self) -> int:
        """Advance and return the 1-based round counter."""
        self._round += 1
        if self.telemetry.enabled:
            # Lets the sharded pool (repro.parallel.pool) stamp its
            # worker spans with the round they belong to.
            self.telemetry.current_round = self._round
        return self._round

    def finish_round(
        self,
        k: float,
        round_time: float,
        uplink_elements: int,
        downlink_elements: int,
        contributions: dict[int, int] | None = None,
        loss_fn=None,
        ensure_loss: bool = False,
    ) -> RoundRecord:
        """Charge time, evaluate on cadence, record, and append the round.

        ``loss_fn`` defaults to the engine's global loss; FedAvg passes
        one that installs its averaged model first, so the test accuracy
        evaluated right after it reads that model too.
        """
        tel = self.telemetry
        trace = self._pending_trace
        self._pending_trace = None
        self._clock += round_time
        evaluate = (self._round % self.eval_every == 0) or (self._round == 1)
        if tel.enabled:
            eval_start = time.perf_counter()
        if evaluate:
            loss = (loss_fn or self.global_loss)()
            accuracy = self.test_accuracy()
        else:
            loss = (loss_fn or self.global_loss)() if ensure_loss else float("nan")
            accuracy = None
        if tel.enabled:
            # Trainers that skip run_round (FedAvg-style local phases)
            # still emit a round event, with an eval-only breakdown.
            phases = trace["phases"] if trace else {}
            phases["eval"] = time.perf_counter() - eval_start
            extra = dict(trace["extra"]) if trace else {}
            # JSON has no literal for NaN/±inf, so a non-finite loss
            # ships as None plus a machine-readable marker — the stream
            # stays strict JSON and the health monitor's divergence
            # detector still sees the blow-up.  Cadence-skipped rounds
            # (loss never evaluated) get a bare None, no marker.
            loss_value = float(loss)
            if not np.isfinite(loss_value) and (evaluate or ensure_loss):
                extra["loss_nonfinite"] = (
                    "nan" if loss_value != loss_value
                    else ("inf" if loss_value > 0 else "-inf")
                )
            tel.event(
                "round",
                round=self._round,
                k=k,
                round_time=round_time,
                cumulative_time=self._clock,
                loss=loss_value if np.isfinite(loss_value) else None,
                accuracy=None if accuracy is None else float(accuracy),
                participants=(trace["participants"] if trace
                              else len(self._client_list)),
                dropped=len(trace["dropped_ids"]) if trace else 0,
                dropped_ids=trace["dropped_ids"] if trace else [],
                uplink_elements=uplink_elements,
                downlink_elements=downlink_elements,
                uplink_bytes=(trace["uplink_bytes"] if trace
                              else uplink_elements * SPARSE_ELEMENT_BYTES),
                downlink_bytes=downlink_elements * SPARSE_ELEMENT_BYTES,
                wall_seconds=(time.perf_counter() - trace["wall_start"]
                              if trace else phases["eval"]),
                phases=phases,
                **extra,
            )
        record = RoundRecord(
            round_index=self._round,
            k=k,
            round_time=round_time,
            cumulative_time=self._clock,
            loss=loss,
            accuracy=accuracy,
            uplink_elements=uplink_elements,
            downlink_elements=downlink_elements,
            contributions=contributions if contributions is not None else {},
        )
        self.history.append(record)
        return record
