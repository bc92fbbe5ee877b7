"""Deployment-scenario runtime: sampler + round hooks over any engine.

:class:`DeploymentScenario` materializes a :class:`~repro.scenarios.
config.ScenarioConfig` into the two objects the round engine already
knows how to consume:

- :class:`ScenarioSampler` — the engine's ``sampler`` slot: each round it
  asks the availability process who is online and draws the cohort
  (``m·(1+ε)`` clients under over-selection) from that set only.
- :class:`ScenarioHooks` — a :class:`repro.fl.engine.RoundHooks` that
  gates the round's uploads through the :class:`~repro.scenarios.
  deadline.DeadlineRoundPolicy`, drops the late ones *before* selection
  and aggregation, and overrides the round's timing charge with the
  deadline-bounded close.

Dropped-upload semantics (the part that makes the paper's sparsifiers
shine under churn): a dropped client already accumulated its gradient
into its residual during the local step, it is simply excluded from the
selection/aggregation/reset phases — so nothing is reset, the unsent
information stays in the residual, and FAB/top-k selection recovers it
the next time the client makes a deadline.  The server reweights the
partial aggregate over the arrivals (or over the full cohort, see
``ScenarioConfig.reweight``).

Everything here runs in the parent process on state the engine already
owns, so scenario runs are bit-identical across the serial, vectorized
and sharded execution backends (enforced by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fl.engine import RoundContext, RoundHooks
from repro.fl.robust import RobustAggregator, build_aggregator
from repro.scenarios.adversary import AdversaryModel, build_adversary
from repro.scenarios.availability import (
    AlwaysAvailable,
    ClientAvailability,
    DiurnalAvailability,
    MarkovAvailability,
    TraceAvailability,
)
from repro.scenarios.config import ScenarioConfig
from repro.online.interval import SearchInterval
from repro.scenarios.deadline import (
    AdaptiveDeadlinePolicy,
    CyclingDeadlinePolicy,
    DeadlineObservation,
    DeadlinePolicy,
    DeadlineRoundPolicy,
    FixedDeadlinePolicy,
)
from repro.simulation.heterogeneous import ClientProfile
from repro.simulation.timing import RoundTiming, TimingModel


@dataclass
class RoundDelivery:
    """What one round actually delivered."""

    round_index: int
    available: int
    cohort: int
    arrived: int
    dropped_ids: tuple[int, ...]
    close_time: float
    deadline: float | None


@dataclass
class ScenarioStats:
    """Per-round delivery log plus cumulative drop accounting."""

    rounds: list[RoundDelivery] = field(default_factory=list)
    #: client id -> number of rounds whose upload was deadline-dropped
    drops_by_client: dict[int, int] = field(default_factory=dict)
    #: client id -> number of rounds whose upload was Byzantine-corrupted
    corrupted_by_client: dict[int, int] = field(default_factory=dict)
    #: client id -> number of rounds a robust aggregator flagged it
    flagged_by_client: dict[int, int] = field(default_factory=dict)
    _pending_available: int | None = None

    def record_available(self, count: int) -> None:
        self._pending_available = count

    def record_corrupted(self, client_ids: list[int]) -> None:
        for cid in client_ids:
            self.corrupted_by_client[cid] = (
                self.corrupted_by_client.get(cid, 0) + 1
            )

    def record_flagged(self, client_ids: list[int]) -> None:
        for cid in client_ids:
            self.flagged_by_client[cid] = (
                self.flagged_by_client.get(cid, 0) + 1
            )

    def record_round(
        self,
        round_index: int,
        cohort: int,
        arrived: int,
        dropped_ids: tuple[int, ...],
        close_time: float,
        deadline: float | None,
    ) -> None:
        self.rounds.append(RoundDelivery(
            round_index=round_index,
            available=(
                self._pending_available
                if self._pending_available is not None else cohort
            ),
            cohort=cohort,
            arrived=arrived,
            dropped_ids=dropped_ids,
            close_time=close_time,
            deadline=deadline,
        ))
        self._pending_available = None
        for cid in dropped_ids:
            self.drops_by_client[cid] = self.drops_by_client.get(cid, 0) + 1

    @property
    def total_dropped(self) -> int:
        return sum(len(r.dropped_ids) for r in self.rounds)

    @property
    def total_arrived(self) -> int:
        return sum(r.arrived for r in self.rounds)

    def to_dict(self) -> dict:
        """JSON-ready summary (the scenario driver's artifact notes)."""
        return {
            "rounds": len(self.rounds),
            "total_arrived": self.total_arrived,
            "total_dropped": self.total_dropped,
            "drops_by_client": {
                str(cid): n for cid, n in sorted(self.drops_by_client.items())
            },
            "corrupted_by_client": {
                str(cid): n
                for cid, n in sorted(self.corrupted_by_client.items())
            },
            "flagged_by_client": {
                str(cid): n
                for cid, n in sorted(self.flagged_by_client.items())
            },
            "mean_available": (
                float(np.mean([r.available for r in self.rounds]))
                if self.rounds else 0.0
            ),
        }


class ScenarioSampler:
    """Availability-gated, seeded cohort sampler (the engine's ``sampler``).

    Each call advances one round: query the availability process, then
    draw the cohort — ``min(cohort_size, |available|)`` clients without
    replacement.  With ``count == 0`` every available client participates
    and no RNG is consumed, so the degenerate always-available scenario
    reproduces the plain trainer's participant lists exactly.  When *no*
    client is online the round falls back to the full population (the
    server waits the gap out; a finer-grained idle-round model would need
    engine support and buys no insight at this abstraction level).
    """

    def __init__(
        self,
        availability: ClientAvailability,
        count: int = 0,
        over_selection: float = 0.0,
        seed: int = 0,
        stats: ScenarioStats | None = None,
    ) -> None:
        if count < 0 or count > len(availability.client_ids):
            raise ValueError(
                f"count must be in [0, {len(availability.client_ids)}], "
                f"got {count}"
            )
        self.availability = availability
        self.count = count
        self.over_selection = over_selection
        self.stats = stats
        self._rng = np.random.default_rng((seed, 0x5CE2))
        self._round = 0

    @property
    def cohort_size(self) -> int:
        """Clients sampled per round before the deadline gate (0 = all)."""
        if self.count == 0:
            return 0
        return int(np.ceil(self.count * (1.0 + self.over_selection)))

    def sample(self) -> list[int]:
        """Draw the next round's cohort (sorted ids)."""
        self._round += 1
        available = self.availability.available_ids(self._round)
        if self.stats is not None:
            self.stats.record_available(len(available))
        if not available:
            available = list(self.availability.client_ids)
        size = self.cohort_size
        if size == 0 or size >= len(available):
            return list(available)
        chosen = self._rng.choice(available, size=size, replace=False)
        return sorted(int(c) for c in chosen)


class _PendingProbe:
    """One round's counterfactual deadline-probe state (parent-owned)."""

    def __init__(
        self,
        probe_deadline: float,
        client_ids: frozenset[int],
        close_time: float,
    ) -> None:
        self.probe_deadline = probe_deadline
        #: clients whose uploads would have arrived by the probe
        #: deadline — always a subset of the actually-accepted set (both
        #: are prefixes of the same deterministic service order), so the
        #: probe aggregation can draw from the round's *post-preprocess*
        #: uploads and stay consistent with the protocol the server runs.
        self.client_ids = client_ids
        self.close_time = close_time
        self.w_probe: np.ndarray | None = None


class ScenarioHooks(RoundHooks):
    """Deadline gate + partial-aggregation reweighting + timing override.

    Runs entirely in the parent process on the uploads the execution
    backend produced, after residual accumulation and client selection —
    so it composes with any backend and any sparsifier.  Per call order
    (see :class:`repro.fl.engine.RoundHooks`):

    - ``after_local_steps``: compute per-upload finish times, apply the
      deadline verdict, filter ``ctx.uploads``/``ctx.participants`` down
      to the arrivals (late clients keep their residuals untouched —
      that is the recovery mechanism), and set the aggregation weight
      for cohort-mode reweighting.
    - ``round_timing``: replace the straggler-tail charge with the
      deadline-bounded close plus the downlink broadcast.
    - ``after_update``: for non-accumulating sparsifiers
      (``discards_residual``), dropped clients discard their residual
      too — the scheme's semantics, not the scenario's.

    Under an :class:`~repro.scenarios.deadline.AdaptiveDeadlinePolicy`
    the hooks additionally run the free counterfactual probe (the dual
    of Fig. 3's k-probe, but with zero extra communication — arrival
    times are already server knowledge):

    - ``after_local_steps`` replays the gate at the probe deadline d' on
      the same pre-gate uploads — and, when the round actually dropped
      uploads (the tight regime), a second time at d'' > d
      (``probe_deadline_up``), keeping the raw uploads the d''-gate
      would have admitted but the real round cut;
    - ``after_aggregate`` derives the d'-round's weights w'(m) by
      re-aggregating the probe arrivals over the *actual* round's
      selection (the stateless server makes this a pure computation);
      the d''-round's w''(m) additionally folds in the cut uploads,
      preprocessed counterfactually (:meth:`repro.sparsify.base.
      Sparsifier.preprocess_uploads_counterfactual` — same degradation,
      no RNG stream advanced);
    - ``after_update`` evaluates L(w(m−1)) / L(w(m)) / L(w'(m)) (and
      L(w''(m)) when the upward probe ran) on the engine's
      deterministic evaluation pool;
    - ``observe`` feeds the :class:`~repro.scenarios.deadline.
      DeadlineObservation` back so SignOGD can step the deadline from
      the combined sign estimate.

    Everything is parent-state arithmetic on the engine's uploads and
    weights, so adaptive runs stay bit-identical across backends.
    """

    def __init__(
        self,
        policy: DeadlineRoundPolicy,
        timing: TimingModel,
        profiles: dict[int, ClientProfile] | None = None,
        target_uploads: int | None = None,
        reweight: str = "arrived",
        stats: ScenarioStats | None = None,
        adversary: AdversaryModel | None = None,
    ) -> None:
        self.policy = policy
        self.timing = timing
        self.profiles = profiles or {}
        self.target_uploads = target_uploads
        self.reweight = reweight
        self.stats = stats if stats is not None else ScenarioStats()
        #: Byzantine upload corruption (None = everyone honest).  The
        #: seam mirrors the dropped-upload design: ``after_local_steps``
        #: swaps the designated clients' *wire payloads* for poisoned
        #: ones (same index support, pure in ``(seed, cid, round)``),
        #: and ``after_aggregate`` restores the honest payloads before
        #: the engine's residual reset — so client learning state
        #: evolves exactly as if the honest upload had been sent, and
        #: only the server-visible transport is attacked.
        self.adversary = adversary
        #: client id -> honest upload, while the wire carries poison
        self._honest_uploads: dict = {}
        self._dropped_clients: list = []
        self._close_time: float | None = None
        self._worst_comm: float = 1.0
        self._probe: _PendingProbe | None = None
        self._probe_up: _PendingProbe | None = None
        #: raw (pre-preprocess) uploads only the d''-gate admits
        self._probe_up_raw: list = []
        self._played_deadline: float | None = None
        #: L(w(m-1)) carried over from the previous round's L(w(m))
        self._loss_prev: float | None = None
        self._pending_losses: (
            tuple[float, float, float | None, float | None] | None
        ) = None
        #: clients with a past deadline drop, pending a recovery event
        #: (tracked only while telemetry is enabled — observation only)
        self._ever_dropped: set = set()

    # ------------------------------------------------------------------
    def after_local_steps(self, ctx: RoundContext) -> None:
        self._dropped_clients = []
        self._close_time = None
        self._probe = None
        self._probe_up = None
        self._probe_up_raw = []
        self._played_deadline = None
        self._pending_losses = None
        self._honest_uploads = {}
        if self.adversary is not None:
            # Corrupt before the deadline gate so everything downstream
            # (finish times, probes, preprocessing, aggregation) sees
            # exactly what the server would see on the wire.  Support is
            # unchanged — only values are poisoned — so timing and the
            # backends' fast-path preconditions are unaffected.
            corrupted_ids = []
            for i, up in enumerate(ctx.uploads):
                if self.adversary.is_adversary(up.client_id):
                    self._honest_uploads[up.client_id] = up
                    ctx.uploads[i] = self.adversary.corrupt_upload(
                        up, ctx.round_index
                    )
                    corrupted_ids.append(up.client_id)
            if corrupted_ids and self.stats is not None:
                self.stats.record_corrupted(corrupted_ids)
        cohort = list(ctx.participants)
        self._worst_comm = max(
            (
                self.profiles[c.client_id].comm_factor
                for c in cohort
                if c.client_id in self.profiles
            ),
            default=1.0,
        )
        if self.reweight == "cohort":
            ctx.aggregation_weight = float(
                sum(up.sample_count for up in ctx.uploads)
            )
        if not self.policy.applies(self.target_uploads):
            if self.stats is not None:
                self.stats.record_round(
                    ctx.round_index, len(cohort), len(cohort), (),
                    close_time=float("nan"), deadline=None,
                )
            return
        self._played_deadline = self.policy.deadline_for(ctx.round_index)
        verdict = self.policy.admit(
            ctx.round_index,
            ctx.uploads,
            self.timing,
            self.profiles,
            target_uploads=self.target_uploads,
        )
        if self.policy.schedule.adaptive:
            probe_deadline = self.policy.schedule.probe_deadline(
                ctx.round_index
            )
            if probe_deadline is not None:
                # Counterfactual replay of the gate at d' on the same
                # pre-gate uploads — free: the arrival times are known
                # (and already computed by the actual verdict).
                probe_verdict = self.policy.admit(
                    ctx.round_index,
                    ctx.uploads,
                    self.timing,
                    self.profiles,
                    target_uploads=self.target_uploads,
                    deadline_override=probe_deadline,
                    finish_times=verdict.finish_times,
                )
                self._probe = _PendingProbe(
                    probe_deadline=probe_deadline,
                    client_ids=frozenset(
                        ctx.uploads[i].client_id
                        for i in probe_verdict.accepted
                    ),
                    close_time=probe_verdict.close_time,
                )
            if verdict.dropped_ids:
                # Tight regime: the deadline (or the over-selection cap)
                # cut uploads, so also replay the gate *looser* at
                # d'' > d — the late arrival times are already known, so
                # this probe is as free as the downward one.  Rounds
                # that dropped nothing skip it: the d''-gate would admit
                # the identical upload set and estimate nothing.
                probe_up = self.policy.schedule.probe_deadline_up(
                    ctx.round_index
                )
                if probe_up is not None:
                    up_verdict = self.policy.admit(
                        ctx.round_index,
                        ctx.uploads,
                        self.timing,
                        self.profiles,
                        target_uploads=self.target_uploads,
                        deadline_override=probe_up,
                        finish_times=verdict.finish_times,
                    )
                    actually_accepted = set(verdict.accepted)
                    self._probe_up = _PendingProbe(
                        probe_deadline=probe_up,
                        client_ids=frozenset(
                            ctx.uploads[i].client_id
                            for i in up_verdict.accepted
                        ),
                        close_time=up_verdict.close_time,
                    )
                    # Uploads only the looser gate admits are about to
                    # be filtered out of ctx (and never preprocessed);
                    # keep the raw copies for the counterfactual
                    # aggregation.
                    self._probe_up_raw = [
                        ctx.uploads[i]
                        for i in up_verdict.accepted
                        if i not in actually_accepted
                    ]
        accepted = set(verdict.accepted)
        self._dropped_clients = [
            client
            for i, client in enumerate(ctx.participants)
            if i not in accepted
        ]
        for client in self._dropped_clients:
            # The unsent residual stays put; forgetting the upload keeps a
            # later (mistaken) reset from clearing coordinates the server
            # never received.
            client.drop_upload()
        ctx.uploads = [ctx.uploads[i] for i in verdict.accepted]
        ctx.participants = [ctx.participants[i] for i in verdict.accepted]
        if ctx.participant_ids is not None:
            ctx.participant_ids = [
                c.client_id for c in ctx.participants
            ]
        ctx.dropped_ids = verdict.dropped_ids
        self._close_time = verdict.close_time
        tel = ctx.engine.telemetry
        if tel.enabled:
            recovered = [up.client_id for up in ctx.uploads
                         if up.client_id in self._ever_dropped]
            if recovered:
                tel.event("recovery", round=ctx.round_index,
                          client_ids=recovered)
                self._ever_dropped.difference_update(recovered)
            if verdict.dropped_ids:
                tel.event("drop", round=ctx.round_index,
                          client_ids=list(verdict.dropped_ids),
                          deadline=self._played_deadline,
                          close_time=verdict.close_time)
                self._ever_dropped.update(verdict.dropped_ids)
        if self.stats is not None:
            self.stats.record_round(
                ctx.round_index, len(cohort), len(ctx.uploads),
                verdict.dropped_ids, verdict.close_time,
                self.policy.deadline_for(ctx.round_index),
            )

    def after_aggregate(self, ctx: RoundContext) -> None:
        # ctx.uploads here is the accepted, *preprocessed* upload list
        # (quantization etc. already applied) — the probes must see the
        # same degraded values the server actually aggregates.  The
        # upward probe additionally re-admits uploads the real gate cut;
        # those never went through preprocessing, so they get the
        # counterfactual (state-preserving) variant.
        self._derive_probe_weights(ctx, self._probe, extra_raw=None)
        self._derive_probe_weights(
            ctx, self._probe_up, extra_raw=self._probe_up_raw
        )
        if self._honest_uploads:
            # The server has consumed the poisoned payloads; restore the
            # honest ones before the engine's residual reset, so each
            # adversarial client's error-feedback bookkeeping subtracts
            # what its residual actually holds (the honest values) —
            # mirroring how dropped uploads keep residual state honest.
            ctx.uploads = [
                self._honest_uploads.get(up.client_id, up)
                for up in ctx.uploads
            ]
            self._honest_uploads = {}
        aggregator = ctx.engine.server.aggregator
        if aggregator is not None and aggregator.last_flags:
            flagged_ids = [cid for cid, _ in aggregator.last_flags]
            if self.stats is not None:
                self.stats.record_flagged(flagged_ids)
            tel = ctx.engine.telemetry
            if tel.enabled:
                tel.event(
                    "flagged",
                    round=ctx.round_index,
                    client_ids=flagged_ids,
                    detector=aggregator.name,
                    scores=[score for _, score in aggregator.last_flags],
                )

    @staticmethod
    def _derive_probe_weights(
        ctx: RoundContext,
        probe: "_PendingProbe | None",
        extra_raw: list | None,
    ) -> None:
        if probe is None:
            return
        probe_uploads = [
            up for up in ctx.uploads
            if up.client_id in probe.client_ids
        ]
        if extra_raw:
            sparsifier = ctx.engine.sparsifier
            probe_uploads = probe_uploads + (
                sparsifier.preprocess_uploads_counterfactual(extra_raw)
            )
        if not probe_uploads:
            return
        # The counterfactual round's update, derived from the actual
        # round's result: same selection J, aggregated over only the
        # probe arrivals (the stateless server makes this a pure
        # recomputation) — the dual of the adaptive-k trainer's
        # server-side k'-GS derivation, and like that derivation it
        # applies the plain SGD rule even when a server-side optimizer
        # is configured (a stateful optimizer has no side-effect-free
        # counterfactual step; the probe loss is an estimate either
        # way).
        # ``commit=False``: a counterfactual aggregation must not advance
        # a robust aggregator's reputation state or overwrite the flags
        # the real round recorded.
        downlink = ctx.engine.server.aggregate(
            probe_uploads, ctx.selection,
            total_weight=ctx.aggregation_weight,
            commit=False,
        )
        payload = downlink.payload
        w_probe = ctx.w_prev.copy()
        w_probe[payload.indices] -= (
            ctx.engine.learning_rate * payload.values
        )
        probe.w_probe = w_probe

    def round_timing(self, ctx: RoundContext) -> RoundTiming | None:
        if self._close_time is None:
            return None
        # The downlink broadcast reaches the whole cohort (dropped clients
        # still apply the synchronized update), so it is paced by the
        # cohort's slowest link.  Base-class transfer time on purpose: a
        # HeterogeneousTimingModel's sparse_round already applies its
        # worst-of-all-clients factor, which would double-count here.
        downlink = (
            TimingModel.sparse_round(
                self.timing, 0, ctx.selection.downlink_element_count
            ).downlink
            * self._worst_comm
        )
        computation = self.timing.computation_time
        return RoundTiming(
            computation=computation,
            uplink=max(0.0, self._close_time - computation),
            downlink=downlink,
        )

    def after_update(self, ctx: RoundContext) -> None:
        if (
            ctx.engine.sparsifier is not None
            and ctx.engine.sparsifier.discards_residual
        ):
            for client in self._dropped_clients:
                client.reset_all()
        if self._probe is None and self._probe_up is None:
            return
        engine = ctx.engine
        if self._loss_prev is None:
            self._loss_prev = engine.loss_at(ctx.w_prev)
        # Model already holds w(m); evaluate in place, and hand the
        # value to the engine so eval-cadence rounds don't re-run the
        # identical deterministic forward pass.
        loss_now = engine.global_loss()
        ctx.eval_loss = loss_now
        loss_probe = None
        if self._probe is not None and self._probe.w_probe is not None:
            loss_probe = engine.loss_at(self._probe.w_probe)
        loss_probe_up = None
        if self._probe_up is not None and self._probe_up.w_probe is not None:
            loss_probe_up = engine.loss_at(self._probe_up.w_probe)
        self._pending_losses = (
            self._loss_prev, loss_now, loss_probe, loss_probe_up
        )
        # w(m) is next round's w(m-1): carry the evaluation over.
        self._loss_prev = loss_now

    def observe(self, ctx: RoundContext) -> None:
        schedule = self.policy.schedule
        if not schedule.adaptive or self._played_deadline is None:
            return
        probe = self._probe
        probe_up = self._probe_up
        if self._pending_losses is not None:
            loss_prev, loss_now, loss_probe, loss_probe_up = (
                self._pending_losses
            )
        else:
            loss_prev = loss_now = float("nan")
            loss_probe = loss_probe_up = None
        probe_round_time = None
        if probe is not None and self._close_time is not None:
            # Only the uplink-phase close differs between d and d'; the
            # computation/downlink/extra charges carry over unchanged.
            probe_round_time = (
                ctx.round_time - self._close_time + probe.close_time
            )
        probe_round_time_up = None
        if probe_up is not None and self._close_time is not None:
            probe_round_time_up = (
                ctx.round_time - self._close_time + probe_up.close_time
            )
        tel = ctx.engine.telemetry
        if tel.enabled:
            tel.event(
                "deadline",
                round=ctx.round_index,
                deadline=self._played_deadline,
                probe_deadline=(
                    probe.probe_deadline if probe is not None else None
                ),
                probe_deadline_up=(
                    probe_up.probe_deadline if probe_up is not None else None
                ),
                arrived=len(ctx.uploads),
                dropped=len(ctx.dropped_ids),
                round_time=ctx.round_time,
            )
        schedule.observe(DeadlineObservation(
            deadline=self._played_deadline,
            round_time=ctx.round_time,
            loss_prev=loss_prev,
            loss_now=loss_now,
            loss_probe=loss_probe,
            probe_deadline=(
                probe.probe_deadline if probe is not None else None
            ),
            probe_round_time=probe_round_time,
            loss_probe_up=loss_probe_up,
            probe_deadline_up=(
                probe_up.probe_deadline if probe_up is not None else None
            ),
            probe_round_time_up=probe_round_time_up,
            arrived=len(ctx.uploads),
            dropped=len(ctx.dropped_ids),
        ))


class DeploymentScenario:
    """One materialized deployment regime: sampler + hooks + shared stats.

    A scenario instance holds mutable state (availability chains, the
    sampling RNG, the delivery log), so — like the sharded backend's
    federation convention — every trainer gets a *freshly built*
    scenario; never share one across runs.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        sampler: ScenarioSampler,
        hooks: ScenarioHooks,
        stats: ScenarioStats,
        profiles: list[ClientProfile],
        aggregator: RobustAggregator | None = None,
    ) -> None:
        self.config = config
        self.sampler = sampler
        self.hooks = hooks
        self.stats = stats
        self.profiles = profiles
        #: optional RobustAggregator the trainer threads into its engine
        #: (None = the paper's weighted mean, the unmodified server path)
        self.aggregator = aggregator

    @classmethod
    def build(
        cls,
        config: ScenarioConfig,
        client_ids: list[int],
        timing: TimingModel,
        profiles: list[ClientProfile] | None = None,
    ) -> "DeploymentScenario":
        """Materialize ``config`` for a concrete population and timing.

        ``profiles`` defaults to the config's seeded straggler
        designation (:meth:`ScenarioConfig.build_profiles`); pass an
        explicit list to reuse the profiles a
        :class:`~repro.simulation.heterogeneous.HeterogeneousTimingModel`
        was built with.
        """
        if profiles is None:
            profiles = config.build_profiles(client_ids)
        stats = ScenarioStats()
        availability = build_availability(config, client_ids)
        sampler = ScenarioSampler(
            availability,
            count=config.participants,
            over_selection=config.over_selection,
            seed=config.seed,
            stats=stats,
        )
        policy = DeadlineRoundPolicy(
            build_deadline_schedule(config),
            over_selection=config.over_selection,
            min_uploads=config.min_uploads,
        )
        hooks = ScenarioHooks(
            policy,
            timing,
            profiles={p.client_id: p for p in profiles},
            target_uploads=config.participants or None,
            reweight=config.reweight,
            stats=stats,
            adversary=build_adversary(config),
        )
        aggregator = build_aggregator(
            config.aggregator, trim_fraction=config.trim_fraction
        )
        return cls(config, sampler, hooks, stats, profiles, aggregator)


def build_deadline_schedule(config: ScenarioConfig) -> DeadlinePolicy:
    """The deadline policy a :class:`ScenarioConfig` names.

    ``ScenarioConfig.__post_init__`` already normalized the field family
    (tuple ⇒ cycling, adaptive interval derived/validated), so this is a
    straight dispatch.  Adaptive policies are stateful — like the rest
    of a :class:`DeploymentScenario`, build a fresh one per run.
    """
    if config.deadline_policy == "adaptive":
        assert config.deadline_min is not None
        assert config.deadline_max is not None
        return AdaptiveDeadlinePolicy(
            SearchInterval(config.deadline_min, config.deadline_max),
            d1=config.deadline,
            probe=config.deadline_probe,
        )
    if config.deadline_policy == "cycling":
        return CyclingDeadlinePolicy(config.deadline)
    return FixedDeadlinePolicy(config.deadline)


def build_availability(
    config: ScenarioConfig, client_ids: list[int]
) -> ClientAvailability:
    """The availability process a :class:`ScenarioConfig` names."""
    if config.availability == "always":
        return AlwaysAvailable(client_ids)
    if config.availability == "markov":
        return MarkovAvailability(
            client_ids,
            p_drop=config.p_drop,
            p_recover=config.p_recover,
            seed=config.seed,
        )
    if config.availability == "diurnal":
        return DiurnalAvailability(
            client_ids,
            period=config.period,
            duty=config.duty,
            seed=config.seed,
        )
    assert config.availability == "trace"
    assert config.trace is not None
    return TraceAvailability(
        client_ids,
        [list(entry) for entry in config.trace],
        cycle=config.trace_cycle,
    )
