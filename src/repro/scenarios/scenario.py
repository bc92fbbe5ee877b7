"""Deployment-scenario runtime: sampler + round hooks over any engine.

:class:`DeploymentScenario` materializes a :class:`~repro.scenarios.
config.ScenarioConfig` into the two objects the round engine already
knows how to consume:

- :class:`ScenarioSampler` — the engine's ``sampler`` slot: each round it
  asks the availability process who is online and draws the cohort
  (``m·(1+ε)`` clients under over-selection) from that set only.
- :class:`ScenarioHooks` — a :class:`repro.fl.engine.RoundHooks` that
  gates the round's uploads through the :class:`~repro.scenarios.
  deadline.DeadlineRoundPolicy` — each upload arriving when the timing
  model, the one owner of client speeds, says it does — drops the late
  ones *before* selection and aggregation, and closes the round at the
  deadline-bounded close (``ctx.close_by``) — the engine then charges
  that, not the straggler tail.  Under a learned deadline its replays
  run beside the gate, while the pre-gate uploads exist; the replays'
  weights, losses and the deadline's step wait for ``observe``, where
  w(m) is installed and the round's charge is final.

Dropped-upload semantics (the part that makes the paper's sparsifiers
shine under churn): a dropped client already accumulated its gradient
into its residual during the local step, it is simply excluded from the
selection/aggregation/reset phases — so nothing is reset, the unsent
information stays in the residual, and FAB/top-k selection recovers it
the next time the client makes a deadline (a non-accumulating scheme
discards it anyway: the engine resets its whole cohort).  The server
reweights the partial aggregate over the arrivals (or over the full
cohort, see ``ScenarioConfig.reweight``).

Everything here runs in the parent process on state the engine already
owns, so scenario runs are bit-identical across the serial and sharded
execution backends (enforced by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fl.engine import RoundContext, RoundHooks
from repro.fl.robust import RobustAggregator, build_aggregator
from repro.scenarios.adversary import (
    AdversaryHooks,
    AdversaryModel,
    build_adversary,
)
from repro.scenarios.availability import (
    AlwaysAvailable,
    ClientAvailability,
    DiurnalAvailability,
    MarkovAvailability,
    TraceAvailability,
)
from repro.scenarios.config import ScenarioConfig
from repro.online.knob import Reading
from repro.scenarios.deadline import DeadlineRoundPolicy
from repro.simulation.heterogeneous import ClientProfile, check_profiles
from repro.simulation.timing import TimingModel

#: cohort-draw stream tag: the :class:`ScenarioSampler`'s one advancing
#: stream, and the population sampler's stream keyed per round
COHORT_TAG = 0x5CE2


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
        self._rng = np.random.default_rng((seed, COHORT_TAG))
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


@dataclass
class _PendingProbe:
    """One counterfactual replay of this round's gate (parent-owned)."""

    deadline: float
    #: clients the replayed gate admits.  Below d that is always a
    #: subset of the actually-accepted set (both are prefixes of the
    #: same deterministic service order), so the probe aggregation draws
    #: from the round's wire and stays consistent with the protocol the
    #: server runs.
    client_ids: frozenset[int]
    close_time: float
    #: uploads only a looser gate admits: the real round cut them from
    #: the wire
    cut_uploads: list


class ScenarioHooks(RoundHooks):
    """Deadline gate + partial-aggregation reweighting + early close.

    Runs entirely in the parent process on the uploads the execution
    backend produced, after residual accumulation and client selection —
    so it composes with any backend and any sparsifier.  Per call order
    (see :class:`repro.fl.engine.RoundHooks`):

    - ``after_local_steps``: run the adversary seam first
      (:class:`~repro.scenarios.adversary.AdversaryHooks`: the gate
      judges the wire the server would see), ask the timing model for
      each upload's arrival time, apply the deadline verdict, filter
      ``ctx.uploads``/``ctx.participants`` down to the arrivals (late
      clients keep their residuals untouched — that is the recovery
      mechanism), set the aggregation weight for cohort-mode
      reweighting, and close the round at the verdict's close
      (``ctx.close_by``): the engine charges it plus the broadcast to
      the whole cohort instead of the straggler tail.
    - ``observe``: the adversary seam reports whom the robust
      aggregator flagged.

    A non-accumulating sparsifier (``discards_residual``) discards the
    dropped clients' residuals too — the scheme's semantics, which the
    engine applies to the whole cohort, not the gate's.

    Under an :class:`~repro.scenarios.deadline.AdaptiveDeadlinePolicy`
    the hooks additionally run the free counterfactual probe (the dual
    of Fig. 3's k-probe, but with zero extra communication — arrival
    times are already server knowledge):

    - ``after_local_steps`` replays the gate at the probe deadline d' on
      the same pre-gate uploads — and, when the round actually dropped
      uploads (the tight regime), a second time at d'' > d
      (``probe_deadline_up``), keeping the raw uploads the d''-gate
      would have admitted but the real round cut (the replays need the
      pre-gate wire, so they cannot wait);
    - ``observe`` derives each replay's weights through
      :meth:`repro.fl.engine.RoundEngine.counterfactual_weights` from
      the probe arrivals (the d''-round additionally folds in the cut
      uploads), has the engine evaluate L(w(m−1)) / L(w(m)) and each
      replay's loss on its deterministic evaluation pool
      (:meth:`~repro.fl.engine.RoundEngine.probe_losses`) and hands the
      policy one :class:`~repro.online.knob.Reading` per replay, d'
      first.

    Everything is parent-state arithmetic on the engine's uploads and
    weights, so adaptive runs stay bit-identical across backends.
    """

    def __init__(
        self,
        policy: DeadlineRoundPolicy,
        timing: TimingModel,
        target_uploads: int | None = None,
        reweight: str = "arrived",
        stats: ScenarioStats | None = None,
        adversary: AdversaryModel | None = None,
    ) -> None:
        self.policy = policy
        self.timing = timing
        self.target_uploads = target_uploads
        self.reweight = reweight
        self.stats = stats if stats is not None else ScenarioStats()
        #: Byzantine upload corruption (None = everyone honest)
        self.adversary = adversary
        #: the adversary seam — wire-only corruption + flagged reporting
        #: — as hooks of its own: run first here, chained ahead of the
        #: commit hooks under async (where this gate stays out)
        self.adversary_hooks = AdversaryHooks(adversary, self.stats)
        #: this round's gate replays: d' first, then d'' if it ran
        self._probes: list[_PendingProbe] = []
        self._played_deadline: float | None = None
        #: clients with a past deadline drop, pending a recovery event
        #: (tracked only while telemetry is enabled — observation only)
        self._ever_dropped: set = set()

    # ------------------------------------------------------------------
    def after_local_steps(self, ctx: RoundContext) -> None:
        self._probes = []
        self._played_deadline = None
        # Corrupt before the deadline gate: everything downstream sees
        # exactly what the server would see on the wire.
        self.adversary_hooks.after_local_steps(ctx)
        cohort = len(ctx.participants)
        if self.reweight == "cohort":
            ctx.aggregation_weight = float(
                sum(up.sample_count for up in ctx.uploads)
            )
        if not self.policy.applies(self.target_uploads):
            self.stats.record_round(
                ctx.round_index, cohort, cohort, (),
                close_time=float("nan"), deadline=None,
            )
            return
        schedule = self.policy.schedule
        if schedule is not None:
            self._played_deadline = schedule.deadline_for(ctx.round_index)
        # One arrival-time computation judges the real gate and every
        # replay below.
        finish = self.timing.arrival_times(
            [up.client_id for up in ctx.uploads],
            [up.payload.nnz for up in ctx.uploads],
        )
        verdict = self.policy.admit(
            ctx.uploads, finish, self._played_deadline, self.target_uploads
        )
        accepted = set(verdict.accepted)
        if schedule is not None and schedule.adaptive:
            # Counterfactual replays of the gate on the same pre-gate
            # uploads — free: the arrival times are known.
            wanted = [schedule.probe_deadline(ctx.round_index)]
            if verdict.dropped_ids:
                # Tight regime: the deadline (or the over-selection cap)
                # cut uploads, so also replay the gate *looser* at
                # d'' > d.  Rounds that dropped nothing skip it: the
                # d''-gate would admit the identical upload set and
                # estimate nothing.
                wanted.append(schedule.probe_deadline_up(ctx.round_index))
            for deadline in wanted:
                if deadline is None:
                    continue
                replay = self.policy.admit(
                    ctx.uploads, finish, deadline, self.target_uploads
                )
                self._probes.append(_PendingProbe(
                    deadline,
                    frozenset(
                        ctx.uploads[i].client_id for i in replay.accepted
                    ),
                    replay.close_time,
                    cut_uploads=[
                        ctx.uploads[i]
                        for i in replay.accepted
                        if i not in accepted
                    ],
                ))
        for i, client in enumerate(ctx.participants):
            if i not in accepted:
                # The unsent residual stays put; forgetting the upload
                # keeps a later (mistaken) reset from clearing
                # coordinates the server never received.
                client.drop_upload()
        ctx.uploads = [ctx.uploads[i] for i in verdict.accepted]
        ctx.participants = [ctx.participants[i] for i in verdict.accepted]
        if ctx.participant_ids is not None:
            ctx.participant_ids = [
                c.client_id for c in ctx.participants
            ]
        ctx.dropped_ids = verdict.dropped_ids
        ctx.close_by(verdict.close_time)
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
        self.stats.record_round(
            ctx.round_index, cohort, len(ctx.uploads),
            verdict.dropped_ids, verdict.close_time, self._played_deadline,
        )

    def observe(self, ctx: RoundContext) -> None:
        self.adversary_hooks.observe(ctx)
        schedule = self.policy.schedule
        if self._played_deadline is None or not schedule.adaptive:
            return
        played = self._played_deadline
        tel = ctx.engine.telemetry
        if tel.enabled:
            tel.event(
                "deadline",
                round=ctx.round_index,
                deadline=played,
                probe_deadline=next(
                    (p.deadline for p in self._probes if p.deadline < played),
                    None,
                ),
                probe_deadline_up=next(
                    (p.deadline for p in self._probes if p.deadline > played),
                    None,
                ),
                arrived=len(ctx.uploads),
                dropped=len(ctx.dropped_ids),
                round_time=ctx.round_time,
            )
        if not self._probes:
            schedule.observe()
            return
        # ctx.uploads is the accepted wire the server aggregated; the
        # upward replay additionally re-admits uploads the gate cut.
        evaluated, weights = [], []
        for probe in self._probes:
            probe_uploads = [
                up for up in ctx.uploads if up.client_id in probe.client_ids
            ] + probe.cut_uploads
            if probe_uploads:
                evaluated.append(probe)
                weights.append(
                    ctx.engine.counterfactual_weights(ctx, probe_uploads)
                )
        loss_prev, loss_now, losses = ctx.engine.probe_losses(ctx, *weights)
        schedule.observe(*(
            Reading(
                loss_prev, loss_now, loss,
                round_time=ctx.round_time,
                # Only the uplink-phase close differs between d and the
                # replay; the computation/downlink/extra charges carry
                # over unchanged.
                probe_round_time=(
                    ctx.round_time - ctx.close_time + probe.close_time
                ),
                value=played,
                probe_value=probe.deadline,
            )
            for probe, loss in zip(evaluated, losses)
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
        aggregator: RobustAggregator | None = None,
    ) -> None:
        self.config = config
        self.sampler = sampler
        self.hooks = hooks
        self.stats = stats
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

        The gate times arrivals with ``timing``, the one owner of client
        speeds: a config with stragglers (``slow_fraction > 0``) needs a
        :class:`~repro.simulation.heterogeneous.HeterogeneousTimingModel`
        built from :meth:`ScenarioConfig.build_profiles`.  ``profiles``
        is kept only for callers that pass those profiles a second time
        and must describe exactly the timing's map.
        """
        if profiles is not None:
            check_profiles(profiles, timing)
        stats = ScenarioStats()
        sampler = ScenarioSampler(
            build_availability(config, client_ids),
            count=config.participants,
            over_selection=config.over_selection,
            seed=config.seed,
            stats=stats,
        )
        return cls.assemble(config, sampler, stats, timing)

    @classmethod
    def assemble(
        cls, config: ScenarioConfig, sampler, stats: ScenarioStats,
        timing: TimingModel,
    ) -> "DeploymentScenario":
        """What every scenario shares once its sampler exists: the
        deadline gate (timing arrivals with ``timing``), the hooks (with
        the adversary — its designation law is per-cid, so it needs no
        enumerated population) and the aggregator.  A config with
        stragglers (``slow_fraction > 0``) needs a timing model that
        carries client profiles."""
        if config.slow_fraction > 0 and not timing.profiles:
            raise ValueError(
                "this scenario has stragglers (slow_fraction > 0) but its "
                "timing model carries no client profiles: build it as "
                "HeterogeneousTimingModel(dimension, comm_time, profiles) "
                "from config.build_profiles(client_ids) or a population's "
                "profile map"
            )
        hooks = ScenarioHooks(
            DeadlineRoundPolicy(
                config.deadline_schedule(),
                over_selection=config.over_selection,
                min_uploads=config.min_uploads,
            ),
            timing,
            target_uploads=config.participants or None,
            reweight=config.reweight,
            stats=stats,
            adversary=build_adversary(config),
        )
        aggregator = build_aggregator(
            config.aggregator, trim_fraction=config.trim_fraction
        )
        return cls(config, sampler, hooks, stats, aggregator)


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
