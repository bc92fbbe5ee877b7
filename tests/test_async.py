"""Asynchronous staleness-weighted aggregation tests.

Four layers:

1. **Discounts** — the constant/polynomial/adaptive staleness discounts'
   arithmetic, validation, and the adaptive exponent's SignOGD walk.
2. **Event queue** — commit batching, deterministic arrival ordering,
   and the staleness each commit actually records (cross-backend and
   full-barrier identity with the plain trainer live in
   ``tests/test_engine.py``'s equivalence matrix; the pinned async
   history in its golden suite).  Async × adversary: corruption and the
   staleness discount both rewrite the wire, and every client's
   residual still resets against what it *sent*.
3. **Telemetry** — async runs emit schema-valid ``round`` events with
   ``staleness``/``staleness_max`` and per-arrival ``async.arrival``
   spans through the existing registry, as strict JSONL, and tracing
   never changes results.
4. **Experiment wiring** — ``ScenarioConfig.async_mode`` and friends,
   the :func:`repro.experiments.scenario.run_async_comparison` panel
   (async must reach the shared target loss in less simulated time than
   the synchronous barrier under heterogeneous timing), and the CLI
   flags.
"""

import json

import numpy as np
import pytest

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.engine import RoundHooks
from repro.fl.async_engine import (
    DEFAULT_EXPONENT_INTERVAL,
    STALENESS_DISCOUNT_KINDS,
    AdaptiveStalenessDiscount,
    AsyncFLTrainer,
    ConstantDiscount,
    PolynomialDiscount,
    StalenessDiscount,
    build_staleness_discount,
    polynomial_factor,
)
from repro.nn.models import make_mlp
from repro.online.knob import Reading
from repro.obs import open_telemetry
from repro.obs.events import validate_event
from repro.scenarios import DeploymentScenario, ScenarioConfig
from repro.simulation.heterogeneous import (
    ClientProfile,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.periodic import PeriodicK


def _federation(num_writers=6, seed=5):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=20,
                           num_classes=10, image_size=8, classes_per_writer=4,
                           seed=seed)
    return partition_by_writer(ds, seed=seed)


def _profiles(fed, slow_ids, factor=4.0):
    return [
        ClientProfile(
            client_id=c.client_id,
            compute_factor=factor if c.client_id in slow_ids else 1.0,
            comm_factor=factor if c.client_id in slow_ids else 1.0,
        )
        for c in fed.clients
    ]


def _parts(slow_ids, seed):
    fed = _federation(seed=seed)
    model = make_mlp(64, 10, hidden=(12,), seed=seed)
    profiles = _profiles(fed, set(slow_ids))
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    return fed, model, profiles, timing


def _async_trainer(discount="constant", commit_count=3, slow_ids=(0, 3),
                   telemetry=None, seed=5, eval_every=4, **kwargs):
    fed, model, profiles, timing = _parts(slow_ids, seed)
    return AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=eval_every, seed=seed, discount=discount,
        commit_count=commit_count, profiles=profiles, telemetry=telemetry,
        **kwargs,
    )


#: always-available full participation, 30% sign-flip adversaries (seed 5
#: designates clients 2 and 4 of the 6-writer federation)
ATTACKED = ScenarioConfig(
    availability="always", adversary="sign_flip", adversary_fraction=0.3,
    aggregator="trimmed_mean", seed=5,
)


def _attacked_async_trainer(config=ATTACKED, discount="polynomial",
                            commit_count=3, slow_ids=(0, 3), seed=5,
                            **kwargs):
    """``_async_trainer`` under a scenario: same federation, model and
    stragglers, plus the scenario's adversaries and aggregator."""
    fed, model, profiles, timing = _parts(slow_ids, seed)
    scenario = DeploymentScenario.build(
        config, [c.client_id for c in fed.clients], timing, profiles
    )
    trainer = AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing,
        learning_rate=0.05, batch_size=8, eval_every=4, seed=seed,
        discount=discount, commit_count=commit_count, scenario=scenario,
        **kwargs,
    )
    return trainer, scenario


# ----------------------------------------------------------------------
# Staleness discounts
# ----------------------------------------------------------------------
class TestDiscounts:
    def test_constant_is_staleness_blind(self):
        d = ConstantDiscount()
        assert d.factor(0) == d.factor(7) == 1.0
        assert d.probe_exponent() is None and not d.adaptive

    def test_constant_validates_range(self):
        with pytest.raises(ValueError):
            ConstantDiscount().factor(-1)

    def test_polynomial_attenuation(self):
        assert polynomial_factor(0, 1.0) == 1.0
        assert polynomial_factor(1, 1.0) == pytest.approx(0.5)
        assert polynomial_factor(3, 1.0) == pytest.approx(0.25)
        assert polynomial_factor(9, 0.0) == 1.0
        assert PolynomialDiscount().factor(3) == pytest.approx(0.5)

    def test_adaptive_probe_strictly_below_current(self):
        d = AdaptiveStalenessDiscount()
        a = d.exponent
        probe = d.probe_exponent()
        assert 0.0 < probe < a
        assert d.factor(2) == pytest.approx((1.0 + 2) ** -a)

    @staticmethod
    def _reading(d, loss_probe):
        # Equal "round times", as the commit hooks pass them: the sign
        # is which exponent made more loss progress.  Probe progress
        # 0.6 > actual 0.5 → +1 (the smaller exponent is better); probe
        # progress 0.2 < 0.5 → −1.
        return Reading(1.0, 0.5, loss_probe, 1.0, 1.0,
                       d.exponent, d.exponent / 2.0)

    def test_adaptive_walk_moves_with_signs(self):
        d = AdaptiveStalenessDiscount()
        start = d.exponent
        # positive estimated gradient: step the exponent down
        d.observe(self._reading(d, loss_probe=0.4))
        stepped = d.exponent
        assert stepped < start
        d.observe()  # uninformative commit: unchanged
        assert d.exponent == stepped
        lo, hi = DEFAULT_EXPONENT_INTERVAL
        for _ in range(64):
            d.observe(self._reading(d, loss_probe=0.4))
        assert d.exponent >= lo  # clamped to the interval
        for _ in range(64):
            d.observe(self._reading(d, loss_probe=0.8))
        assert d.exponent <= hi
        assert d.exponent > lo  # and the negative sign really moved it

    def test_frozen_adaptive_never_probes(self, monkeypatch):
        monkeypatch.setattr(AdaptiveStalenessDiscount, "probe", False)
        d = AdaptiveStalenessDiscount()
        assert d.probe_exponent() is None
        assert d.exponent == pytest.approx(sum(DEFAULT_EXPONENT_INTERVAL) / 2)

    def test_builder_kinds_and_aliases(self):
        assert isinstance(build_staleness_discount("poly"),
                          PolynomialDiscount)
        assert isinstance(build_staleness_discount("const"),
                          ConstantDiscount)
        for kind in STALENESS_DISCOUNT_KINDS:
            assert build_staleness_discount(kind).name == kind
        with pytest.raises(ValueError):
            build_staleness_discount("linear")


# ----------------------------------------------------------------------
# Event queue / commit mechanics
# ----------------------------------------------------------------------
class TestCommitMechanics:
    def test_commits_record_staleness(self):
        trainer = _async_trainer(commit_count=3)
        trainer.run(8, k=12)
        trace = trainer.staleness_history
        assert len(trace) == 8
        assert trace[0] == 0.0  # first commit: everything fresh
        assert max(trace) > 0.0  # stragglers eventually arrive stale
        assert all(s >= 0.0 for s in trace)

    def test_virtual_clock_matches_history(self):
        trainer = _async_trainer(commit_count=3)
        history = trainer.run(6, k=12)
        records = list(history)
        # _vclock: simulated time at the last commit's completion
        assert trainer.clock == pytest.approx(trainer.engine._vclock)
        assert records[-1].cumulative_time == pytest.approx(
            trainer.engine._vclock
        )
        times = [r.round_time for r in records]
        assert all(t > 0.0 for t in times)
        assert len(set(round(t, 9) for t in times)) > 1  # commits re-time

    def test_buffered_commits_outpace_the_barrier(self):
        # Same cohort, same stragglers: committing after the fast half
        # must advance simulated time faster than waiting for everyone.
        buffered = _async_trainer(commit_count=3)
        barrier = _async_trainer(commit_count=0)
        buffered.run(6, k=12)
        barrier.run(6, k=12)
        assert buffered.clock < barrier.clock

    def test_discount_scales_the_update(self):
        # A global 0.5 discount halves every wire value, so the very
        # first commit's step must differ from the undiscounted one.
        class Halving(StalenessDiscount):
            def factor(self, staleness):
                return 0.5

        full = _async_trainer(discount=ConstantDiscount())
        half = _async_trainer(discount=Halving())
        full.step(12)
        half.step(12)
        assert not np.array_equal(
            full.model.get_weights(), half.model.get_weights()
        )

    def test_adaptive_exponent_walks_under_staleness(self):
        trainer = _async_trainer(discount="adaptive", commit_count=3)
        trainer.run(10, k=12)
        history = trainer.discount.exponent_history
        assert len(history) >= 10
        assert len(set(history)) > 1  # the walk actually moved

    def test_scenario_and_sampler_are_exclusive(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        config = ScenarioConfig(availability="always", participants=4)
        ids = [c.client_id for c in fed.clients]
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        scenario = DeploymentScenario.build(config, ids, timing)
        with pytest.raises(ValueError):
            AsyncFLTrainer(model, fed, FABTopK(), timing=timing,
                           scenario=scenario, sampler=scenario.sampler)

    def test_scenario_supplies_sampler_and_profiles(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        config = ScenarioConfig(
            availability="always", participants=4, slow_fraction=0.25,
            seed=5,
        )
        ids = [c.client_id for c in fed.clients]
        profiles = config.build_profiles(ids)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        scenario = DeploymentScenario.build(config, ids, timing, profiles)
        trainer = AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, scenario=scenario,
            commit_count=2, seed=5,
        )
        history = trainer.run(4, k=12)
        assert all(r.round_index == i + 1 for i, r in enumerate(history))
        # One owner of client speeds: the gate's timing is the engine's.
        assert scenario.hooks.timing is trainer.engine.timing

    def test_scenario_with_adversary_is_attacked(self):
        # The scenario's adversary seam is chained ahead of the commit
        # hooks (its deadline gate stays out), so the run is attacked.
        trainer, scenario = _attacked_async_trainer()
        chain = trainer.engine.scenario_hooks.hooks
        assert [type(h).__name__ for h in chain] == [
            "AdversaryHooks", "_CommitHooks"
        ]
        assert chain[0] is scenario.hooks.adversary_hooks
        trainer.run(4, k=12)
        assert scenario.stats.corrupted_by_client
        assert all(
            scenario.hooks.adversary.is_adversary(cid)
            for cid in scenario.stats.corrupted_by_client
        )
        assert scenario.stats.rounds == []  # the gate never ran

    def test_a_hook_may_drop_an_arrival(self):
        # Staleness is keyed by client id, so a hook may drop an arrival
        # the way the deadline gate does: the survivors commit, each
        # discounted by its own staleness; the dropped client keeps its
        # residual and is re-dispatched at the next commit.
        class DropFirst(RoundHooks):
            def __init__(self):
                self.dropped = None

            def after_local_steps(self, ctx):
                if ctx.round_index != 4:  # stale arrivals {0: 3, 3: 3, 5: 1}
                    return
                client = ctx.participants[0]
                client.drop_upload()
                self.dropped = (client, client.residual.copy())
                self.raw = {up.client_id: up for up in ctx.uploads[1:]}
                ctx.uploads = ctx.uploads[1:]
                ctx.participants = ctx.participants[1:]
                ctx.participant_ids = ctx.participant_ids[1:]
                ctx.dropped_ids = (client.client_id,)

        class Wire(RoundHooks):
            # Per-round hooks run after the commit hooks' discount.
            def observe(self, ctx):
                self.staleness = dict(ctx.staleness)
                self.values = {
                    up.client_id: up.payload.values for up in ctx.uploads
                }

        drop = DropFirst()
        trainer = _async_trainer(discount="polynomial", scenario_hooks=drop)
        waves = []
        local_steps = trainer.engine.backend.local_steps

        def spy(model, wave, *args, **kwargs):
            waves.append([c.client_id for c in wave])
            return local_steps(model, wave, *args, **kwargs)

        trainer.engine.backend.local_steps = spy
        trainer.run(3, k=12)
        wire = Wire()
        trainer.engine.run_round(12, hooks=wire)
        client, residual = drop.dropped
        assert sorted(wire.values) == sorted(drop.raw)
        assert client.client_id in wire.staleness
        factors = set()
        for cid, values in wire.values.items():
            factor = trainer.discount.factor(wire.staleness[cid])
            np.testing.assert_array_equal(
                values, drop.raw[cid].payload.values * factor
            )
            factors.add(factor)
        assert len(factors) == 2 and 1.0 not in factors
        np.testing.assert_array_equal(client.residual, residual)
        trainer.step(12)
        assert client.client_id in waves[-1]

    def test_discarding_sparsifier_discards_for_dropped_arrivals(self):
        # The async twin of a deadline-dropped sync upload: under a
        # non-accumulating scheme every client that computed discards
        # its residual at the commit, an arrival a hook dropped too.
        class DropFirst(RoundHooks):
            def after_local_steps(self, ctx):
                self.client = client = ctx.participants[0]
                self.accumulated = bool(np.any(client.residual))
                client.drop_upload()
                ctx.uploads = ctx.uploads[1:]
                ctx.participants = ctx.participants[1:]
                ctx.participant_ids = ctx.participant_ids[1:]
                ctx.dropped_ids = (client.client_id,)

        fed, model, profiles, timing = _parts((0, 3), 5)
        trainer = AsyncFLTrainer(
            model, fed, PeriodicK(model.dimension, seed=5), timing=timing,
            learning_rate=0.05, batch_size=8, seed=5, commit_count=3,
        )
        drop = DropFirst()
        record = trainer.engine.run_round(10, hooks=drop)
        assert drop.accumulated
        assert drop.client.client_id not in record.contributions
        np.testing.assert_array_equal(
            drop.client.residual, np.zeros(model.dimension)
        )

    def test_population_scenario_costs_the_cohort(self):
        # The population's per-cid profile map times the run as-is:
        # nothing enumerates the population (copying the map into a dict
        # used to walk it until a KeyError past the last client id).
        from repro.data.virtual import VirtualFederation
        from repro.scenarios import build_population_scenario
        from repro.simulation.population import PopulationModel

        config = ScenarioConfig(
            availability="markov", participants=5, slow_fraction=0.3, seed=3
        )
        fed = VirtualFederation.build(
            1000, samples_per_client=12, num_classes=8, image_size=6,
            classes_per_writer=4, test_samples=32, seed=3,
        )
        model = make_mlp(36, 8, hidden=(8,), seed=3)
        population = PopulationModel.from_scenario_config(config, 1000)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=population.profiles
        )
        scenario = build_population_scenario(config, population, timing)
        assert scenario.hooks.timing.profiles is population.profiles
        trainer = AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, scenario=scenario,
            commit_count=2, learning_rate=0.05, batch_size=8, seed=3,
        )
        assert trainer.engine.timing.profiles is population.profiles
        history = trainer.run(3, k=10)
        assert len(history) == 3
        assert max(trainer.staleness_history) > 0  # stragglers arrived late
        assert len(trainer.clients) <= 5


# ----------------------------------------------------------------------
# Async × adversary: two wire rewrites, honest residuals
# ----------------------------------------------------------------------
class _WireRecorder(RoundHooks):
    """Sits between the adversary seam and the commit hooks: sees the
    poisoned wire, then the wire before the discount; checks every
    committed client's residual after the reset."""

    def __init__(self, adversary):
        self.adversary = adversary
        self.commits = 0
        self.discounted_adversary = self.discounted_honest = False

    def after_local_steps(self, ctx):
        # A client in flight computes nothing, so its residual still is
        # what it was at dispatch and its own upload is that residual
        # at the uploaded indices.
        self.before = {
            c.client_id: c.residual.copy() for c in ctx.participants
        }
        self.sent = {}
        for up in ctx.uploads:
            honest = self.before[up.client_id][up.payload.indices]
            scale = -10.0 if self.adversary.is_adversary(up.client_id) else 1.0
            np.testing.assert_array_equal(up.payload.values, scale * honest)
            self.sent[up.client_id] = (up.payload.indices, honest)

    def before_select(self, ctx):
        self.wire = {up.client_id: up.payload for up in ctx.uploads}

    def observe(self, ctx):
        # The server aggregated corrupted → discounted.
        discount = ctx.engine.discount
        for up in ctx.uploads:
            factor = discount.factor(ctx.staleness[up.client_id])
            np.testing.assert_array_equal(
                up.payload.values, self.wire[up.client_id].values * factor
            )
            if factor != 1.0:
                if self.adversary.is_adversary(up.client_id):
                    self.discounted_adversary = True
                else:
                    self.discounted_honest = True
        selected = ctx.selection.indices
        for client in ctx.participants:
            # Nothing the server did to the wire (poison, discount)
            # shows: the reset takes the client's own upload out.
            indices, sent = self.sent[client.client_id]
            hit = np.isin(indices, selected)
            expected = self.before[client.client_id].copy()
            expected[indices[hit]] -= sent[hit]
            np.testing.assert_array_equal(client.residual, expected)
        self.commits += 1


class TestAsyncAdversary:
    def test_residuals_reset_against_what_was_sent(self):
        # Residual honesty in the new cell: sign-flip corruption and the
        # polynomial staleness discount both rewrite the wire, yet after
        # every commit each client's residual is its honest accumulated
        # gradient with what it *sent* subtracted at J ∩ J_i.
        trainer, scenario = _attacked_async_trainer()
        recorder = _WireRecorder(scenario.hooks.adversary)
        trainer.engine.scenario_hooks.hooks.insert(1, recorder)
        trainer.run(8, k=12)
        assert recorder.commits == 8
        assert recorder.discounted_adversary and recorder.discounted_honest

    def test_exponent_probe_reaggregates_the_wire_the_server_saw(self):
        # The adaptive probe rescales the corrupted wire under a', never
        # the honest payloads.
        trainer, scenario = _attacked_async_trainer(discount="adaptive")
        adversary = scenario.hooks.adversary
        sent, seen = {}, []

        class Honest(RoundHooks):
            # Chained ahead of the adversary seam: each client's own upload.
            def after_local_steps(self, ctx):
                sent.update({up.client_id: up.payload for up in ctx.uploads})

        trainer.engine.scenario_hooks.hooks.insert(0, Honest())
        counterfactual = trainer.engine.counterfactual_weights

        def spy(ctx, uploads):
            for up in uploads:
                if adversary.is_adversary(up.client_id):
                    honest = sent[up.client_id]
                    # Poison and probe discount have opposite signs...
                    assert np.all(up.payload.values * honest.values <= 0.0)
                    assert np.any(up.payload.values != 0.0)
                    seen.append(up.client_id)
            return counterfactual(ctx, uploads)

        trainer.engine.counterfactual_weights = spy
        trainer.run(8, k=12)
        assert seen  # ...on commits that probed a stale adversary

    def test_flagged_clients_are_reported(self, tmp_path):
        # Was silent before the adversary seam was chained: the
        # scenario's aggregator was installed under async, the hooks
        # that turn its ``last_flags`` into events and stats were not.
        path = tmp_path / "trace.jsonl"
        telemetry = open_telemetry(path)
        trainer, scenario = _attacked_async_trainer(
            discount="constant", commit_count=0, slow_ids=(),
            telemetry=telemetry,
        )
        trainer.run(3, k=400)
        telemetry.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            validate_event(event)
        flagged = [e for e in events if e["type"] == "flagged"]
        assert flagged and all(
            e["detector"] == "trimmed_mean" for e in flagged
        )
        counts = scenario.stats.flagged_by_client
        assert counts == {
            cid: sum(cid in e["client_ids"] for e in flagged)
            for e in flagged for cid in e["client_ids"]
        }
        adversaries = set(scenario.stats.corrupted_by_client)
        assert adversaries & set(counts)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class _EvalCounter:
    """Counts evaluation-pool forward passes by where they were taken:
    ``at`` = ``model.loss_at`` (some other weights, restored after),
    ``here`` = a direct ``model.loss_value`` at the model's own weights."""

    def __init__(self, model):
        self.at = self.here = 0
        self._nested = False
        loss_at, loss_value = model.loss_at, model.loss_value

        def counted_at(*args):
            self.at += 1
            self._nested = True
            try:
                return loss_at(*args)
            finally:
                self._nested = False

        def counted_value(*args):
            if not self._nested:
                self.here += 1
            return loss_value(*args)

        model.loss_at, model.loss_value = counted_at, counted_value

    def take(self):
        counts, self.at, self.here = (self.at, self.here), 0, 0
        return counts


class TestCounterfactualEvaluator:
    """``RoundEngine.probe_losses``: L(w(m)) once per round, carried to
    the next round iff that round is the very next one."""

    def test_carry_is_dropped_across_an_unprobed_commit(self):
        # eval_every is large, so past commit 1 every evaluation counted
        # here is the probe's.
        trainer = _async_trainer("adaptive", commit_count=3, eval_every=50)
        counter = _EvalCounter(trainer.model)
        engine = trainer.engine

        trainer.step(12)   # commit 1: whole fresh cohort, nothing stale
        assert engine.staleness_history[-1] == 0
        assert counter.take() == (0, 1)        # the round-1 eval cadence

        trainer.step(12)   # commit 2: stale arrivals, first probe
        assert engine.staleness_history[-1] > 0
        # L(w(m−1)) has no carry yet: loss_at(w_prev) + loss_at(w').
        assert counter.take() == (2, 1)

        engine.commit_count = 0   # drain: every in-flight upload commits
        trainer.step(12)   # commit 3: probed, directly after a probed one
        assert engine.staleness_history[-1] > 0
        assert counter.take() == (1, 1)        # carried; only L(w') moved

        engine.commit_count = 3
        trainer.step(12)   # commit 4: the drained cohort restarted fresh
        assert engine.staleness_history[-1] == 0
        assert counter.take() == (0, 0)        # no probe, off cadence

        trainer.step(12)   # commit 5: probed again, after the gap
        assert engine.staleness_history[-1] > 0
        assert counter.take() == (2, 1)        # L(w(m−1)) re-evaluated

        trainer.step(12)   # commit 6: consecutive again
        assert engine.staleness_history[-1] > 0
        assert counter.take() == (1, 1)

    def test_eval_cadence_reuses_the_probes_loss(self):
        # Every commit is on the eval cadence; a probed commit already
        # put L(w(m)) on ctx.eval_loss, so the record costs no second
        # forward pass — and holds the very same float.
        trainer = _async_trainer("adaptive", commit_count=3, eval_every=1)
        counter = _EvalCounter(trainer.model)
        trainer.step(12)
        counter.take()
        record = trainer.step(12)
        assert trainer.engine.staleness_history[-1] > 0
        assert counter.take() == (2, 1)
        assert record.loss == trainer.engine._loss_prev[1]
        assert trainer.engine._loss_prev[0] == record.round_index

    def test_hooks_that_set_eval_loss_skip_the_evaluation(self):
        from repro.fl.engine import RoundHooks

        class Preset(RoundHooks):
            def observe(self, ctx):
                ctx.eval_loss = 0.125

        trainer = _async_trainer("constant", eval_every=1)
        counter = _EvalCounter(trainer.model)
        record = trainer.engine.run_round(12, hooks=Preset())
        assert record.loss == 0.125
        assert counter.take() == (0, 0)


class TestAsyncTelemetry:
    def _trace(self, tmp_path, **kwargs):
        path = tmp_path / "trace.jsonl"
        telemetry = open_telemetry(str(path))
        trainer = _async_trainer(telemetry=telemetry, **kwargs)
        trainer.run(6, k=12)
        telemetry.close()
        records = [
            json.loads(line, parse_constant=lambda s: pytest.fail(
                f"non-strict JSON token {s}"
            ))
            for line in path.read_text().splitlines() if line
        ]
        return trainer, records

    def test_round_events_carry_staleness(self, tmp_path):
        trainer, records = self._trace(tmp_path, commit_count=3)
        rounds = [r for r in records if r["type"] == "round"]
        assert len(rounds) == 6
        for event in rounds:
            validate_event(event)
            assert event["staleness"] >= 0.0
            assert event["staleness_max"] >= 0
            assert event["in_flight"] >= 0
            assert event["version"] == event["round"]
        assert [r["staleness"] for r in rounds] == trainer.staleness_history

    def test_arrival_spans_are_schema_valid(self, tmp_path):
        trainer, records = self._trace(tmp_path, commit_count=3)
        spans = [r for r in records
                 if r["type"] == "span" and r["name"] == "async.arrival"]
        rounds = [r for r in records if r["type"] == "round"]
        assert len(spans) == sum(r["participants"] for r in rounds)
        for span in spans:
            validate_event(span)
            assert span["seconds"] > 0.0  # virtual flight time
            assert span["staleness"] >= 0
        assert max(s["staleness"] for s in spans) > 0

    def test_tracing_changes_nothing(self, tmp_path):
        traced, _ = self._trace(tmp_path, commit_count=3)
        untraced = _async_trainer(commit_count=3)
        untraced.run(6, k=12)
        np.testing.assert_array_equal(
            traced.model.get_weights(), untraced.model.get_weights()
        )
        assert traced.staleness_history == untraced.staleness_history


# ----------------------------------------------------------------------
# Experiment wiring: config, panel, CLI
# ----------------------------------------------------------------------
class TestAsyncWiring:
    def test_scenario_config_fields_round_trip(self):
        config = ScenarioConfig.default_churn().with_overrides(
            async_mode=True, staleness_discount="poly", commit_count=4,
        )
        assert config.staleness_discount == "polynomial"  # alias folded
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_scenario_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(staleness_discount="linear")
        with pytest.raises(ValueError):
            ScenarioConfig(commit_count=-1)

    def test_resolve_commit_count(self):
        from repro.experiments.scenario import resolve_commit_count

        explicit = ScenarioConfig(commit_count=5)
        assert resolve_commit_count(explicit, num_clients=20) == 5
        cohort = ScenarioConfig(participants=8)
        assert resolve_commit_count(cohort, num_clients=20) == 4
        everyone = ScenarioConfig()
        assert resolve_commit_count(everyone, num_clients=6) == 3
        assert resolve_commit_count(ScenarioConfig(participants=1),
                                    num_clients=6) == 1

    def test_async_comparison_panel(self):
        from repro.experiments.config import scaled_config
        from repro.experiments.scenario import (
            ASYNC_VARIANTS,
            run_async_comparison,
        )

        config = scaled_config("smoke", "scenario")
        scenario = ScenarioConfig.default_churn().with_overrides(
            seed=config.seed, async_mode=True,
        )
        config = config.with_overrides(scenario=scenario.to_dict())
        result = run_async_comparison(config)
        assert sorted(result.histories) == sorted(ASYNC_VARIANTS)
        assert result.loss_vs_time.labels() == list(ASYNC_VARIANTS)
        # The acceptance comparison: async reaches the shared reachable
        # target loss in less simulated time than the sync barrier.
        reachable = max(result.final_losses().values())
        times = result.time_to_loss(reachable)
        assert times["async-constant"] < times["sync"]
        # Staleness traces exist for every async variant and actually
        # record staleness; the adaptive variant adds its exponent trace.
        labels = result.staleness.labels()
        for variant in ASYNC_VARIANTS[1:]:
            assert variant in labels
            assert max(result.staleness.get(variant).y) > 0.0
        assert "async-adaptive exponent" in labels

    def test_async_comparison_runs_over_a_population(self):
        from repro.experiments.config import scaled_config
        from repro.experiments.scenario import (
            ASYNC_VARIANTS,
            run_async_comparison,
        )

        config = scaled_config("smoke", "scenario").with_overrides(
            population=100_000, samples_per_client=12,
        )
        scenario = ScenarioConfig.default_churn().with_overrides(
            seed=config.seed, async_mode=True, participants=8,
        )
        result = run_async_comparison(
            config.with_overrides(scenario=scenario.to_dict())
        )
        assert sorted(result.histories) == sorted(ASYNC_VARIANTS)
        assert result.commit_count == 4

    def test_async_comparison_attacks_every_variant(self, monkeypatch):
        from repro.experiments import scenario as driver
        from repro.experiments.config import scaled_config

        config = scaled_config("smoke", "scenario")
        scenario = ScenarioConfig.default_churn().with_overrides(
            seed=config.seed, adversary="sign_flip", adversary_fraction=0.5,
        )
        config = config.with_overrides(scenario=scenario.to_dict())
        built = {}
        fresh = driver.ExperimentRun.fresh

        def recording_fresh(run, label, *args, **kwargs):
            parts = fresh(run, label, *args, **kwargs)
            built[label] = parts[2]["scenario"]
            return parts

        monkeypatch.setattr(driver.ExperimentRun, "fresh", recording_fresh)
        result = driver.run_async_comparison(config)
        assert sorted(built) == sorted(driver.ASYNC_VARIANTS)
        # Same scenario seed => the same designated adversaries, and all
        # four variants (not just the sync baseline) corrupted them.
        corrupted = {
            label: set(s.stats.corrupted_by_client)
            for label, s in built.items()
        }
        assert corrupted["sync"]
        assert all(ids == corrupted["sync"] for ids in corrupted.values())
        assert sorted(result.histories) == sorted(driver.ASYNC_VARIANTS)

    def test_scenario_config_accepts_adversary_under_async(self):
        config = ScenarioConfig(
            async_mode=True, adversary="sign_flip", adversary_fraction=0.3
        )
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_cli_runs_async_adversary(self, tmp_path, capsys):
        # The same attack under async commits (every variant of the
        # comparison is attacked alike), serial vs sharded end to end.
        import repro.cli as cli

        panels = {}
        for backend in (["serial"], ["sharded", "--jobs", "2"]):
            out = tmp_path / backend[0]
            assert cli.main([
                "scenario", "--scale", "smoke", "--async",
                "--adversary-kind", "sign_flip", "--adversary-fraction", "0.3",
                "--aggregator", "trimmed_mean", "--backend", *backend,
                "--out", str(out),
            ]) in (0, None)
            capsys.readouterr()
            panels[backend[0]] = (
                out / "scenario_async_loss_vs_time.json"
            ).read_bytes()
        assert panels["serial"] == panels["sharded"]
        panel = json.loads(panels["serial"])
        scenario_note = next(
            n for n in panel["notes"] if n.startswith("scenario: ")
        )
        recorded = json.loads(scenario_note.removeprefix("scenario: "))
        assert recorded["adversary"] == "sign_flip"
        assert recorded["adversary_fraction"] == 0.3

    def test_cli_flags(self):
        from repro.cli import _scenario_overrides, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["scenario", "--async", "--staleness", "poly",
             "--commit-count", "4"]
        )
        overrides = _scenario_overrides(args, seed=0)
        assert overrides["async_mode"] is True
        assert overrides["staleness_discount"] == "polynomial"
        assert overrides["commit_count"] == 4
        # async-only knobs imply the async comparison
        implied = _scenario_overrides(
            parser.parse_args(["scenario", "--staleness", "adaptive"]),
            seed=0,
        )
        assert implied["async_mode"] is True
        plain = _scenario_overrides(parser.parse_args(["scenario"]), seed=0)
        assert plain["async_mode"] is False
