"""Tests for the policy interface, baselines, and the adaptive trainer."""

import numpy as np
import pytest

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.nn.models import make_mlp
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.online.algorithm2 import SignOGD
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.baselines import ContinuousBandit, Exp3Policy, ValueBasedGD
from repro.online.interval import SearchInterval
from repro.online.knob import Reading
from repro.online.policy import KPolicy, SignPolicy
from repro.simulation.timing import TimingModel
from repro.sparsify import fab_topk
from repro.sparsify.fab_topk import FABTopK

from helpers import make_gaussian_blobs, make_logistic, partition_iid


def obs(k, probe_k, loss_prev, loss_now, loss_probe, round_time=10.0,
        probe_round_time=None, cost=None):
    """The ``(reading, cost)`` a learned-k round hands its policy: no
    reading without a probe."""
    if cost is None and loss_prev > loss_now:
        cost = round_time / (loss_prev - loss_now)
    reading = None
    if probe_k is not None:
        reading = Reading(loss_prev, loss_now, loss_probe, round_time,
                          probe_round_time, k, probe_k)
    return reading, cost


class TestSignPolicy:
    def test_probe_is_half_step_below(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        policy = SignPolicy(alg)
        assert policy.propose() == 50.0
        expected = 50.0 - alg.step_size() / 2.0
        assert policy.probe_k() == pytest.approx(expected)

    def test_probe_clamped_at_one(self):
        alg = SignOGD(SearchInterval(1.0, 2.0), k1=1.0)
        policy = SignPolicy(alg)
        assert policy.probe_k() is None  # 1 - tiny/2 clamps to 1 == k

    def test_observe_steps_algorithm(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        policy = SignPolicy(alg)
        probe = policy.probe_k()
        # Probe reached same loss with less time -> sign positive -> k down.
        policy.observe(*obs(50.0, probe, 1.0, 0.8, 0.8,
                           round_time=10.0, probe_round_time=5.0))
        assert alg.k < 50.0
        assert alg.m == 2

    def test_observe_without_probe_keeps_k(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        policy = SignPolicy(alg)
        policy.observe(*obs(50.0, None, 1.0, 0.8, None))
        assert alg.k == 50.0
        assert alg.m == 2

    def test_works_with_algorithm3(self):
        alg = AdaptiveSignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        policy = SignPolicy(alg)
        probe = policy.probe_k()
        policy.observe(*obs(50.0, probe, 1.0, 0.9, 0.99,
                           round_time=10.0, probe_round_time=9.0))
        assert alg.k > 50.0  # probe slower -> larger k better


class TestValueBasedGD:
    def test_moves_against_derivative(self):
        K = SearchInterval(1.0, 99.0)  # k_1 = 50, the midpoint
        policy = ValueBasedGD(K)
        probe = policy.probe_k()
        assert probe is not None and probe < 50.0
        policy.observe(*obs(50.0, probe, 1.0, 0.8, 0.8,
                           round_time=10.0, probe_round_time=5.0))
        assert policy.propose() < 50.0

    def test_missing_probe_keeps_k(self):
        policy = ValueBasedGD(SearchInterval(1.0, 79.0))  # k_1 = 40
        policy.observe(*obs(40.0, None, 1.0, 1.1, None))
        assert policy.propose() == 40.0

    def test_stays_in_interval(self):
        K = SearchInterval(10.0, 20.0)
        policy = ValueBasedGD(K)
        probe = policy.probe_k()
        # Enormous derivative must be clipped by projection.
        policy.observe(*obs(15.0, probe, 1.0, 0.5, 0.999,
                           round_time=1000.0, probe_round_time=999.0))
        assert K.contains(policy.propose())


class TestExp3:
    def test_proposals_are_arms(self):
        K = SearchInterval(2.0, 512.0)
        policy = Exp3Policy(K, num_arms=16, seed=0)
        for _ in range(20):
            k = policy.propose()
            assert any(abs(k - a) < 1e-9 for a in policy.arms)
            policy.observe(*obs(k, None, 1.0, 0.9, None))

    def test_learns_better_arm(self, monkeypatch):
        # Arm values: cost grows with distance from the best arm; EXP3
        # should concentrate probability mass near it.
        monkeypatch.setattr(Exp3Policy, "GAMMA", 0.2)
        K = SearchInterval(1.0, 256.0)
        policy = Exp3Policy(K, num_arms=8, seed=1)
        best = policy.arms[2]
        for _ in range(3000):
            k = policy.propose()
            cost = 1.0 + abs(np.log(k / best))
            policy.observe(*obs(k, None, 1.0, 0.5, None, cost=cost))
        p = policy._probabilities()
        assert p[2] == p.max()

    def test_observe_before_propose_raises(self):
        policy = Exp3Policy(SearchInterval(1.0, 10.0), num_arms=4)
        with pytest.raises(RuntimeError):
            policy.observe(*obs(5.0, None, 1.0, 0.9, None))

    def test_missing_cost_is_worst_reward(self):
        policy = Exp3Policy(SearchInterval(1.0, 100.0), num_arms=4, seed=0)
        k = policy.propose()
        policy.observe(*obs(k, None, 1.0, 1.5, None, cost=None))  # no decrease
        # Must not crash and weights stay finite.
        assert np.all(np.isfinite(policy._log_weights))

    def test_validation(self):
        K = SearchInterval(1.0, 10.0)
        with pytest.raises(ValueError):
            Exp3Policy(K, num_arms=1)

    def test_weights_stable_long_run(self):
        policy = Exp3Policy(SearchInterval(1.0, 100.0), num_arms=8, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(5000):
            k = policy.propose()
            policy.observe(*obs(k, None, 1.0, 0.9, None, cost=rng.uniform(1, 5)))
        p = policy._probabilities()
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0)


class TestContinuousBandit:
    def test_plays_perturbed_points(self):
        K = SearchInterval(1.0, 99.0)  # z_1 = 50, the midpoint
        policy = ContinuousBandit(K, seed=0)
        ks = {policy.propose() for _ in range(10)}
        assert len(ks) >= 2  # ± perturbations
        for k in ks:
            assert K.contains(k)

    def test_observe_before_propose_raises(self):
        policy = ContinuousBandit(SearchInterval(1.0, 10.0))
        with pytest.raises(RuntimeError):
            policy.observe(*obs(5.0, None, 1.0, 0.9, None))

    def test_drifts_toward_cheaper_region(self):
        # Cost increases with k; center should drift down over time.
        # The one-point bandit's signal is weak (the paper's point: it
        # converges slowly), so check the drift averaged over seeds.
        K = SearchInterval(1.0, 101.0)
        finals = []
        for seed in range(5):
            policy = ContinuousBandit(K, seed=seed)
            policy._z = 80.0  # start high
            for _ in range(2000):
                k = policy.propose()
                policy.observe(*obs(k, None, 1.0, 0.5, None, cost=k))
            finals.append(policy._z)
        assert np.mean(finals) < 75.0

    def test_missing_cost_skips_update(self):
        policy = ContinuousBandit(SearchInterval(1.0, 99.0), seed=0)
        policy.propose()
        z = policy._z
        policy.observe(*obs(50.0, None, 1.0, 1.5, None, cost=None))
        assert policy._z == z


class TestAdaptiveKTrainer:
    @pytest.fixture
    def setup(self):
        ds = make_gaussian_blobs(num_samples=300, num_classes=4, feature_dim=10,
                                 separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=5, seed=0)
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        return model, fed, timing

    def _trainer(self, setup, policy, **kwargs):
        model, fed, timing = setup
        return AdaptiveKTrainer(
            model, fed, FABTopK(), policy, timing,
            learning_rate=0.1, batch_size=16, seed=0, **kwargs,
        )

    def test_runs_and_learns(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        policy = SignPolicy(AdaptiveSignOGD(K, update_window=5))
        trainer = self._trainer(setup, policy)
        initial = trainer.global_loss()
        trainer.run(40)
        assert trainer.history.final_loss < initial
        assert len(trainer.history) == 40

    def test_k_adapts_over_time(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        policy = SignPolicy(SignOGD(K))
        trainer = self._trainer(setup, policy)
        trainer.run(30)
        ks = trainer.history.ks()
        assert len(set(ks)) > 1, "k never moved"

    def test_clock_increases_monotonically(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        trainer = self._trainer(setup, SignPolicy(SignOGD(K)))
        trainer.run(10)
        times = trainer.history.times()
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_probe_charged_in_time(self, setup):
        # Step ③ of Fig. 3 is always charged: the round costs the plain
        # sparse round plus the (k − k')-pair difference downlink.
        model, _, timing = setup
        K = SearchInterval(2.0, float(model.dimension))
        trainer = self._trainer(setup, SignPolicy(SignOGD(K)))
        record = trainer.step()
        k, probe_k = record.uplink_elements, trainer.engine.k_rule.probe_int
        assert probe_k is not None and 1 <= probe_k < k
        assert record.round_time == (
            timing.sparse_round(k, record.downlink_elements).total
            + timing.sparse_round(0, k - probe_k).communication
        )

    def test_exp3_policy_integration(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        trainer = self._trainer(setup, Exp3Policy(K, num_arms=8, seed=0))
        trainer.run(20)
        assert len(trainer.history) == 20

    def test_bandit_policy_integration(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        trainer = self._trainer(setup, ContinuousBandit(K, seed=0))
        trainer.run(20)
        assert len(trainer.history) == 20

    def test_value_policy_integration(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        trainer = self._trainer(setup, ValueBasedGD(K))
        trainer.run(20)
        assert len(trainer.history) == 20

    def test_run_for_time(self, setup):
        model, _, _ = setup
        K = SearchInterval(2.0, float(model.dimension))
        trainer = self._trainer(setup, SignPolicy(SignOGD(K)))
        trainer.run_for_time(30.0, max_rounds=100)
        assert trainer.clock >= 30.0 or len(trainer.history) == 100

    def test_validation(self, setup):
        model, fed, timing = setup
        K = SearchInterval(2.0, float(model.dimension))
        with pytest.raises(ValueError):
            AdaptiveKTrainer(model, fed, FABTopK(), SignPolicy(SignOGD(K)),
                             timing, learning_rate=0.0)
        with pytest.raises(ValueError):
            AdaptiveKTrainer(model, fed, FABTopK(), SignPolicy(SignOGD(K)),
                             timing, eval_every=0)

    def test_adaptive_k_tracks_comm_cost(self):
        # With very expensive communication the learned k should end up
        # well below the starting midpoint; with nearly-free communication
        # it should stay higher.  This is the paper's core qualitative
        # claim (Fig. 7).
        def final_k(comm_time, seed=0):
            ds = make_gaussian_blobs(num_samples=300, num_classes=4,
                                     feature_dim=10, separation=4.0, seed=seed)
            fed = partition_iid(ds, num_clients=5, seed=seed)
            model = make_logistic(10, 4, seed=seed)
            timing = TimingModel(dimension=model.dimension, comm_time=comm_time)
            K = SearchInterval(2.0, float(model.dimension))
            policy = SignPolicy(AdaptiveSignOGD(K, update_window=10))
            trainer = AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                                       learning_rate=0.1, batch_size=16,
                                       seed=seed, eval_every=10)
            trainer.run(120)
            return float(np.mean(trainer.history.ks()[-30:]))

        k_expensive = final_k(comm_time=200.0)
        k_cheap = final_k(comm_time=0.01)
        assert k_expensive < k_cheap


class _FixedPolicy(KPolicy):
    """Plays ``k`` every round and probes ``probe`` (None: no probe)."""

    def __init__(self, k, probe):
        self.k, self.probe = k, probe

    def propose(self):
        return self.k

    def probe_k(self):
        return self.probe

    def observe(self, reading, cost):
        del reading, cost


class TestRoundWorkCounts:
    """How often a round runs its two server-side costs, counted."""

    @pytest.mark.parametrize("probe", [None, 5.0], ids=["no_probe", "probe"])
    @pytest.mark.parametrize("participants", [4, 32])
    def test_one_probe_evaluation_per_weight_vector(self, participants, probe):
        ds = make_gaussian_blobs(num_samples=20 * participants, num_classes=4,
                                 feature_dim=10, separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=participants, seed=0)
        model = make_logistic(10, 4, seed=0)
        trainer = AdaptiveKTrainer(
            model, fed, FABTopK(), _FixedPolicy(20.0, probe),
            TimingModel(dimension=model.dimension, comm_time=10.0),
            learning_rate=0.1, batch_size=8, seed=0,
        )
        batches = []
        evaluate = model.per_sample_losses_at

        def spy(weights, x, y):
            batches.append(x.shape[0])
            return evaluate(weights, x, y)

        model.per_sample_losses_at = spy
        for _ in range(3):
            batches.clear()
            trainer.step()
            # w(m-1), w(m) and, with a probe k', w'(m): one call each,
            # every participant's probe sample in it.
            assert batches == [participants] * (2 if probe is None else 3)

    def test_fab_ranks_short_of_every_upload_on_the_adaptive_geometry(
        self, monkeypatch
    ):
        # The suite's adaptive-k workload: 32 writers, 16x16 images, a
        # 256-64-62 MLP, the paper's interval and Algorithm 3.
        ds = make_femnist_like(num_writers=32, samples_per_writer=40,
                               num_classes=62, image_size=16,
                               classes_per_writer=8, flatten=True, seed=0)
        fed = partition_by_writer(ds, seed=0)
        model = make_mlp(256, 62, hidden=(64,), seed=0)
        K = SearchInterval(0.002 * model.dimension, float(model.dimension))
        trainer = AdaptiveKTrainer(
            model, fed, FABTopK(),
            SignPolicy(AdaptiveSignOGD(K, alpha=1.5, update_window=20)),
            TimingModel(dimension=model.dimension, comm_time=10.0),
            learning_rate=0.05, batch_size=32, eval_every=10,
            eval_max_samples=1000, seed=0,
        )
        ranked = []
        rank = fab_topk.ranked_indices

        def spy(values, limit=None):
            ranked.append((values.size, limit))
            return rank(values, limit)

        monkeypatch.setattr(fab_topk, "ranked_indices", spy)
        trainer.run(5)
        assert len(ranked) >= 5 * 32
        assert all(limit < nnz for nnz, limit in ranked), ranked
