"""Tests for heterogeneous timing and client sampling."""

import pytest

from repro.fl.trainer import FLTrainer
from repro.simulation.heterogeneous import (
    ClientProfile,
    ClientSampler,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import RoundTiming, TimingModel
from repro.sparsify.fab_topk import FABTopK

from helpers import make_gaussian_blobs, make_logistic, partition_iid


def profiles(factors):
    return [
        ClientProfile(client_id=i, compute_factor=c, comm_factor=m)
        for i, (c, m) in enumerate(factors)
    ]


class TestClientProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientProfile(0, compute_factor=0.0)
        with pytest.raises(ValueError):
            ClientProfile(0, comm_factor=-1.0)


class TestHeterogeneousTimingModel:
    def test_all_equal_matches_homogeneous(self):
        hom = TimingModel(dimension=1000, comm_time=10.0)
        het = HeterogeneousTimingModel(
            dimension=1000, comm_time=10.0,
            profiles=profiles([(1.0, 1.0)] * 4),
        )
        assert het.sparse_round(50, 50).total == pytest.approx(
            hom.sparse_round(50, 50).total
        )

    def test_straggler_dominates(self):
        het = HeterogeneousTimingModel(
            dimension=1000, comm_time=10.0,
            profiles=profiles([(1.0, 1.0), (3.0, 1.0), (1.0, 2.0)]),
        )
        rt = het.sparse_round(100, 100)
        assert rt.computation == pytest.approx(3.0)  # slowest compute
        base = TimingModel(1000, 10.0).sparse_round(100, 100)
        assert rt.uplink == pytest.approx(2.0 * base.uplink)

    def test_excluding_straggler_speeds_round(self):
        het = HeterogeneousTimingModel(
            dimension=1000, comm_time=10.0,
            profiles=profiles([(1.0, 1.0), (5.0, 5.0)]),
        )
        slow = het.sparse_round(100, 100, participants=[0, 1]).total
        fast = het.sparse_round(100, 100, participants=[0]).total
        assert fast < slow

    def test_dense_round_for(self):
        het = HeterogeneousTimingModel(
            dimension=100, comm_time=4.0,
            profiles=profiles([(2.0, 1.0), (1.0, 3.0)]),
        )
        rt = het.dense_round([0])
        assert rt.computation == pytest.approx(2.0)

    def test_local_round_pays_the_slowest_computation(self):
        het = HeterogeneousTimingModel(
            dimension=100, comm_time=4.0,
            profiles=profiles([(2.0, 1.0), (1.0, 3.0)]),
        )
        assert het.local_round() == RoundTiming(2.0, 0.0, 0.0)
        assert het.local_round([1]) == RoundTiming(1.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousTimingModel(100, 1.0, profiles=[])
        with pytest.raises(ValueError):
            HeterogeneousTimingModel(
                100, 1.0,
                profiles=[ClientProfile(0), ClientProfile(0)],
            )
        het = HeterogeneousTimingModel(100, 1.0, profiles=profiles([(1, 1)]))
        with pytest.raises(ValueError):
            het.sparse_round(1, 1, participants=[])


class TestClientSampler:
    def test_uniform_counts(self):
        sampler = ClientSampler(list(range(10)), count=4, seed=0)
        chosen = sampler.sample()
        assert len(chosen) == 4
        assert len(set(chosen)) == 4
        assert all(0 <= c < 10 for c in chosen)

    def test_deterministic_given_seed(self):
        a = ClientSampler(list(range(10)), count=3, seed=7).sample()
        b = ClientSampler(list(range(10)), count=3, seed=7).sample()
        assert a == b

    def test_uniform_covers_everyone_eventually(self):
        sampler = ClientSampler(list(range(6)), count=2, seed=1)
        seen = set()
        for _ in range(100):
            seen.update(sampler.sample())
        assert seen == set(range(6))

    def test_fastest_biased_prefers_fast_clients(self):
        profs = profiles([(1.0, 1.0), (10.0, 10.0)])
        sampler = ClientSampler([0, 1], count=1, strategy="fastest-biased",
                                profiles=profs, seed=0)
        draws = [sampler.sample()[0] for _ in range(500)]
        assert draws.count(0) > draws.count(1) * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientSampler([], count=1)
        with pytest.raises(ValueError):
            ClientSampler([0, 1], count=3)
        with pytest.raises(ValueError):
            ClientSampler([0], count=1, strategy="nope")
        with pytest.raises(ValueError):
            ClientSampler([0], count=1, strategy="fastest-biased")


class TestSampledTraining:
    @pytest.fixture
    def setup(self):
        ds = make_gaussian_blobs(num_samples=300, num_classes=4,
                                 feature_dim=10, separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=6, seed=0)
        model = make_logistic(10, 4, seed=0)
        return model, fed

    def test_sampled_training_converges(self, setup):
        model, fed = setup
        sampler = ClientSampler([c.client_id for c in fed.clients],
                                count=3, seed=0)
        trainer = FLTrainer(model, fed, FABTopK(), sampler=sampler,
                            learning_rate=0.1, batch_size=16, seed=0)
        initial = trainer.global_loss()
        trainer.run(60, k=10)
        assert trainer.history.final_loss < initial * 0.8

    def test_contributions_limited_to_participants(self, setup):
        model, fed = setup
        sampler = ClientSampler([c.client_id for c in fed.clients],
                                count=2, seed=0)
        trainer = FLTrainer(model, fed, FABTopK(), sampler=sampler,
                            learning_rate=0.1, batch_size=16, seed=0)
        record = trainer.step(k=6)
        assert len(record.contributions) == 2

    def test_straggler_avoidance_reduces_time(self, setup):
        model, fed = setup
        ids = [c.client_id for c in fed.clients]
        profs = profiles([(1.0, 1.0)] * 5 + [(10.0, 10.0)])
        het = HeterogeneousTimingModel(model.dimension, comm_time=10.0,
                                       profiles=profs)
        fast_sampler = ClientSampler(ids, count=3, strategy="fastest-biased",
                                     profiles=profs, seed=0)
        trainer_fast = FLTrainer(make_logistic(10, 4, seed=0), fed, FABTopK(),
                                 timing=het, sampler=fast_sampler,
                                 learning_rate=0.1, seed=0)
        trainer_all = FLTrainer(make_logistic(10, 4, seed=0), fed, FABTopK(),
                                timing=het, learning_rate=0.1, seed=0)
        trainer_fast.run(20, k=10)
        trainer_all.run(20, k=10)
        assert trainer_fast.clock < trainer_all.clock

