"""Tests for DGC momentum correction in FL."""

import numpy as np
import pytest

from repro.data.partition import partition_iid
from repro.data.synthetic import make_gaussian_blobs
from repro.fl.client import Client
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_logistic
from repro.sparsify.fab_topk import FABTopK


@pytest.fixture
def federation():
    ds = make_gaussian_blobs(num_samples=300, num_classes=4, feature_dim=10,
                             separation=4.0, seed=0)
    return partition_iid(ds, num_clients=4, seed=0)


class TestMomentumCorrection:
    def test_velocity_accumulates(self, federation):
        model = make_logistic(10, 4, seed=0)
        client = Client(federation.clients[0], model.dimension,
                        batch_size=16, momentum_correction=0.9)
        client.local_step(model, k=5, sparsifier=FABTopK())
        v1 = client._velocity.copy()
        assert np.abs(v1).sum() > 0
        client.local_step(model, k=5, sparsifier=FABTopK())
        # Velocity should include the decayed previous velocity.
        assert not np.allclose(client._velocity, v1)

    def test_factor_masking_on_transmit(self, federation):
        model = make_logistic(10, 4, seed=0)
        client = Client(federation.clients[0], model.dimension,
                        batch_size=16, momentum_correction=0.9)
        upload = client.local_step(model, k=5, sparsifier=FABTopK())
        sent = upload.payload.indices
        client.reset_transmitted(sent)
        np.testing.assert_allclose(client._velocity[sent], 0.0)

    def test_reset_all_clears_velocity(self, federation):
        model = make_logistic(10, 4, seed=0)
        client = Client(federation.clients[0], model.dimension,
                        batch_size=16, momentum_correction=0.5)
        client.local_step(model, k=5, sparsifier=FABTopK())
        client.reset_all()
        np.testing.assert_allclose(client._velocity, 0.0)
        np.testing.assert_allclose(client.residual, 0.0)

    def test_validation(self, federation):
        with pytest.raises(ValueError):
            Client(federation.clients[0], 10, momentum_correction=1.0)
        with pytest.raises(ValueError):
            Client(federation.clients[0], 10, momentum_correction=-0.1)

    def test_training_with_momentum_converges(self, federation):
        model = make_logistic(10, 4, seed=0)
        trainer = FLTrainer(model, federation, FABTopK(),
                            learning_rate=0.05, batch_size=16,
                            momentum_correction=0.9, seed=0)
        initial = trainer.global_loss()
        trainer.run(60, k=10)
        assert trainer.history.final_loss < initial * 0.8

    def test_momentum_speeds_early_progress(self, federation):
        # On this smooth problem DGC momentum should make at least as
        # much progress as plain accumulation in the same rounds.
        def final_loss(mc):
            model = make_logistic(10, 4, seed=0)
            trainer = FLTrainer(model, federation, FABTopK(),
                                learning_rate=0.02, batch_size=16,
                                momentum_correction=mc, seed=0)
            trainer.run(60, k=10)
            return trainer.history.final_loss

        assert final_loss(0.9) < final_loss(0.0) * 1.05

