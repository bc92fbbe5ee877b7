"""Tests for the CNN experiment config path."""

import numpy as np
import pytest

RNG = np.random.default_rng(21)


class TestCNNConfigPath:
    def test_build_model_cnn(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_model

        cfg = ExperimentConfig.smoke().with_overrides(
            extras={"model_type": "cnn"}
        )
        model = build_model(cfg)
        x = RNG.standard_normal((2, cfg.image_size**2))
        logits = model.network.forward(
            x.reshape(1, 2, 1, cfg.image_size, cfg.image_size)
        )
        assert logits.shape == (1, 2, cfg.num_classes)

    def test_unknown_model_type(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_model

        cfg = ExperimentConfig.smoke().with_overrides(
            extras={"model_type": "transformer"}
        )
        with pytest.raises(ValueError):
            build_model(cfg)

    def test_cnn_federated_training_end_to_end(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import (
            build_federation,
            build_model,
            build_timing,
        )
        from repro.fl.trainer import FLTrainer
        from repro.sparsify.fab_topk import FABTopK

        cfg = ExperimentConfig.smoke().with_overrides(
            num_clients=4, samples_per_client=10, num_rounds=8,
            extras={"model_type": "cnn"},
        )
        model = build_model(cfg)
        federation = build_federation(cfg)
        # Data kept in NCHW layout for the CNN.
        assert federation.clients[0].x.ndim == 4
        trainer = FLTrainer(
            model, federation, FABTopK(),
            timing=build_timing(cfg, model.dimension),
            learning_rate=0.05, batch_size=8, seed=0,
        )
        initial = trainer.global_loss()
        trainer.run(cfg.num_rounds, k=50)
        assert trainer.history.final_loss < initial
