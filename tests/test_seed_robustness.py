"""Seed-robustness checks of the paper's key qualitative claims.

The figure benchmarks run one seed at benchmark scale; these tests rerun
the two headline claims at smoke scale across several seeds to make sure
the reproduction does not hinge on a lucky draw:

1. Fig. 4 core: FAB-top-k beats the non-accumulating periodic-k and the
   always-send-all baseline (FAB at k = D) in loss at equal normalized
   time.
2. Fig. 7 core: the adaptive algorithm learns a smaller k when
   communication is more expensive.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_federation,
    build_model,
    build_search_interval,
    build_timing,
)
from repro.fl.trainer import FLTrainer
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.policy import SignPolicy
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.periodic import PeriodicK

SEEDS = (0, 1, 2)


def smoke_config(seed):
    return ExperimentConfig(
        num_clients=8, samples_per_client=20, image_size=8,
        num_classes=8, classes_per_writer=3, hidden=(12,),
        learning_rate=0.05, batch_size=16, comm_time=10.0,
        num_rounds=120, eval_every=10, eval_max_samples=200, seed=seed,
    )


def run_fixed_k(config, sparsifier_factory, time_budget, k):
    model = build_model(config)
    federation = build_federation(config)
    timing = build_timing(config, model.dimension)
    trainer = FLTrainer(model, federation, sparsifier_factory(model), timing=timing,
                        learning_rate=config.learning_rate,
                        batch_size=config.batch_size,
                        eval_every=config.eval_every,
                        eval_max_samples=config.eval_max_samples,
                        seed=config.seed)
    while trainer.clock < time_budget:
        trainer.step(k)
    return trainer.history.final_loss


@pytest.mark.parametrize("seed", SEEDS)
def test_fab_beats_weak_baselines_across_seeds(seed):
    config = smoke_config(seed)
    model = build_model(config)
    k = max(2, int(0.4 * model.dimension / config.num_clients))
    timing = build_timing(config, model.dimension)
    budget = config.num_rounds * timing.sparse_round(k, k).total

    fab = run_fixed_k(config, lambda m: FABTopK(), budget, k)
    periodic = run_fixed_k(
        config, lambda m: PeriodicK(m.dimension, seed=seed), budget, k
    )

    dense = run_fixed_k(config, lambda m: FABTopK(), budget, model.dimension)

    assert fab < periodic, f"seed {seed}: FAB {fab} vs periodic {periodic}"
    assert fab < dense, f"seed {seed}: FAB {fab} vs send-all {dense}"


@pytest.mark.parametrize("seed", SEEDS)
def test_learned_k_decreases_with_comm_time_across_seeds(seed):
    config = smoke_config(seed)

    def learn_mean_k(comm_time):
        model = build_model(config)
        federation = build_federation(config)
        timing = build_timing(config, model.dimension, comm_time)
        interval = build_search_interval(config, model.dimension)
        policy = SignPolicy(AdaptiveSignOGD(interval, alpha=1.5,
                                            update_window=10))
        trainer = AdaptiveKTrainer(
            model, federation, FABTopK(), policy, timing,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size, eval_every=20,
            eval_max_samples=config.eval_max_samples, seed=seed,
        )
        trainer.run(config.num_rounds)
        return float(np.mean(trainer.history.ks()[-40:]))

    cheap = learn_mean_k(0.05)
    expensive = learn_mean_k(100.0)
    assert expensive < cheap, (
        f"seed {seed}: k(beta=100)={expensive:.0f} "
        f"not below k(beta=0.05)={cheap:.0f}"
    )
