"""Shared configuration for the paper-result checks (the `slow` tree).

Every module here regenerates one of the paper's evaluation figures (or
one of its ablations) at a reduced-but-faithful scale and asserts the
ordering the paper reports, printing the series the figure plots.
Everything under this directory is marked ``slow``, which tier-1
deselects: ``pytest -m slow -s`` reproduces the whole evaluation section.
"""

import pathlib

import pytest

from repro.experiments.config import ExperimentConfig

SLOW_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_DIR in item.path.parents:
            item.add_marker(pytest.mark.slow)


def bench_config() -> ExperimentConfig:
    """The common benchmark-scale configuration.

    ~12 writers x 25 samples, 10 classes, D ≈ 3.5k, a few hundred rounds:
    small enough that the full figure suite finishes in minutes, large
    enough that the qualitative orderings of the paper emerge.
    """
    return ExperimentConfig(
        dataset="femnist",
        num_clients=24,
        samples_per_client=25,
        image_size=10,
        num_classes=16,
        classes_per_writer=5,
        hidden=(16,),
        learning_rate=0.05,
        batch_size=16,
        comm_time=10.0,
        num_rounds=150,
        eval_every=5,
        eval_max_samples=300,
        seed=0,
    )


def cifar_bench_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset="cifar",
        num_clients=10,
        samples_per_client=25,
        image_size=8,
        num_classes=10,
        hidden=(16,),
        learning_rate=0.05,
        batch_size=16,
        comm_time=10.0,
        num_rounds=120,
        eval_every=5,
        eval_max_samples=250,
        seed=0,
    )
