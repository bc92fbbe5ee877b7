"""Population-scale rounds: O(cohort) time and O(ever-sampled) memory.

The virtual-population path (:class:`repro.data.virtual.
VirtualFederation` + :mod:`repro.simulation.population`) claims that a
churn+deadline scenario over N = 1,000,000 clients costs per round what
a cohort costs — client datasets, residuals, availability chains and
straggler profiles all regenerate from ``(seed, client_id)`` on demand,
so nothing is ever enumerated over N.  These checks assert that claim
at N small enough to stay interactive:

- a fixed-cohort run only ever constructs O(cohort x rounds) clients;
- the same run at two population sizes an order of magnitude apart has
  per-round wall-clock that does not scale with N;
- peak RSS stays >= 10x below the *eager extrapolation* (the measured
  per-client footprint of one materialized client times N — what
  building the federation eagerly would take).
"""

import multiprocessing
import resource
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_federation,
    build_model,
    build_scenario,
)
from repro.fl.trainer import FLTrainer
from repro.scenarios import ScenarioConfig
from repro.sparsify.fab_topk import FABTopK

COHORT = 16
ROUNDS = 3


def population_config(population: int) -> ExperimentConfig:
    """Churn + cycling deadline over a virtual femnist-like population."""
    scenario = ScenarioConfig.default_churn().with_overrides(
        participants=COHORT, over_selection=0.25, seed=0
    )
    return ExperimentConfig(
        population=population,
        samples_per_client=25,
        image_size=10,
        num_classes=16,
        classes_per_writer=5,
        hidden=(16,),
        learning_rate=0.05,
        batch_size=16,
        eval_every=1_000_000,  # price the rounds, not the eval pool
        scenario=scenario.to_dict(),
        seed=0,
    )


def build_trainer(population: int) -> tuple[FLTrainer, object]:
    config = population_config(population)
    federation = build_federation(config)
    model = build_model(config)
    timing, scenario = build_scenario(config, [], model.dimension)
    trainer = FLTrainer(
        model, federation, FABTopK(), timing=timing,
        learning_rate=config.learning_rate, batch_size=config.batch_size,
        eval_every=config.eval_every, seed=config.seed, scenario=scenario,
    )
    return trainer, scenario


def peak_rss_bytes() -> int:
    """Process peak RSS; ru_maxrss is KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def eager_client_bytes(trainer: FLTrainer) -> int:
    """Measured per-client footprint an eager federation would multiply.

    One materialized client's sample arrays plus the dense residual the
    engine keeps per client (the conservative floor).
    """
    dataset = trainer.engine.federation.client_dataset(0)
    arrays = dataset.x.nbytes + dataset.y.nbytes
    residual = trainer.model.dimension * 8
    return arrays + residual


def run_rounds(population: int, rounds: int = ROUNDS):
    """(per-round seconds, ever-touched count, drop stats) of one run."""
    trainer, scenario = build_trainer(population)
    k = max(2, int(0.4 * trainer.model.dimension / COHORT))
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        trainer.step(k)
        times.append(time.perf_counter() - start)
    touched = len(trainer.engine.clients)
    stats = scenario.stats
    per_client = eager_client_bytes(trainer)
    return times, touched, stats, per_client


def rss_after_rounds(population: int) -> tuple[int, int]:
    """(this process's peak RSS, eager per-client bytes) after one run."""
    _, _, _, per_client = run_rounds(population)
    return peak_rss_bytes(), per_client


def test_rounds_touch_cohort_not_population():
    times, touched, stats, _ = run_rounds(200_000)
    # ever-touched is bounded by cohort x rounds (over-selection incl.)
    assert touched <= int(COHORT * 1.25) * ROUNDS
    assert stats.total_arrived > 0


def test_round_time_independent_of_population():
    small_times, _, _, _ = run_rounds(100_000)
    large_times, _, _, _ = run_rounds(1_000_000)
    # Skip round 1 (both pay one-off warmup); later rounds must not
    # scale with N.  Generous 3x guard: this is a smoke assertion.
    assert min(large_times[1:]) < 3.0 * max(small_times[1:]) + 0.05


def test_memory_stays_far_below_eager_extrapolation():
    # ru_maxrss is a process-wide peak, so the run is measured in a
    # spawned child: whatever the tests sharing this pytest process
    # allocated before (or a fork would inherit) cannot reach the number.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        rss, per_client = pool.apply_async(
            rss_after_rounds, (200_000,)
        ).get(timeout=120)
    eager = per_client * 200_000
    assert rss * 10 < eager  # >=10x at N=2e5; ~100x at 1e6
