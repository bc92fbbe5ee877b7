"""Async commit engine: commit throughput + staleness distribution.

The asynchronous engine (:mod:`repro.fl.async_engine`) replaces the
round barrier with an event queue of virtual arrivals; its wall-clock
cost per commit must stay comparable to a plain synchronous round — the
queue, the staleness discounts, and (in adaptive mode) the exponent
probe all run parent-side on top of the same backend ``local_steps``
call.  This benchmark measures commits/second per backend for:

- ``constant`` / ``polynomial`` — buffered commits (half the cohort per
  commit) under the fixed discounts;
- ``adaptive`` — the same plus the learned-exponent counterfactual
  probe (one extra aggregation and up to two evaluation-pool losses per
  stale commit, no extra client communication).

Each mode also reports its realized staleness trace (mean/max
of per-commit mean staleness) and the final virtual clock — a run whose
staleness is identically zero is not exercising the async path at all.

Run under the benchmark harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_async.py --benchmark-only -s

or standalone, appending to ``BENCH_async.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_async.py
"""

import json
import pathlib
import time

import pytest

from _hostmeta import host_metadata
from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.async_engine import AsyncFLTrainer
from repro.nn.models import make_mlp
from repro.scenarios import ScenarioConfig
from repro.simulation.heterogeneous import HeterogeneousTimingModel
from repro.sparsify.fab_topk import FABTopK

NUM_CLIENTS = 24
#: buffered modes commit after half the cohort — stragglers arrive stale
COMMIT_COUNT = NUM_CLIENTS // 2
MEASURE_COMMITS = 60
BACKENDS = ("serial", "vectorized")
MODES = ("constant", "polynomial", "adaptive")
BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_async.json"
)


def build_trainer(backend: str, mode: str) -> AsyncFLTrainer:
    """Bench-scale federation with a 25% straggler population at 4x.

    Heterogeneous profiles are what make arrivals reorder — without
    them every commit batch would be staleness-free and the discounts
    (and the adaptive probe) would never run.
    """
    ds = make_femnist_like(
        num_writers=NUM_CLIENTS, samples_per_writer=25, num_classes=16,
        image_size=10, classes_per_writer=5, seed=0,
    )
    federation = partition_by_writer(ds, seed=0)
    model = make_mlp(100, 16, hidden=(16,), seed=0)
    profiles = ScenarioConfig(
        availability="always", slow_fraction=0.25, slow_factor=4.0, seed=0,
    ).build_profiles([c.client_id for c in federation.clients])
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    return AsyncFLTrainer(
        model, federation, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=16, eval_every=1_000_000, seed=0, backend=backend,
        profiles=profiles, discount=mode, commit_count=COMMIT_COUNT,
    )


def round_k(trainer: AsyncFLTrainer) -> int:
    return max(2, int(0.4 * trainer.model.dimension / NUM_CLIENTS))


def measure(backend: str, mode: str, commits: int = MEASURE_COMMITS,
            repeats: int = 3):
    """Best-of-``repeats`` commits/second plus the staleness trace."""
    trainer = build_trainer(backend, mode)
    k = round_k(trainer)
    trainer.step(k)  # warmup (round 1 always evaluates)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(commits):
            trainer.step(k)
        best = min(best, time.perf_counter() - start)
    trace = trainer.staleness_history
    stats = {
        "staleness_mean": round(sum(trace) / len(trace), 4),
        "staleness_peak": round(max(trace), 4),
        "virtual_clock": round(trainer.virtual_clock, 2),
    }
    if trainer.discount.adaptive:
        stats["final_exponent"] = round(
            trainer.discount.exponent_history[-1], 4
        )
    return commits / best, stats


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_async_commit_throughput(benchmark, backend, mode):
    trainer = build_trainer(backend, mode)
    k = round_k(trainer)
    trainer.step(k)  # warmup
    benchmark(trainer.step, k)


@pytest.mark.parametrize("backend", BACKENDS)
def test_async_actually_stale(backend):
    """The discount comparison is only meaningful if staleness occurs."""
    trainer = build_trainer(backend, "constant")
    trainer.run(8, k=round_k(trainer))
    assert max(trainer.staleness_history) > 0


def main() -> None:
    report = {"host": host_metadata(), "results": []}
    for backend in BACKENDS:
        rates, stats = {}, {}
        for mode in MODES:
            rates[mode], stats[mode] = measure(backend, mode)
        report["results"].append({
            "backend": backend,
            "num_clients": NUM_CLIENTS,
            "commit_count": COMMIT_COUNT,
            "commits": MEASURE_COMMITS,
            "commits_per_second": {m: round(r, 2) for m, r in rates.items()},
            "adaptive_overhead": round(
                rates["constant"] / rates["adaptive"] - 1.0, 4
            ),
            "staleness": {m: stats[m] for m in MODES if m in stats},
        })
        print(
            f"{backend:>10}: "
            f"constant {rates['constant']:7.1f} c/s "
            f"(stale mean {stats['constant']['staleness_mean']:.2f}, "
            f"peak {stats['constant']['staleness_peak']:.0f}) | "
            f"adaptive {rates['adaptive']:7.1f} c/s "
            f"(a_final {stats['adaptive']['final_exponent']:.3f})"
        )
    history = []
    if BENCH_PATH.exists():
        history = json.loads(BENCH_PATH.read_text())
    history.append(report)
    BENCH_PATH.write_text(json.dumps(history, indent=1))
    print(f"appended to {BENCH_PATH}")
    from history import record_report
    record_report(BENCH_PATH, report)


if __name__ == "__main__":
    main()
