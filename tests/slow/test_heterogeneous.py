"""Ablation: heterogeneous clients and straggler-avoiding sampling.

The paper's future-work remark (Section VI): with heterogeneous client
resources "it may be beneficial to select a subset of clients in each
training round".  This check creates a federation where 1/4 of the
clients are 8x stragglers and compares: full participation, uniform
sampling, and fastest-biased sampling — measuring loss reached within a
fixed normalized-time budget.
"""

from .conftest import bench_config
from repro.experiments.runner import build_federation, build_model, text_table
from repro.fl.trainer import FLTrainer
from repro.simulation.heterogeneous import (
    ClientProfile,
    ClientSampler,
    HeterogeneousTimingModel,
)
from repro.sparsify.fab_topk import FABTopK


def _profiles(num_clients: int):
    out = []
    for cid in range(num_clients):
        slow = 8.0 if cid % 4 == 0 else 1.0
        out.append(ClientProfile(cid, compute_factor=slow, comm_factor=slow))
    return out


def _run(config, mode: str, time_budget: float):
    model = build_model(config)
    federation = build_federation(config)
    profiles = _profiles(config.num_clients)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=config.comm_time, profiles=profiles,
    )
    ids = [c.client_id for c in federation.clients]
    count = max(2, config.num_clients // 2)
    if mode == "full":
        sampler = None
    elif mode == "uniform":
        sampler = ClientSampler(ids, count=count, seed=config.seed)
    else:
        sampler = ClientSampler(ids, count=count, strategy="fastest-biased",
                                profiles=profiles, seed=config.seed)
    trainer = FLTrainer(model, federation, FABTopK(), timing=timing,
                        sampler=sampler,
                        learning_rate=config.learning_rate,
                        batch_size=config.batch_size,
                        eval_every=config.eval_every,
                        eval_max_samples=config.eval_max_samples,
                        seed=config.seed)
    k = max(2, int(0.4 * model.dimension / config.num_clients))
    while trainer.clock < time_budget:
        trainer.step(k)
    return trainer.history


def test_straggler_avoidance(capsys):
    config = bench_config()
    time_budget = 400.0

    def run():
        return {
            mode: _run(config, mode, time_budget)
            for mode in ("full", "uniform", "fastest-biased")
        }

    histories = run()
    rows = []
    for mode, history in histories.items():
        rows.append([
            mode,
            str(len(history)),
            f"{history.final_loss:.4f}",
        ])
    with capsys.disabled():
        print(f"\n[Heterogeneous ablation] 25% of clients are 8x stragglers,"
              f" time budget {time_budget:.0f}")
        print(text_table(["participation", "rounds completed", "final loss"],
                         rows))

    # Avoiding stragglers completes more rounds in the same budget...
    assert len(histories["fastest-biased"]) > len(histories["full"])
    # ...and reaches a lower loss.
    assert (histories["fastest-biased"].final_loss
            < histories["full"].final_loss)
