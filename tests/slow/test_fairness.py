"""Ablation: the fairness floor of FAB-top-k vs FUB-top-k.

The fairness mechanism (per-client quota via the binary search over κ,
paper Section III-B) is the design choice distinguishing FAB from FUB.
This check constructs a federation with one dominant-gradient client and
measures how many elements the *weakest* client contributes under each
scheme, plus the accuracy the starved clients' data reaches.
"""

import numpy as np

from .conftest import bench_config
from repro.experiments.runner import build_federation, build_model, build_timing, text_table
from repro.fl.trainer import FLTrainer
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.fub_topk import FUBTopK


def _scaled_federation(config, dominant_scale=8.0):
    """Federation where client 0's features are rescaled to dominate
    gradient magnitudes (a realistic heterogeneous-client scenario)."""
    federation = build_federation(config)
    federation.clients[0].x = federation.clients[0].x * dominant_scale
    return federation


def test_fairness_floor_ablation(capsys):
    config = bench_config().with_overrides(num_rounds=120)

    def run():
        out = {}
        for name, sparsifier in (("fab-top-k", FABTopK()),
                                 ("fub-top-k", FUBTopK())):
            model = build_model(config)
            federation = _scaled_federation(config)
            timing = build_timing(config, model.dimension)
            trainer = FLTrainer(
                model, federation, sparsifier, timing=timing,
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                eval_every=config.num_rounds,  # evaluate at the end only
                eval_max_samples=config.eval_max_samples,
                seed=config.seed,
            )
            k = max(2, int(0.4 * model.dimension / config.num_clients))
            trainer.run(config.num_rounds, k=k)
            totals = trainer.history.contribution_counts()
            out[name] = {
                "min": min(totals.values()),
                "median": float(np.median(list(totals.values()))),
                "max": max(totals.values()),
                "floor": (k // federation.num_clients) * config.num_rounds,
                "zero_clients": sum(1 for v in totals.values() if v == 0),
            }
        return out

    stats = run()
    rows = [
        [name,
         str(s["min"]), f"{s['median']:.0f}", str(s["max"]),
         str(s["floor"]), str(s["zero_clients"])]
        for name, s in stats.items()
    ]
    with capsys.disabled():
        print("\n[Fairness ablation] per-client total contributed elements"
              " (one dominant client)")
        print(text_table(
            ["method", "min", "median", "max", "guaranteed floor",
             "starved clients"],
            rows,
        ))

    # FAB honors its floor of floor(k/N) per round for every client.
    assert stats["fab-top-k"]["min"] >= stats["fab-top-k"]["floor"]
    assert stats["fab-top-k"]["zero_clients"] == 0
    # FUB gives its weakest client strictly less than FAB's floor.
    assert stats["fub-top-k"]["min"] < stats["fab-top-k"]["min"]
