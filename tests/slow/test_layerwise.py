"""Ablation: layer-wise vs global top-k selection at equal budget k.

The paper cites layer-wise adaptive sparsification [26], [27] as
orthogonal/complementary.  This check compares global FAB-top-k against
the two layer-wise budget splits (proportional and magnitude-adaptive) at
the same total k, all under the same normalized-time accounting.
"""

from .conftest import bench_config
from repro.experiments.runner import build_federation, build_model, build_timing, text_table
from repro.fl.trainer import FLTrainer
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.layerwise import LayerwiseTopK


def _run(config, variant: str, num_rounds: int):
    model = build_model(config)
    federation = build_federation(config)
    timing = build_timing(config, model.dimension)
    if variant == "global":
        sparsifier = FABTopK()
    else:
        split = "proportional" if variant == "layerwise-prop" else "magnitude"
        sparsifier = LayerwiseTopK(model.parameter_slices(), split=split)
    trainer = FLTrainer(model, federation, sparsifier, timing=timing,
                        learning_rate=config.learning_rate,
                        batch_size=config.batch_size,
                        eval_every=config.eval_every,
                        eval_max_samples=config.eval_max_samples,
                        seed=config.seed)
    k = max(4, int(0.4 * model.dimension / config.num_clients))
    trainer.run(num_rounds, k=k)
    return trainer.history


VARIANTS = ("global", "layerwise-prop", "layerwise-mag")


def test_layerwise_variants(capsys):
    config = bench_config().with_overrides(num_rounds=150)

    def run():
        return {v: _run(config, v, config.num_rounds) for v in VARIANTS}

    histories = run()
    rows = [
        [v, f"{h.final_loss:.4f}", f"{h.total_time:.0f}"]
        for v, h in histories.items()
    ]
    with capsys.disabled():
        print("\n[Layer-wise ablation] equal total k, equal rounds")
        print(text_table(["variant", "final loss", "total time"], rows))

    # All variants must actually learn; none should blow up.
    for v, h in histories.items():
        losses = [r.loss for r in h if r.loss == r.loss]
        assert h.final_loss < losses[0], v
    # Layer-wise selection spends the same time budget (same k, same
    # pair accounting) — the comparison is purely about selection quality.
    times = [h.total_time for h in histories.values()]
    assert max(times) - min(times) < 1e-6
