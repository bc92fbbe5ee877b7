"""Ablation: composing quantization with FAB-top-k GS.

The paper (Section II) notes quantization is orthogonal to GS and can be
applied together with it.  This check runs FAB-top-k with and without
QSGD-style 4-bit value quantization at the same k; the quantized variant
pays less per transmitted pair (pair overhead (32+5)/32 ≈ 1.16 instead of
2.0), so it should reach comparable loss in less normalized time.
"""

from .conftest import bench_config
from repro.compress.quantization import QuantizedSparsifier, UniformQuantizer
from repro.experiments.runner import build_federation, build_model, text_table
from repro.fl.trainer import FLTrainer
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK


def _run(config, quantize: bool, num_rounds: int):
    model = build_model(config)
    federation = build_federation(config)
    if quantize:
        quantizer = UniformQuantizer(num_levels=15, seed=config.seed)
        sparsifier = QuantizedSparsifier(FABTopK(), quantizer)
        pair_overhead = (32 + sparsifier.uplink_value_bits) / 32
    else:
        sparsifier = FABTopK()
        pair_overhead = 2.0
    timing = TimingModel(model.dimension, comm_time=config.comm_time,
                         pair_overhead=pair_overhead)
    trainer = FLTrainer(model, federation, sparsifier, timing=timing,
                        learning_rate=config.learning_rate,
                        batch_size=config.batch_size,
                        eval_every=config.eval_every,
                        eval_max_samples=config.eval_max_samples,
                        seed=config.seed)
    k = max(2, int(0.4 * model.dimension / config.num_clients))
    trainer.run(num_rounds, k=k)
    return trainer.history


def test_quantization_composition(capsys):
    config = bench_config().with_overrides(num_rounds=150)

    def run():
        full = _run(config, quantize=False, num_rounds=config.num_rounds)
        quant = _run(config, quantize=True, num_rounds=config.num_rounds)
        return full, quant

    full, quant = run()
    rows = [
        ["fab-top-k (32-bit values)", f"{full.final_loss:.4f}",
         f"{full.total_time:.0f}"],
        ["fab-top-k + 4-bit quantization", f"{quant.final_loss:.4f}",
         f"{quant.total_time:.0f}"],
    ]
    with capsys.disabled():
        print("\n[Quantization ablation] same k, same rounds")
        print(text_table(["variant", "final loss", "total time"], rows))

    # Same number of rounds but cheaper pairs: quantized finishes sooner.
    assert quant.total_time < full.total_time
    # And the 4-bit loss penalty is modest thanks to error feedback.
    assert quant.final_loss < full.final_loss + 0.5
