"""Regenerates Fig. 8 — cross-application on CIFAR-like data.

Same protocol as Fig. 7 but with the extreme one-class-per-client
partition.  Paper result (footnote 6): the strong non-i.i.d. skew forces
a relatively large k even when communication is expensive, so the spread
between the learned sequences — and between their replay outcomes — is
smaller than on FEMNIST.
"""

from .conftest import bench_config, cifar_bench_config
from repro.experiments.fig7 import run_fig7, run_fig8
from repro.experiments.runner import text_table

COMM_TIMES = (0.1, 100.0)


def test_fig8_cross_application_cifar(capsys):
    cifar_cfg = cifar_bench_config().with_overrides(num_rounds=150)
    result = run_fig8(cifar_cfg, comm_times=COMM_TIMES, learn_rounds=150)

    # Reference spread on femnist-like data at the same betas/rounds.
    femnist_cfg = bench_config().with_overrides(num_rounds=150)
    femnist = run_fig7(femnist_cfg, comm_times=COMM_TIMES, learn_rounds=150)

    with capsys.disabled():
        print("\n[Fig 8] learned k vs communication time (cifar-like)")
        print(text_table(
            ["beta", "mean k (cifar)", "mean k (femnist)"],
            [[f"{b:g}", f"{result.mean_k(b):.0f}", f"{femnist.mean_k(b):.0f}"]
             for b in COMM_TIMES],
        ))
        rel_cifar = [result.spread_at(b) for b in COMM_TIMES]
        rel_femnist = [femnist.spread_at(b) for b in COMM_TIMES]
        print(f"replay-loss spread (cifar):   {rel_cifar}")
        print(f"replay-loss spread (femnist): {rel_femnist}")

    # Learned k still decreases in beta on cifar.
    assert result.mean_k(COMM_TIMES[0]) > result.mean_k(COMM_TIMES[-1])
    # Footnote-6 claim: at small beta the cross-sequence difference on
    # CIFAR-like data is small (sequences all keep k relatively large).
    assert result.spread_at(COMM_TIMES[0]) <= femnist.spread_at(COMM_TIMES[0]) + 0.5
