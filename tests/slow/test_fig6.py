"""Regenerates Fig. 6 — Algorithm 3 vs Algorithm 2 at β = 100.

Paper result: with expensive communication the optimal k is small;
Algorithm 3's shrinking search interval tracks it with much less
fluctuation than Algorithm 2, yielding equal-or-better loss vs time.
"""

import numpy as np

from .conftest import bench_config
from repro.experiments.fig6 import run_fig6
from repro.experiments.runner import text_table


def test_fig6_algorithm3_vs_algorithm2(capsys):
    config = bench_config().with_overrides(num_rounds=200, comm_time=100.0)
    result = run_fig6(config)

    budget = min(h.total_time for h in result.histories.values())
    final = result.loss_at_time(budget)
    fluct = result.k_fluctuation()
    rows = []
    for label, history in result.histories.items():
        ks = np.array(history.ks())
        rows.append([
            label,
            f"{final[label]:.4f}",
            f"{np.mean(ks):.0f}",
            f"{fluct[label]:.0f}",
        ])
    with capsys.disabled():
        print("\n[Fig 6] Algorithm 3 vs Algorithm 2, comm time=100")
        print(text_table(
            ["algorithm", f"loss@t={budget:.0f}", "mean k", "k std (2nd half)"],
            rows,
        ))

    # Algorithm 3 fluctuates less and does at least as well on loss.
    assert fluct["algorithm3"] < fluct["algorithm2"]
    assert final["algorithm3"] <= final["algorithm2"] * 1.10
