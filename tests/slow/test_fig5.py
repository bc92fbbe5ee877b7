"""Regenerates Fig. 5 — adaptive-k online methods, β = 10.

Paper result: the proposed method (Algorithm 3 + sign estimator) reaches
lower loss than value-based derivative descent, EXP3, and the continuous
bandit, and its k_m trace is far more stable than the bandit methods'.
"""

import numpy as np

from .conftest import bench_config
from repro.experiments.fig5 import run_fig5
from repro.experiments.runner import text_table


def test_fig5_adaptive_k_methods(capsys):
    config = bench_config().with_overrides(num_rounds=200)
    result = run_fig5(config)

    budget = min(h.total_time for h in result.histories.values())
    final = result.loss_at_time(budget)
    stability = result.k_stability()
    rows = []
    for name, history in result.histories.items():
        ks = np.array(history.ks())
        rows.append([
            name,
            f"{final[name]:.4f}",
            f"{np.mean(ks):.0f}",
            f"{stability[name]:.0f}",
        ])
    with capsys.disabled():
        print("\n[Fig 5] adaptive-k methods, comm time=10")
        print(text_table(
            ["method", f"loss@t={budget:.0f}", "mean k", "k std (2nd half)"],
            rows,
        ))

    # Proposed beats every baseline at the common time budget.
    for baseline in ("value-based", "exp3", "continuous-bandit"):
        assert final["proposed"] <= final[baseline] * 1.05, baseline
    # Proposed k-trace is more stable than the bandit baselines'.
    assert stability["proposed"] < stability["exp3"]
    assert stability["proposed"] < stability["continuous-bandit"]
