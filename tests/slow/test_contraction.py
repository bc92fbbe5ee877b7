"""Ablation: measured top-k contraction of real FL gradients vs theory.

The convergence analyses the paper points at ([29]) rest on the top-k
contraction bound (1 − k/D).  This check collects actual round gradients
from a federated run and reports how much better they contract — real
gradients are heavy-tailed, which is the empirical reason top-k GS keeps
nearly all the signal at tiny k/D.
"""

import numpy as np

from .conftest import bench_config
from repro.analysis.contraction import (
    empirical_contraction,
    gradient_concentration,
)
from repro.experiments.runner import build_federation, build_model, text_table


def test_gradient_contraction_vs_bound(capsys):
    config = bench_config()

    def run():
        model = build_model(config)
        federation = build_federation(config)
        gradients = []
        # Collect gradients along an actual optimization trajectory.
        for _ in range(20):
            x, y = federation.global_pool()
            grad = model.gradient(x, y)
            model.set_weights(model.get_weights() - 0.05 * grad)
            gradients.append(grad)
        rows = []
        stats_small = None
        for fraction in (0.005, 0.02, 0.1):
            k = max(1, int(fraction * model.dimension))
            stats = empirical_contraction(gradients, k)
            if fraction == 0.005:
                stats_small = stats
            rows.append([
                f"{fraction:.1%}", str(k),
                f"{stats['mean']:.3f}", f"{stats['max']:.3f}",
                f"{stats['bound']:.3f}",
            ])
        concentration = gradient_concentration(gradients[0],
                                               fractions=(0.01, 0.1))
        return rows, stats_small, concentration

    rows, stats_small, concentration = run()
    with capsys.disabled():
        print("\n[Contraction] ||g - top_k(g)||^2 / ||g||^2 on real FL "
              "gradients (20 rounds)")
        print(text_table(
            ["k/D", "k", "measured mean", "measured max", "worst-case bound"],
            rows,
        ))
        print(f"top-1% of |g| carries {concentration[0.01]:.1%} of the mass; "
              f"top-10% carries {concentration[0.1]:.1%}")

    # Real gradients must contract strictly better than the worst case —
    # the heavy-tail advantage top-k GS exploits.
    assert stats_small is not None
    assert stats_small["max"] < stats_small["bound"]
    assert np.isfinite(stats_small["mean"])
