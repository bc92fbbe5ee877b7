"""Regenerates Fig. 1 — Assumption-1 validation.

Paper result: after every run reaches the target loss ψ and switches to a
common k, the loss trajectories are nearly identical regardless of the
pre-switch k'.  We report the post-switch curves and the maximum
cross-run deviation.
"""

from .conftest import bench_config
from repro.experiments.fig1 import run_fig1
from repro.experiments.runner import text_table


def test_fig1_assumption1_validation(capsys):
    config = bench_config().with_overrides(num_rounds=80)
    dimension_probe_ks = None  # defaults: {D, D/4, D/40, D/400}
    result = run_fig1(config, pre_ks=dimension_probe_ks, post_rounds=60)

    rows = []
    for series in result.figure.series:
        rows.append([
            series.label,
            f"{result.pre_rounds[int(series.label.split('=')[1])]}",
            f"{series.y[0]:.4f}",
            f"{series.y[len(series.y) // 2]:.4f}",
            f"{series.y[-1]:.4f}",
        ])
    with capsys.disabled():
        print("\n[Fig 1] post-switch loss trajectories (common k)")
        print(text_table(
            ["pre-switch k", "rounds to psi", "loss@switch", "loss@mid",
             "loss@end"],
            rows,
        ))
        print(f"max cross-run deviation: {result.max_deviation():.4f} "
              f"(psi={result.psi:.4f})")
        print(f"mean post-switch loss spread: "
              f"{result.mean_post_loss_spread():.4f}")

    # Assumption 1 at this scale: post-switch trajectories coincide to a
    # small fraction of the loss scale.
    assert result.max_deviation() < 0.35 * result.psi
