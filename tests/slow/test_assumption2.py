"""Ablation: empirical check of Assumption 2 on the real FL system.

The paper's online algorithm is derived under Assumption 2 (t(k, l)
convex in k, common minimizer across loss levels) but only remarks that
the algorithm works empirically without it.  This check measures
t̂(k, band) over a k grid and reports each loss band's curve shape.
"""

from .conftest import bench_config
from repro.experiments.assumption2 import run_assumption2
from repro.experiments.runner import text_table


def test_assumption2_measured_cost_shape(capsys):
    config = bench_config().with_overrides(comm_time=30.0, num_rounds=220)
    result = run_assumption2(config, num_bands=3)

    rows = []
    for i, (hi, lo) in enumerate(result.loss_bands):
        argmin = result.band_argmin(i)
        rows.append([
            f"{hi:.2f} -> {lo:.2f}",
            "-" if argmin is None else str(argmin),
            f"{result.convexity_score(i):.2f}",
        ])
    with capsys.disabled():
        print("\n[Assumption 2] measured t(k, l) over k grid "
              f"{result.k_grid} (comm time 30)")
        print(text_table(
            ["loss band", "argmin k", "convexity score"], rows,
        ))
        print(f"relative argmin spread across bands: "
              f"{result.argmin_spread():.2f}")

    # Each band's measured curve is predominantly convex over the grid.
    for i in range(len(result.loss_bands)):
        assert result.convexity_score(i) >= 0.5, f"band {i} far from convex"
    # The minimizing k stays in the same region across bands
    # (Assumption 2c holds approximately).
    assert result.argmin_spread() <= 0.9
