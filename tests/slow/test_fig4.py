"""Regenerates Fig. 4 — GS methods at fixed k, β = 10.

Paper result: FAB-top-k attains the lowest loss / highest accuracy versus
normalized time; FUB-top-k is close behind but starves some clients
(contribution CDF reaching zero), while periodic-k, comm-matched FedAvg,
and always-send-all trail clearly.
"""

from .conftest import bench_config
from repro.experiments.fig4 import run_fig4
from repro.experiments.runner import text_table


def test_fig4_gs_method_comparison(capsys):
    config = bench_config().with_overrides(num_rounds=250)
    result = run_fig4(config)

    budget = result.histories["fab-top-k"].total_time
    checkpoints = [budget * f for f in (0.25, 0.5, 1.0)]
    rows = []
    for method, history in result.histories.items():
        losses = [f"{result.loss_at_time(t)[method]:.4f}" for t in checkpoints]
        accs = [a for a in history.accuracies()]
        rows.append([
            method,
            *losses,
            f"{accs[-1]:.3f}" if accs else "-",
            str(result.min_client_contribution(method)),
        ])
    with capsys.disabled():
        print(f"\n[Fig 4] GS methods, k={result.k}, comm time=10")
        print(text_table(
            ["method", "loss@25%t", "loss@50%t", "loss@100%t",
             "final acc", "min client contrib"],
            rows,
        ))
        print("ranking at full budget:", " > ".join(result.ranking_at_time(budget)))

    final = result.loss_at_time(budget)
    # Paper's orderings at β=10:
    assert final["fab-top-k"] < final["periodic-k"]
    assert final["fab-top-k"] < final["fedavg"]
    assert final["fab-top-k"] < final["always-send-all"]
    assert final["fub-top-k"] < final["always-send-all"]
    # Fairness floor: FAB guarantees every client contributes; FUB can
    # starve clients (or at best matches FAB).
    assert result.min_client_contribution("fab-top-k") > 0
    assert (
        result.min_client_contribution("fab-top-k")
        >= result.min_client_contribution("fub-top-k")
    )
