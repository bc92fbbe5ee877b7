"""One-command tour of the paper's evaluation at smoke scale.

Runs miniature versions of the paper's key experiments back to back,
renders ASCII charts, and prints quantitative comparison tables — a
5-minute version of `pytest -m slow` (the checks under `tests/slow/`).

Run:  python examples/reproduce_paper.py
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.plotting import render_figure
from repro.experiments.runner import text_table


def config():
    return ExperimentConfig(
        num_clients=12, samples_per_client=20, image_size=10,
        num_classes=10, classes_per_writer=4, hidden=(16,),
        learning_rate=0.05, batch_size=16, comm_time=10.0,
        num_rounds=120, eval_every=5, eval_max_samples=250, seed=0,
    )


def summary_table(histories, target: float) -> str:
    """Final loss, time to ``target`` and Jain's index of the per-client
    contribution totals (1 = even), best final loss first."""
    rows = []
    for name, history in sorted(histories.items(),
                                key=lambda item: item[1].final_loss):
        reach = history.time_to_loss(target)
        counts = list(history.contribution_counts().values())
        squares = sum(c * c for c in counts)
        rows.append([
            name, f"{history.final_loss:.4f}", f"{history.total_time:.0f}",
            str(len(history)), "-" if reach is None else f"{reach:.0f}",
            f"{sum(counts) ** 2 / (len(counts) * squares):.3f}"
            if squares else "-",
        ])
    return text_table(["run", "final loss", "time", "rounds", "t(target)",
                       "fairness"], rows)


def part1_gs_methods() -> None:
    print("=" * 72)
    print("Experiment 1 (paper Fig. 4): GS methods at fixed k, comm time 10")
    print("=" * 72)
    result = run_fig4(config())
    print(render_figure(result.loss_vs_time, height=16))
    print()
    histories = result.histories
    baseline = histories["always-send-all"]
    target = baseline.final_loss
    print(summary_table(histories, target))
    base = baseline.time_to_loss(target)
    print(f"\nspeedup vs always-send-all at its final loss {target:.3f}:")
    for name, history in histories.items():
        reach = history.time_to_loss(target)
        speedup = "never reached" if reach is None else f"{base / reach:.1f}x"
        print(f"  {name:<22} {speedup}")


def part2_adaptive_k() -> None:
    print()
    print("=" * 72)
    print("Experiment 2 (paper Fig. 5): online learning of k, comm time 10")
    print("=" * 72)
    result = run_fig5(config().with_overrides(num_rounds=150))
    print(render_figure(result.k_traces, height=14))
    print()
    finals = [h.final_loss for h in result.histories.values()]
    print(summary_table(result.histories, max(finals)))
    stability = result.k_stability()
    print("\nk-trace stability (std of the 2nd half — lower is steadier):")
    for name, std in sorted(stability.items(), key=lambda kv: kv[1]):
        print(f"  {name:<20} {std:.0f}")


if __name__ == "__main__":
    print(__doc__)
    part1_gs_methods()
    part2_adaptive_k()
    print("\nFull-scale versions: PYTHONPATH=src python -m pytest -m slow")
