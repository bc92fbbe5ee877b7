"""One-command tour of the paper's evaluation at smoke scale.

Runs miniature versions of the paper's key experiments back to back,
renders ASCII charts, and prints quantitative comparison tables — a
5-minute version of `pytest -m slow` (the checks under `tests/slow/`).

Run:  python examples/reproduce_paper.py
"""

from repro.experiments.compare import compare_histories, speedup_at_target
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


def part1_gs_methods() -> None:
    print("=" * 72)
    print("Experiment 1 (paper Fig. 4): GS methods at fixed k, comm time 10")
    print("=" * 72)
    result = run_fig4(config())
    print(render_figure(result.loss_vs_time, height=16))
    print()
    summaries = compare_histories(result.histories)
    print(text_table(
        summaries[0].headers(), [s.row() for s in summaries],
    ))
    target = summaries[0].final_loss * 2
    speedups = speedup_at_target(result.histories, "always-send-all", target)
    print(f"\nspeedup vs always-send-all at loss {target:.3f}:")
    for name, s in speedups.items():
        print(f"  {name:<22} {'never reached' if s is None else f'{s:.1f}x'}")


def part2_adaptive_k() -> None:
    print()
    print("=" * 72)
    print("Experiment 2 (paper Fig. 5): online learning of k, comm time 10")
    print("=" * 72)
    result = run_fig5(config().with_overrides(num_rounds=150))
    print(render_figure(result.k_traces, height=14))
    print()
    summaries = compare_histories(result.histories)
    print(text_table(
        summaries[0].headers(), [s.row() for s in summaries],
    ))
    stability = result.k_stability()
    print("\nk-trace stability (std of the 2nd half — lower is steadier):")
    for name, std in sorted(stability.items(), key=lambda kv: kv[1]):
        print(f"  {name:<20} {std:.0f}")


if __name__ == "__main__":
    print(__doc__)
    part1_gs_methods()
    part2_adaptive_k()
    print("\nFull-scale versions: PYTHONPATH=src python -m pytest -m slow")
