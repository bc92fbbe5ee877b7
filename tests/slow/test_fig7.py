"""Regenerates Fig. 7 — cross-application of learned k
sequences across communication times (FEMNIST-like data).

Paper result: Algorithm 3 learns larger k for smaller β; replaying a
sequence learned at one β under a different β is worse than the matched
sequence (adaptation matters — "a single value (or sequence) of k does
not work well for all cases").
"""

from .conftest import bench_config
from repro.experiments.fig7 import run_fig7
from repro.experiments.runner import text_table

COMM_TIMES = (0.1, 1.0, 10.0, 100.0)


def test_fig7_cross_application_femnist(capsys):
    config = bench_config().with_overrides(num_rounds=150)
    result = run_fig7(config, comm_times=COMM_TIMES, learn_rounds=150)

    with capsys.disabled():
        print("\n[Fig 7] learned k vs communication time (femnist-like)")
        print(text_table(
            ["beta", "mean learned k"],
            [[f"{b:g}", f"{result.mean_k(b):.0f}"] for b in COMM_TIMES],
        ))
        print("\nreplay matrix: final loss of sequence (row) at beta (col)")
        headers = ["sequence \\ beta"] + [f"{b:g}" for b in COMM_TIMES]
        rows = []
        for seq_beta in COMM_TIMES:
            rows.append(
                [f"{seq_beta:g}"]
                + [f"{result.final_loss[(seq_beta, b)]:.3f}" for b in COMM_TIMES]
            )
        print(text_table(headers, rows))
        print("matched-sequence rank per beta (0=best):",
              {f"{b:g}": result.matched_sequence_rank(b) for b in COMM_TIMES})

    # Learned k decreases (weakly) as communication gets more expensive.
    assert result.mean_k(COMM_TIMES[0]) > result.mean_k(COMM_TIMES[-1])
    # At the extreme betas the matched sequence is at or near the top.
    assert result.matched_sequence_rank(COMM_TIMES[-1]) <= 1
    assert result.matched_sequence_rank(COMM_TIMES[0]) <= 1
