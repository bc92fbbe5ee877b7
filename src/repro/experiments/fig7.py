"""Figs. 7 and 8 — cross-application of learned k sequences across β.

For each communication time β ∈ {0.1, 1, 10, 100}, run Algorithm 3 to
learn a sequence {k_m,β}.  Then replay *every* learned sequence under
*every* communication time with plain FAB-top-k training and compare the
loss reached within a common time budget.  The paper's claims:

- the learned k is (on average) decreasing in β;
- the matched sequence {k_m,β} performs best (or ties) at its own β;
- on CIFAR-like data (Fig. 8, extreme one-class-per-client skew) the
  spread between sequences is smaller because even large β needs a large
  k (paper footnote 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import make_policy
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    build_model,
    build_timing,
)
from repro.fl.trainer import FLTrainer
from repro.sparsify.fab_topk import FABTopK

COMM_TIMES = (0.1, 1.0, 10.0, 100.0)


@dataclass
class CrossApplicationResult:
    """Learned sequences plus the replay matrix."""

    comm_times: tuple[float, ...]
    sequences: dict[float, list[float]] = field(default_factory=dict)
    #: (sequence_beta, replay_beta) -> final loss within the time budget
    final_loss: dict[tuple[float, float], float] = field(default_factory=dict)
    k_traces: FigureData | None = None
    loss_curves: dict[float, FigureData] = field(default_factory=dict)

    def mean_k(self, beta: float) -> float:
        return float(np.mean(self.sequences[beta]))

    def matched_sequence_rank(self, beta: float) -> int:
        """Rank (0 = best) of the matched sequence when replayed at beta."""
        losses = {
            seq_beta: self.final_loss[(seq_beta, beta)]
            for seq_beta in self.comm_times
        }
        ordered = sorted(losses, key=losses.get)
        return ordered.index(beta)

    def spread_at(self, beta: float) -> float:
        """Max − min replay loss at beta (cross-sequence sensitivity)."""
        values = [self.final_loss[(s, beta)] for s in self.comm_times]
        return float(max(values) - min(values))


def run_cross_application(
    config: ExperimentConfig,
    comm_times: tuple[float, ...] = COMM_TIMES,
    learn_rounds: int | None = None,
    replay_time_budget: float | None = None,
) -> CrossApplicationResult:
    learn_rounds = learn_rounds if learn_rounds is not None else config.num_rounds
    result = CrossApplicationResult(comm_times=comm_times)
    result.k_traces = FigureData(title="learned k_m sequences")

    with ExperimentRun(config, "fig7") as run:
        # Phase 1: learn {k_m, beta} with Algorithm 3 at each beta.
        for beta in comm_times:
            model, federation, common = run.fresh(
                f"learn-beta={beta:g}", comm_time=beta,
                eval_every=max(config.eval_every, 10),
            )
            trainer = FLTrainer(model, federation, FABTopK(), **common)
            trainer.run(
                learn_rounds, make_policy("proposed", config, model.dimension)
            )
            result.sequences[beta] = trainer.history.ks()
            result.k_traces.add_k_trace(f"beta={beta:g}", trainer.history)

        # Phase 2: replay every sequence at every beta for a common budget.
        dimension = build_model(config).dimension
        for replay_beta in comm_times:
            fig = FigureData(title=f"replay at beta={replay_beta:g}")
            result.loss_curves[replay_beta] = fig
            budget = replay_time_budget
            if budget is None:
                # Budget = the time the matched sequence's rounds take.
                timing = build_timing(config, dimension, replay_beta)
                matched = result.sequences[replay_beta]
                budget = sum(
                    timing.sparse_round(int(max(k, 1)), int(max(k, 1))).total
                    for k in matched
                )
            for seq_beta in comm_times:
                model, federation, common = run.fresh(
                    f"replay-seq={seq_beta:g}-at={replay_beta:g}",
                    comm_time=replay_beta,
                )
                trainer = FLTrainer(model, federation, FABTopK(), **common)
                # A listed k holds its last value past the end.
                trainer.run_for_time(budget, [
                    max(1, min(int(round(k)), dimension))
                    for k in result.sequences[seq_beta]
                ])
                xs, ys = trainer.history.loss_curve()
                fig.add(f"k-seq(beta={seq_beta:g})", xs, ys)
                result.final_loss[(seq_beta, replay_beta)] = (
                    ys[-1] if ys else float("inf")
                )
    return result


def run_fig7(config: ExperimentConfig | None = None, **kwargs
             ) -> CrossApplicationResult:
    """Fig. 7: FEMNIST-like cross-application."""
    if config is None:
        config = ExperimentConfig.default()
    if config.dataset != "femnist":
        raise ValueError("Fig. 7 uses the FEMNIST-like dataset")
    return run_cross_application(config, **kwargs)


def run_fig8(config: ExperimentConfig | None = None, **kwargs
             ) -> CrossApplicationResult:
    """Fig. 8: CIFAR-like (one class per client) cross-application."""
    if config is None:
        config = ExperimentConfig.cifar_default()
    if config.dataset != "cifar":
        raise ValueError("Fig. 8 uses the CIFAR-like dataset")
    return run_cross_application(config, **kwargs)
