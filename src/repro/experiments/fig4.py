"""Fig. 4 — comparison of GS methods at fixed k (paper Section V-A).

Six methods, all with the same sparsity k and communication time β = 10:

1. FAB-top-k (proposed)
2. FUB-top-k (fairness-unaware bidirectional) [28], [31]
3. Unidirectional top-k [22]
4. Periodic-k (random subset) [8], [30]
5. FedAvg sending everything every ⌊D/(2k)⌋ rounds (comm-matched) [2]
6. Always-send-all (Algorithm 1 at k = D)

Outputs the three panels of Fig. 4: loss vs normalized time, accuracy vs
normalized time, and the CDF of the number of gradient elements used from
each client (the fairness panel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    build_model,
    build_timing,
    contribution_cdf,
    fig4_sparsity,
)
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.metrics import TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.unidirectional import UnidirectionalTopK

METHODS = (
    "fab-top-k",
    "fub-top-k",
    "unidirectional-top-k",
    "periodic-k",
    "fedavg",
    "always-send-all",
)


@dataclass
class Fig4Result:
    k: int
    loss_vs_time: FigureData
    accuracy_vs_time: FigureData
    contribution_cdf: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)

    def loss_at_time(self, t: float) -> dict[str, float]:
        """Loss of each method at normalized time t (step interpolation)."""
        return self.loss_vs_time.y_at(t)

    def ranking_at_time(self, t: float) -> list[str]:
        """Methods ordered best (lowest loss) first at time t."""
        at = self.loss_at_time(t)
        return sorted(at, key=at.get)

    def min_client_contribution(self, method: str) -> int:
        """Smallest total contribution across clients (fairness floor)."""
        totals = self.histories[method].contribution_counts()
        if not totals:
            return 0
        return min(totals.values())


def run_fig4(
    config: ExperimentConfig,
    k: int | None = None,
    time_budget: float | None = None,
) -> Fig4Result:
    """Run all six methods for an equal normalized-time budget."""
    dimension = build_model(config).dimension
    if k is None:
        k = fig4_sparsity(dimension, config.num_clients)

    timing = build_timing(config, dimension)
    if time_budget is None:
        # Paper runs each method the same wall-clock; our budget is the
        # time FAB-top-k needs for config.num_rounds rounds.
        time_budget = config.num_rounds * timing.sparse_round(k, k).total

    loss_fig = FigureData(title="Fig4 loss vs normalized time")
    acc_fig = FigureData(title="Fig4 accuracy vs normalized time")
    cdf_fig = FigureData(title="Fig4 per-client contribution CDF")
    result = Fig4Result(
        k=k, loss_vs_time=loss_fig, accuracy_vs_time=acc_fig,
        contribution_cdf=cdf_fig,
    )

    with ExperimentRun(config, "fig4") as run:
        for method in METHODS:
            history = _run_method(run, method, k, time_budget)
            result.histories[method] = history
            loss_fig.add(method, *history.loss_curve())
            acc_fig.add(method, *history.accuracy_curve())
            if method in ("fab-top-k", "fub-top-k", "unidirectional-top-k"):
                totals = history.contribution_counts()
                if totals:
                    values, cdf = contribution_cdf(totals)
                    cdf_fig.add(method, values.tolist(), cdf.tolist())
    return result


def _run_method(
    run: ExperimentRun, method: str, k: int, time_budget: float
) -> TrainingHistory:
    model, federation, common = run.fresh(method)
    if method == "fedavg":
        trainer = FedAvgTrainer(
            model, federation,
            aggregation_period=common["timing"].fedavg_period(k), **common,
        )
        return trainer.run_for_time(time_budget)
    if method == "always-send-all":
        # Algorithm 1 at k = D: every residual uploaded whole, the full
        # weighted mean sent back.
        trainer = FLTrainer(model, federation, FABTopK(), **common)
        return trainer.run_for_time(time_budget, model.dimension)
    sparsifiers = {
        "fab-top-k": FABTopK,
        "fub-top-k": FUBTopK,
        "unidirectional-top-k": UnidirectionalTopK,
    }
    if method == "periodic-k":
        sparsifier = PeriodicK(model.dimension, seed=run.config.seed)
    else:
        sparsifier = sparsifiers[method]()
    trainer = FLTrainer(model, federation, sparsifier, **common)
    return trainer.run_for_time(time_budget, k)
