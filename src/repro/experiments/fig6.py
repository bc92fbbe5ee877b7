"""Fig. 6 — Algorithm 3 vs Algorithm 2 at large communication time.

With β = 100 the optimal k is small, so Algorithm 2's step size
δ_m = B/√(2m) (with B = kmax − kmin ≈ D) overshoots and keeps k
fluctuating high — spending heavily on communication.  Algorithm 3's
shrinking search interval suppresses the fluctuation.  The figure reports
loss/accuracy vs time and both k_m traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import make_policy
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    build_search_interval,
)
from repro.fl.metrics import TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.online.algorithm2 import SignOGD
from repro.online.policy import SignPolicy
from repro.sparsify.fab_topk import FABTopK


@dataclass
class Fig6Result:
    loss_vs_time: FigureData
    k_traces: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)

    def k_fluctuation(self) -> dict[str, float]:
        """Std of k over the second half of each trace."""
        return self.k_traces.second_half_std()

    def loss_at_time(self, t: float) -> dict[str, float]:
        return self.loss_vs_time.y_at(t)


def run_fig6(config: ExperimentConfig) -> Fig6Result:
    """Both algorithms at the config's β (``scaled_config(scale,
    "fig6")`` presets the paper's β = 100)."""
    loss_fig = FigureData(title="Fig6 loss vs normalized time")
    k_fig = FigureData(title="Fig6 k_m traces")
    result = Fig6Result(loss_vs_time=loss_fig, k_traces=k_fig)

    with ExperimentRun(config, "fig6") as run:
        for label in ("algorithm3", "algorithm2"):
            model, federation, common = run.fresh(label)
            if label == "algorithm3":
                policy = make_policy("proposed", config, model.dimension)
            else:
                policy = SignPolicy(
                    SignOGD(build_search_interval(config, model.dimension))
                )
            trainer = FLTrainer(model, federation, FABTopK(), **common)
            trainer.run(config.num_rounds, policy)
            result.histories[label] = trainer.history
            loss_fig.add(label, *trainer.history.loss_curve())
            k_fig.add_k_trace(label, trainer.history)
    return result
