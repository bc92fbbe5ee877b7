"""Fig. 5 — adaptive-k online-learning methods compared (Section V-B).

Four policies drive k during FAB-top-k training at β = 10:

1. Proposed: Algorithm 3 + derivative-sign estimator
   (α = 1.5, M_u = 20, kmin = 0.002·D, kmax = D — the paper's settings).
2. Value-based gradient (derivative) descent.
3. EXP3 over (discretized) arms.
4. Continuous one-point bandit.

Outputs loss/accuracy vs time plus the k_m trace of every method (the
bottom row of Fig. 5, which shows the proposed method's stability against
the bandits' wild oscillation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    build_search_interval,
)
from repro.fl.metrics import TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.baselines import ContinuousBandit, Exp3Policy, ValueBasedGD
from repro.online.policy import KPolicy, SignPolicy
from repro.sparsify.fab_topk import FABTopK

POLICIES = ("proposed", "value-based", "exp3", "continuous-bandit")


@dataclass
class Fig5Result:
    loss_vs_time: FigureData
    accuracy_vs_time: FigureData
    k_traces: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)

    def loss_at_time(self, t: float) -> dict[str, float]:
        return self.loss_vs_time.y_at(t)

    def k_stability(self) -> dict[str, float]:
        """Std-dev of each method's k trace over its second half."""
        return self.k_traces.second_half_std()


def make_policy(
    name: str, config: ExperimentConfig, dimension: int
) -> KPolicy:
    """Instantiate a Fig. 5 policy by name with the paper's parameters."""
    interval = build_search_interval(config, dimension)
    if name == "proposed":
        return SignPolicy(
            AdaptiveSignOGD(
                interval, alpha=config.alpha, update_window=config.update_window
            )
        )
    if name == "value-based":
        return ValueBasedGD(interval)
    if name == "exp3":
        return Exp3Policy(interval, num_arms=32, seed=config.seed)
    if name == "continuous-bandit":
        return ContinuousBandit(interval, seed=config.seed)
    raise ValueError(f"unknown policy {name!r}")


def run_fig5(
    config: ExperimentConfig,
    policies: tuple[str, ...] = POLICIES,
) -> Fig5Result:
    loss_fig = FigureData(title="Fig5 loss vs normalized time")
    acc_fig = FigureData(title="Fig5 accuracy vs normalized time")
    k_fig = FigureData(title="Fig5 k_m traces")
    result = Fig5Result(loss_vs_time=loss_fig, accuracy_vs_time=acc_fig,
                        k_traces=k_fig)

    with ExperimentRun(config, "fig5") as run:
        for name in policies:
            model, federation, common = run.fresh(name)
            policy = make_policy(name, config, model.dimension)
            trainer = FLTrainer(model, federation, FABTopK(), **common)
            trainer.run(config.num_rounds, policy)
            result.histories[name] = trainer.history
            loss_fig.add(name, *trainer.history.loss_curve())
            acc_fig.add(name, *trainer.history.accuracy_curve())
            k_fig.add_k_trace(name, trainer.history)
    return result
