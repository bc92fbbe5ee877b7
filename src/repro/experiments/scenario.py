"""Deployment-scenario experiment: fixed-k vs adaptive-k under churn.

The paper's evaluation runs an ideal population — every client online,
every upload aggregated.  This driver wraps the same two protagonists in
a deployment scenario (availability churn, straggler profiles, a
deadline-gated server; :mod:`repro.scenarios`) and asks the question the
paper's Section VI points at: once rounds can lose uploads, does the
residual-accumulating sparsifier still convert communication savings
into convergence-per-time, and does the adaptive-k policy still find a
good operating point when its reward signal comes from partial rounds?

Methods (both FAB-top-k, both under the *same* scenario realization —
fresh per run, seeded identically):

- ``fixed-k``:   :class:`~repro.fl.trainer.FLTrainer` at the Fig. 4
  sparsity ``k ≈ 0.4·D/N``.
- ``adaptive-k``: :class:`~repro.online.adaptive_trainer.AdaptiveKTrainer`
  with the paper's proposed policy (Algorithm 3 + sign estimator).

Artifacts: loss/accuracy vs normalized time, the adaptive k-trace, and a
delivery panel (per-round arrivals and cumulative deadline drops) showing
how much of the round traffic the deadline gate actually cut.

A second driver, :func:`run_deadline_adaptation`, compares *deadline
policies* instead of k policies: the same fixed-k trainer under fixed
deadlines at the regime's interval endpoints, the cycling amnesty
schedule, and the online-learned adaptive deadline (the dual of the
learned k; :class:`repro.scenarios.deadline.AdaptiveDeadlinePolicy`) —
loss vs simulated time plus the per-round deadline each policy had in
force.

A third driver, :func:`run_async_comparison`, drops the deadline answer
to stragglers entirely and compares commit *disciplines*: the
synchronous full-barrier baseline against asynchronous staleness-
weighted commits (:class:`repro.fl.async_engine.AsyncFLTrainer`) under
each staleness discount, on the same heterogeneous timing — loss vs
simulated time plus per-commit staleness (and the adaptive discount's
learned exponent trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import make_policy
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    build_model,
    fig4_sparsity,
)
from repro.fl.async_engine import AsyncFLTrainer
from repro.fl.metrics import TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.scenarios import ScenarioConfig
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK

METHODS = ("fixed-k", "adaptive-k")

#: async comparison variants: the wait-for-everyone synchronous baseline
#: plus one async trainer per staleness-discount kind
ASYNC_VARIANTS = ("sync", "async-constant", "async-polynomial",
                  "async-adaptive")

#: cohort target a population-scale run falls back to when its scenario
#: does not name one — ``participants=0`` means "all available", which
#: is exactly the O(population) iteration virtual federations exist to
#: avoid, so it is never the right default at N = 10^6.
DEFAULT_POPULATION_COHORT = 10


def population_cohort(participants: int | None = None) -> int:
    """The per-round cohort of a population-scale run: the scenario's
    ``participants`` target, else :data:`DEFAULT_POPULATION_COHORT`."""
    return int(participants or DEFAULT_POPULATION_COHORT)


@dataclass
class ScenarioRunResult:
    """Figures + histories + delivery stats of one scenario comparison."""

    k: int
    scenario: dict
    loss_vs_time: FigureData
    accuracy_vs_time: FigureData
    k_traces: FigureData
    delivery: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)
    stats: dict[str, dict] = field(default_factory=dict)

    def loss_at_time(self, t: float) -> dict[str, float]:
        return self.loss_vs_time.y_at(t)

    def drop_rate(self, method: str) -> float:
        """Fraction of this method's cohort uploads the deadline cut."""
        stats = self.stats[method]
        total = stats["total_arrived"] + stats["total_dropped"]
        return stats["total_dropped"] / total if total else 0.0


def resolve_scenario_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fill in the default churn scenario when the config carries none.

    The default realization is seeded from the experiment seed so sweep
    grids over seeds vary the churn too.
    """
    if config.scenario is not None:
        return config
    scenario = ScenarioConfig.default_churn().with_overrides(seed=config.seed)
    if config.population:
        scenario = scenario.with_overrides(
            participants=population_cohort()
        )
    return config.with_overrides(scenario=scenario.to_dict())


def _scenario_budget(
    config: ExperimentConfig, k: int | None, time_budget: float | None
) -> tuple[int, int, float, int]:
    """(dimension, k, time_budget, max_rounds) both drivers share.

    k defaults to Fig. 4's sparsity regime (see run_fig4); the budget is
    counted in *base* round times — scenarios re-time rounds, so the
    nominal (profile-free) k-GS round defines a comparable budget.
    """
    dimension = build_model(config).dimension
    if k is None:
        cohort = config.num_clients
        if config.population:
            # Virtual populations never run full-participation rounds;
            # the per-round cohort is the scenario's participants target.
            cohort = population_cohort(
                (config.scenario or {}).get("participants")
            )
        k = fig4_sparsity(dimension, cohort)
    if time_budget is None:
        base = TimingModel(dimension=dimension, comm_time=config.comm_time)
        time_budget = config.num_rounds * base.sparse_round(k, k).total
    return dimension, k, time_budget, max(1, 3 * config.num_rounds)


def run_scenario(
    config: ExperimentConfig,
    k: int | None = None,
    time_budget: float | None = None,
) -> ScenarioRunResult:
    """Run both methods under the config's scenario for equal time."""
    config = resolve_scenario_config(config)
    dimension, k, time_budget, max_rounds = _scenario_budget(
        config, k, time_budget
    )

    loss_fig = FigureData(title="Scenario loss vs normalized time")
    acc_fig = FigureData(title="Scenario accuracy vs normalized time")
    k_fig = FigureData(title="Scenario k_m traces")
    delivery_fig = FigureData(title="Scenario per-round delivery")
    result = ScenarioRunResult(
        k=k, scenario=dict(config.scenario or {}), loss_vs_time=loss_fig,
        accuracy_vs_time=acc_fig, k_traces=k_fig, delivery=delivery_fig,
    )

    with ExperimentRun(config, "scenario") as run:
        for method in METHODS:
            model, federation, common = run.fresh(method)
            if method == "fixed-k":
                trainer = FLTrainer(model, federation, FABTopK(), **common)
                trainer.run_for_time(time_budget, k, max_rounds)
            else:
                trainer = AdaptiveKTrainer(
                    model, federation, FABTopK(),
                    make_policy("proposed", config, dimension), **common,
                )
                trainer.run_for_time(time_budget, max_rounds=max_rounds)

            result.histories[method] = trainer.history
            scenario = common["scenario"]
            result.stats[method] = scenario.stats.to_dict()
            loss_fig.add(method, *trainer.history.loss_curve())
            acc_fig.add(method, *trainer.history.accuracy_curve())
            k_fig.add_k_trace(method, trainer.history)
            rounds = scenario.stats.rounds
            delivery_fig.add(
                f"{method} arrived",
                [float(r.round_index) for r in rounds],
                [float(r.arrived) for r in rounds],
            )
            cumulative, dropped = 0, []
            for r in rounds:
                cumulative += len(r.dropped_ids)
                dropped.append(float(cumulative))
            delivery_fig.add(
                f"{method} dropped (cumulative)",
                [float(r.round_index) for r in rounds],
                dropped,
            )
            delivery_fig.notes.append(
                f"{method}: {json.dumps(result.stats[method], sort_keys=True)}"
            )
    loss_fig.notes.append(f"scenario: {json.dumps(result.scenario, sort_keys=True)}")
    return result


def run_dirichlet_sweep(
    config: ExperimentConfig,
    alphas: tuple[float, ...] | list[float],
    k: int | None = None,
    time_budget: float | None = None,
) -> FigureData:
    """Scenario comparison across Dirichlet(α) label-skew severities.

    One :func:`run_scenario` per α (same scenario realization, same time
    budget), with the federation re-partitioned by
    :func:`~repro.data.partition.partition_dirichlet` — small α means
    near-single-class clients, large α approaches IID.  The panel
    overlays every method's loss-vs-time curve per α and notes each α's
    deadline drop rates, so one figure answers how label skew interacts
    with churn + partial aggregation.
    """
    if not alphas:
        raise ValueError("need at least one Dirichlet α")
    if config.population:
        raise ValueError(
            "the Dirichlet sweep re-partitions an eager dataset; virtual "
            "populations (population > 0) carry their own per-client "
            "generator"
        )
    fig = FigureData(title="Scenario loss vs normalized time across Dirichlet α")
    for alpha in alphas:
        variant = config.with_overrides(
            partition="dirichlet", dirichlet_alpha=float(alpha)
        )
        result = run_scenario(variant, k=k, time_budget=time_budget)
        for series in result.loss_vs_time.series:
            fig.add(f"{series.label} α={alpha:g}", series.x, series.y)
        fig.notes.append(
            f"α={alpha:g}: drop rates "
            + json.dumps(
                {m: round(result.drop_rate(m), 4) for m in METHODS},
                sort_keys=True,
            )
        )
    return fig


class _TimeToTarget:
    """Time-to-target accessors of a panel's per-label ``histories``."""

    histories: dict[str, TrainingHistory]

    def time_to_loss(self, target: float) -> dict[str, float]:
        """Per-label simulated time to first recorded loss <= target.

        ``inf`` for labels that never reach it — the comparison both the
        adaptive-vs-best-fixed and the async-vs-sync acceptance rest on.
        """
        times = {}
        for label, history in self.histories.items():
            reached = history.time_to_loss(target)
            times[label] = float("inf") if reached is None else reached
        return times

    def final_losses(self) -> dict[str, float]:
        """Last evaluated loss per label (the reachable-target anchor)."""
        losses = {}
        for label, history in self.histories.items():
            evaluated = history.evaluated()
            losses[label] = evaluated[-1].loss if evaluated else float("inf")
        return losses

    def _shared_target_note(self) -> str:
        """The panel's headline: every label's time to the loss all reach."""
        reachable = max(self.final_losses().values())
        return (
            f"time to shared target loss {reachable:.6g}: "
            f"{json.dumps(self.time_to_loss(reachable), sort_keys=True)}"
        )


# ----------------------------------------------------------------------
# Deadline-policy comparison (fixed vs cycling vs adaptive)
# ----------------------------------------------------------------------
@dataclass
class DeadlineAdaptationResult(_TimeToTarget):
    """Per-policy loss curves + deadline traces of one comparison."""

    k: int
    scenario: dict
    loss_vs_time: FigureData
    deadline_traces: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)
    stats: dict[str, dict] = field(default_factory=dict)


def supports_deadline_comparison(scenario: ScenarioConfig) -> bool:
    """Whether :func:`deadline_variants` can derive a regime to compare.

    Availability-only scenarios (``deadline=None``) and degenerate
    all-equal schedules have no deadline interval — callers (the sweep
    collector, the CLI) skip the comparison panel instead of failing a
    run whose primary artifacts are fine.
    """
    return scenario.deadline_interval is not None


def deadline_variants(
    scenario: ScenarioConfig,
) -> dict[str, ScenarioConfig]:
    """Fixed-endpoint / cycling / adaptive variants of one regime.

    The deadline interval is the scenario's own
    (:attr:`~repro.scenarios.config.ScenarioConfig.deadline_interval`):
    an adaptive config's ``[deadline_min, deadline_max]``, a cycling
    schedule's (min, max), or ``[d/2, 2d]`` around a fixed deadline.
    The fixed variants sit at the interval's endpoints (the tight and
    the loose extreme the adaptive policy searches between); the
    cycling variant keeps the scenario's schedule (or three tight rounds
    plus one amnesty round when the scenario had none).
    """
    interval = scenario.deadline_interval
    if interval is None:
        raise ValueError(
            "deadline comparison needs a scenario with a deadline interval "
            "(a deadline, a schedule with distinct entries, or an adaptive "
            "interval)"
        )
    dmin, dmax = interval
    schedule = (
        scenario.deadline if isinstance(scenario.deadline, tuple)
        else (dmin, dmin, dmin, dmax)
    )
    base = scenario.with_overrides(
        deadline=None, deadline_policy="fixed",
        deadline_min=None, deadline_max=None,
    )
    return {
        f"fixed-{dmin:g}": base.with_overrides(deadline=dmin),
        f"fixed-{dmax:g}": base.with_overrides(deadline=dmax),
        "cycling": base.with_overrides(
            deadline=schedule, deadline_policy="cycling"
        ),
        "adaptive": base.with_overrides(
            deadline_policy="adaptive",
            deadline_min=dmin, deadline_max=dmax,
        ),
    }


def run_deadline_adaptation(
    config: ExperimentConfig,
    k: int | None = None,
    time_budget: float | None = None,
) -> DeadlineAdaptationResult:
    """Run the fixed-k trainer under every deadline variant, equal time.

    All variants share the availability realization, straggler profiles
    and cohort sampling (same scenario seed); only the deadline policy
    differs — so the panel isolates what learning the deadline buys.
    """
    config = resolve_scenario_config(config)
    dimension, k, time_budget, max_rounds = _scenario_budget(
        config, k, time_budget
    )
    assert config.scenario is not None
    variants = deadline_variants(ScenarioConfig.from_dict(config.scenario))

    loss_fig = FigureData(title="Deadline policies: loss vs normalized time")
    trace_fig = FigureData(title="Deadline policies: per-round deadline")
    result = DeadlineAdaptationResult(
        k=k, scenario=dict(config.scenario), loss_vs_time=loss_fig,
        deadline_traces=trace_fig,
    )

    with ExperimentRun(config, "scenario-deadline") as run:
        for label, variant in variants.items():
            model, federation, common = run.fresh(
                label, config.with_overrides(scenario=variant.to_dict())
            )
            trainer = FLTrainer(model, federation, FABTopK(), **common)
            trainer.run_for_time(time_budget, k, max_rounds)
            scenario = common["scenario"]
            result.histories[label] = trainer.history
            result.stats[label] = scenario.stats.to_dict()
            loss_fig.add(label, *trainer.history.loss_curve())
            rounds = scenario.stats.rounds
            trace_fig.add(
                label,
                [float(r.round_index) for r in rounds],
                [
                    float(r.deadline) if r.deadline is not None else 0.0
                    for r in rounds
                ],
            )
    loss_fig.notes.append(result._shared_target_note())
    loss_fig.notes.append(
        f"scenario: {json.dumps(result.scenario, sort_keys=True)}"
    )
    return result


# ----------------------------------------------------------------------
# Asynchronous staleness-weighted commits vs the synchronous barrier
# ----------------------------------------------------------------------
@dataclass
class AsyncComparisonResult(_TimeToTarget):
    """Per-variant loss curves + staleness traces of one comparison."""

    k: int
    commit_count: int
    scenario: dict
    loss_vs_time: FigureData
    staleness: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)


def resolve_commit_count(scenario: ScenarioConfig, num_clients: int) -> int:
    """The async commit batch size a scenario config implies.

    An explicit ``commit_count`` wins; 0 derives half the target cohort
    (the scenario's ``participants``, else the whole population) — the
    server commits once the fast half lands, so stragglers arrive stale
    instead of stalling the round.
    """
    if scenario.commit_count:
        return scenario.commit_count
    cohort = scenario.participants or num_clients
    return max(1, cohort // 2)


def run_async_comparison(
    config: ExperimentConfig,
    k: int | None = None,
    time_budget: float | None = None,
) -> AsyncComparisonResult:
    """Sync barrier vs async staleness-weighted commits, equal sim time.

    All variants share the availability realization, straggler profiles,
    adversaries and cohort sampling (same scenario seed) with the
    deadline cleared — the synchronous baseline pays the full barrier
    (every round waits for its slowest participant under the
    heterogeneous timing model), while the async variants commit after
    ``commit_count`` arrivals and differ only in their staleness discount
    (:data:`repro.fl.async_engine.STALENESS_DISCOUNT_KINDS`).  The panel
    answers the question the async engine exists for: does decoupling
    commits from stragglers buy convergence per simulated second, and
    does discounting staleness keep the late uploads from hurting?
    """
    config = resolve_scenario_config(config)
    dimension, k, time_budget, max_rounds = _scenario_budget(
        config, k, time_budget
    )
    assert config.scenario is not None
    scenario_config = ScenarioConfig.from_dict(config.scenario)
    commit_count = resolve_commit_count(scenario_config, config.num_clients)
    # The deadline family is the synchronous answer to stragglers; both
    # sides run without it so the comparison isolates the commit
    # discipline (the async engine ignores deadline hooks by design).
    base = scenario_config.with_overrides(
        deadline=None, deadline_policy="fixed",
        deadline_min=None, deadline_max=None,
    )

    loss_fig = FigureData(title="Async commits: loss vs simulated time")
    stale_fig = FigureData(title="Async commits: per-commit staleness")
    result = AsyncComparisonResult(
        k=k, commit_count=commit_count, scenario=dict(config.scenario),
        loss_vs_time=loss_fig, staleness=stale_fig,
    )

    variant = config.with_overrides(scenario=base.to_dict())
    with ExperimentRun(config, "scenario-async") as run:
        for label in ASYNC_VARIANTS:
            model, federation, common = run.fresh(label, variant)
            if label == "sync":
                trainer = FLTrainer(model, federation, FABTopK(), **common)
            else:
                trainer = AsyncFLTrainer(
                    model, federation, FABTopK(),
                    discount=label.removeprefix("async-"),
                    commit_count=commit_count, **common,
                )
            trainer.run_for_time(time_budget, k, max_rounds)
            result.histories[label] = trainer.history
            loss_fig.add(label, *trainer.history.loss_curve())
            if isinstance(trainer, AsyncFLTrainer):
                trace = trainer.staleness_history
                stale_fig.add(
                    label,
                    [float(i + 1) for i in range(len(trace))],
                    trace,
                )
                if trainer.discount.adaptive:
                    exponents = trainer.discount.exponent_history
                    stale_fig.add(
                        f"{label} exponent",
                        [float(i + 1) for i in range(len(exponents))],
                        [float(a) for a in exponents],
                    )
    loss_fig.notes.append(result._shared_target_note())
    loss_fig.notes.append(f"commit_count: {commit_count}")
    loss_fig.notes.append(
        f"scenario: {json.dumps(result.scenario, sort_keys=True)}"
    )
    return result
