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
    FigureData,
    build_backend,
    build_federation,
    build_model,
    build_scenario,
    build_telemetry,
)
from repro.fl.async_engine import AsyncFLTrainer
from repro.fl.metrics import TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.scenarios import ScenarioConfig, build_adversary
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
        return {s.label: s.y_at(t) for s in self.loss_vs_time.series}

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
            participants=DEFAULT_POPULATION_COHORT
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
            cohort = int(
                (config.scenario or {}).get("participants")
                or DEFAULT_POPULATION_COHORT
            )
        k = max(2, int(0.4 * dimension / cohort))
    if time_budget is None:
        base = TimingModel(dimension=dimension, comm_time=config.comm_time)
        time_budget = config.num_rounds * base.sparse_round(k, k).total
    return dimension, k, time_budget, max(1, 3 * config.num_rounds)


def _step_for_budget(
    trainer: FLTrainer, k: int, time_budget: float, max_rounds: int
) -> None:
    """Fixed-k rounds until the normalized clock exhausts the budget."""
    while (
        trainer.clock < time_budget
        and trainer.round_index < max_rounds
    ):
        trainer.step(k)


def _evaluated_curves(
    history: TrainingHistory,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """(time, loss, time, accuracy) series of a history's evaluated rounds."""
    xs, losses, acc_xs, accs = [], [], [], []
    for record in history:
        if record.loss == record.loss:  # evaluated rounds only
            xs.append(record.cumulative_time)
            losses.append(record.loss)
            if record.accuracy is not None:
                acc_xs.append(record.cumulative_time)
                accs.append(record.accuracy)
    return xs, losses, acc_xs, accs


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

    backend = build_backend(config)
    telemetry = build_telemetry(config)
    try:
        for method in METHODS:
            telemetry.annotate(figure="scenario", method=method)
            model = build_model(config)
            federation = build_federation(config)
            # Population-scale runs derive availability/profiles from
            # per-cid laws — enumerating client ids would be O(N).
            client_ids = (
                [] if config.population
                else [c.client_id for c in federation.clients]
            )
            timing, scenario = build_scenario(config, client_ids, dimension)
            common = dict(
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                eval_every=config.eval_every,
                eval_max_samples=config.eval_max_samples,
                backend=backend,
                scenario=scenario,
                telemetry=(telemetry if telemetry.enabled else None),
                seed=config.seed,
            )
            if method == "fixed-k":
                trainer = FLTrainer(
                    model, federation, FABTopK(), timing=timing, **common
                )
                _step_for_budget(trainer, k, time_budget, max_rounds)
            else:
                trainer = AdaptiveKTrainer(
                    model, federation, FABTopK(),
                    make_policy("proposed", config, dimension),
                    timing, **common,
                )
                trainer.run_for_time(time_budget, max_rounds=max_rounds)

            result.histories[method] = trainer.history
            assert scenario is not None
            result.stats[method] = scenario.stats.to_dict()
            xs, losses, acc_xs, accs = _evaluated_curves(trainer.history)
            loss_fig.add(method, xs, losses)
            acc_fig.add(method, acc_xs, accs)
            k_fig.add(
                method,
                [float(r.round_index) for r in trainer.history],
                trainer.history.ks(),
            )
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
    finally:
        # Nested so a backend teardown failure still flushes and closes
        # the telemetry sink (buffered events must survive mid-run raises).
        try:
            backend.close()
        finally:
            telemetry.close()
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


def _times_to_loss(
    histories: dict[str, TrainingHistory], target: float
) -> dict[str, float]:
    """Per-label simulated time to first recorded loss <= target.

    ``inf`` for labels that never reach it — the comparison both the
    adaptive-vs-best-fixed and the async-vs-sync acceptance rest on.
    """
    times: dict[str, float] = {}
    for label, history in histories.items():
        times[label] = float("inf")
        for record in history:
            if record.loss == record.loss and record.loss <= target:
                times[label] = record.cumulative_time
                break
    return times


def _last_losses(histories: dict[str, TrainingHistory]) -> dict[str, float]:
    """Last evaluated loss per label (the reachable-target anchor)."""
    losses: dict[str, float] = {}
    for label, history in histories.items():
        evaluated = [r.loss for r in history if r.loss == r.loss]
        losses[label] = evaluated[-1] if evaluated else float("inf")
    return losses


# ----------------------------------------------------------------------
# Deadline-policy comparison (fixed vs cycling vs adaptive)
# ----------------------------------------------------------------------
@dataclass
class DeadlineAdaptationResult:
    """Per-policy loss curves + deadline traces of one comparison."""

    k: int
    scenario: dict
    loss_vs_time: FigureData
    deadline_traces: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)
    stats: dict[str, dict] = field(default_factory=dict)

    def time_to_loss(self, target: float) -> dict[str, float]:
        """Per-policy simulated time to first recorded loss <= target."""
        return _times_to_loss(self.histories, target)

    def final_losses(self) -> dict[str, float]:
        """Last evaluated loss per policy (the reachable-target anchor)."""
        return _last_losses(self.histories)


def supports_deadline_comparison(scenario: ScenarioConfig) -> bool:
    """Whether :func:`deadline_variants` can derive a regime to compare.

    Availability-only scenarios (``deadline=None``) and degenerate
    all-equal schedules have no deadline interval — callers (the sweep
    collector, the CLI) skip the comparison panel instead of failing a
    run whose primary artifacts are fine.
    """
    if scenario.deadline_policy == "adaptive":
        return True
    if isinstance(scenario.deadline, tuple):
        return min(scenario.deadline) < max(scenario.deadline)
    return scenario.deadline is not None


def deadline_variants(
    scenario: ScenarioConfig,
) -> dict[str, ScenarioConfig]:
    """Fixed-endpoint / cycling / adaptive variants of one regime.

    The deadline interval comes from the scenario itself: an adaptive
    config's ``[deadline_min, deadline_max]``, a cycling schedule's
    (min, max), or ``[d/2, 2d]`` around a fixed deadline.  The fixed
    variants sit at the interval's endpoints (the tight and the loose
    extreme the adaptive policy searches between); the cycling variant
    keeps the scenario's schedule (or three tight rounds plus one
    amnesty round when the scenario had none).
    """
    schedule: tuple[float, ...] | None = None
    if scenario.deadline_policy == "adaptive":
        dmin, dmax = scenario.deadline_min, scenario.deadline_max
    elif isinstance(scenario.deadline, tuple):
        dmin, dmax = min(scenario.deadline), max(scenario.deadline)
        schedule = scenario.deadline
    elif scenario.deadline is not None:
        dmin, dmax = scenario.deadline / 2.0, scenario.deadline * 2.0
    else:
        raise ValueError(
            "deadline comparison needs a scenario with a deadline (or an "
            "adaptive deadline interval)"
        )
    assert dmin is not None and dmax is not None
    if not dmin < dmax:
        raise ValueError(
            f"degenerate deadline interval [{dmin}, {dmax}]: the scenario's "
            "deadlines are all equal, nothing to compare"
        )
    if schedule is None:
        schedule = (dmin, dmin, dmin, dmax)
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

    backend = build_backend(config)
    telemetry = build_telemetry(config)
    try:
        for label, variant in variants.items():
            telemetry.annotate(figure="scenario-deadline", method=label)
            model = build_model(config)
            federation = build_federation(config)
            client_ids = (
                [] if config.population
                else [c.client_id for c in federation.clients]
            )
            timing, scenario = build_scenario(
                config.with_overrides(scenario=variant.to_dict()),
                client_ids, dimension,
            )
            assert scenario is not None
            trainer = FLTrainer(
                model, federation, FABTopK(), timing=timing,
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                eval_every=config.eval_every,
                eval_max_samples=config.eval_max_samples,
                backend=backend, scenario=scenario,
                telemetry=(telemetry if telemetry.enabled else None),
                seed=config.seed,
            )
            _step_for_budget(trainer, k, time_budget, max_rounds)
            result.histories[label] = trainer.history
            result.stats[label] = scenario.stats.to_dict()
            xs, losses, _, _ = _evaluated_curves(trainer.history)
            loss_fig.add(label, xs, losses)
            rounds = scenario.stats.rounds
            trace_fig.add(
                label,
                [float(r.round_index) for r in rounds],
                [
                    float(r.deadline) if r.deadline is not None else 0.0
                    for r in rounds
                ],
            )
    finally:
        # Nested so a backend teardown failure still flushes and closes
        # the telemetry sink (buffered events must survive mid-run raises).
        try:
            backend.close()
        finally:
            telemetry.close()
    targets = result.final_losses()
    reachable = max(targets.values())
    loss_fig.notes.append(
        "time to shared target loss "
        f"{reachable:.6g}: {json.dumps(result.time_to_loss(reachable), sort_keys=True)}"
    )
    loss_fig.notes.append(
        f"scenario: {json.dumps(result.scenario, sort_keys=True)}"
    )
    return result


# ----------------------------------------------------------------------
# Asynchronous staleness-weighted commits vs the synchronous barrier
# ----------------------------------------------------------------------
@dataclass
class AsyncComparisonResult:
    """Per-variant loss curves + staleness traces of one comparison."""

    k: int
    commit_count: int
    scenario: dict
    loss_vs_time: FigureData
    staleness: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)

    def time_to_loss(self, target: float) -> dict[str, float]:
        """Per-variant simulated time to first recorded loss <= target."""
        return _times_to_loss(self.histories, target)

    def final_losses(self) -> dict[str, float]:
        """Last evaluated loss per variant (the reachable-target anchor)."""
        return _last_losses(self.histories)


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

    All variants share the availability realization, straggler profiles
    and cohort sampling (same scenario seed) with the deadline cleared —
    the synchronous baseline pays the full barrier (every round waits
    for its slowest participant under the heterogeneous timing model),
    while the async variants commit after ``commit_count`` arrivals and
    differ only in their staleness discount
    (:data:`repro.fl.async_engine.STALENESS_DISCOUNT_KINDS`).  The panel
    answers the question the async engine exists for: does decoupling
    commits from stragglers buy convergence per simulated second, and
    does discounting staleness keep the late uploads from hurting?
    """
    config = resolve_scenario_config(config)
    if config.population:
        raise ValueError(
            "the async comparison enumerates straggler profiles; virtual "
            "populations (population > 0) are not supported"
        )
    dimension, k, time_budget, max_rounds = _scenario_budget(
        config, k, time_budget
    )
    assert config.scenario is not None
    scenario_config = ScenarioConfig.from_dict(config.scenario)
    if build_adversary(scenario_config) is not None:
        raise ValueError(
            "the async comparison cannot run ScenarioConfig.adversary="
            f"{scenario_config.adversary!r}: async commits do not install "
            "the scenario hooks that corrupt uploads, so only the sync "
            "baseline would be attacked"
        )
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

    backend = build_backend(config)
    telemetry = build_telemetry(config)
    try:
        for label in ASYNC_VARIANTS:
            telemetry.annotate(figure="scenario-async", method=label)
            model = build_model(config)
            federation = build_federation(config)
            client_ids = [c.client_id for c in federation.clients]
            timing, scenario = build_scenario(
                config.with_overrides(scenario=base.to_dict()),
                client_ids, dimension,
            )
            assert scenario is not None
            common = dict(
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                eval_every=config.eval_every,
                eval_max_samples=config.eval_max_samples,
                backend=backend,
                scenario=scenario,
                telemetry=(telemetry if telemetry.enabled else None),
                seed=config.seed,
            )
            if label == "sync":
                trainer = FLTrainer(
                    model, federation, FABTopK(), timing=timing, **common
                )
            else:
                trainer = AsyncFLTrainer(
                    model, federation, FABTopK(), timing=timing,
                    discount=label.removeprefix("async-"),
                    commit_count=commit_count, **common,
                )
            _step_for_budget(trainer, k, time_budget, max_rounds)
            result.histories[label] = trainer.history
            xs, losses, _, _ = _evaluated_curves(trainer.history)
            loss_fig.add(label, xs, losses)
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
    finally:
        # Nested so a backend teardown failure still flushes and closes
        # the telemetry sink (buffered events must survive mid-run raises).
        try:
            backend.close()
        finally:
            telemetry.close()
    reachable = max(result.final_losses().values())
    loss_fig.notes.append(
        "time to shared target loss "
        f"{reachable:.6g}: "
        f"{json.dumps(result.time_to_loss(reachable), sort_keys=True)}"
    )
    loss_fig.notes.append(f"commit_count: {commit_count}")
    loss_fig.notes.append(
        f"scenario: {json.dumps(result.scenario, sort_keys=True)}"
    )
    return result
