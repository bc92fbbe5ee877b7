"""Adversarial-robustness panel: attack × defense convergence grid.

The paper's protocol aggregates a weighted mean of sparse top-k uploads —
one Byzantine client scaling or sign-flipping its payload moves the
global model arbitrarily far.  This driver measures that failure and the
recovery delivered by the robust aggregators in :mod:`repro.fl.robust`:
for each (adversary fraction × aggregator) cell it runs the same
FAB-top-k trainer under the same seeded scenario realization, in both
the sparse regime (Fig. 4's ``k ≈ 0.4·D/cohort``) and dense uploads
(``k = D``), so the panel separates what sparsification changes about
the attack surface (adversary-exclusive coordinates defeat pure order
statistics; see the norm-clipping note in
:class:`repro.fl.robust.RobustAggregator`) from the defense itself.

Artifacts:

- ``final_loss`` — final evaluated loss vs adversary fraction, one
  series per (aggregator, regime).  The headline: the mean's curve
  blows up at ≥20% adversaries while trimmed-mean/median stay near the
  honest baseline.
- ``loss_vs_time`` — the full convergence curves behind those
  endpoints, labelled ``aggregator/regime/f=<fraction>``.

The attack kind/scale come from the config's scenario (default:
sign-flip at 10×).  Cells with fraction 0 run with ``adversary="none"``
— byte-identical to the plain trainer when the aggregator is ``"mean"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    build_model,
    fig4_sparsity,
)
from repro.fl.metrics import TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.scenarios import ScenarioConfig
from repro.sparsify.fab_topk import FABTopK

#: adversary fractions swept by default — honest baseline, the headline
#: regime (≥20% Byzantine clients), and a heavy-attack point.  The last
#: matters at tiny federations: designation is one Bernoulli draw per
#: client, so a 6-client smoke run can realize zero adversaries at 0.25.
DEFAULT_FRACTIONS = (0.0, 0.25, 0.5)

#: defenses compared by default; "mean" is the paper's (vulnerable)
#: aggregation and anchors the comparison.
DEFAULT_AGGREGATORS = ("mean", "trimmed_mean", "median")

#: upload regimes: the Fig. 4 sparsity and full-dimension uploads.
REGIMES = ("sparse", "dense")

#: attack mounted when the config's scenario does not name one.
DEFAULT_ATTACK = "sign_flip"


@dataclass
class AdversaryPanelResult:
    """Figures + histories + per-cell delivery/flag stats of one panel."""

    k: int
    attack: str
    scale: float
    scenario: dict
    final_loss: FigureData
    loss_vs_time: FigureData
    histories: dict[str, TrainingHistory] = field(default_factory=dict)
    stats: dict[str, dict] = field(default_factory=dict)

    @staticmethod
    def cell_label(aggregator: str, regime: str, fraction: float) -> str:
        """Key of one panel cell in ``histories``/``stats``."""
        return f"{aggregator}/{regime}/f={fraction:g}"

    def final_losses(self, aggregator: str, regime: str) -> list[float]:
        """The (fraction-ordered) final-loss series of one defense."""
        for series in self.final_loss.series:
            if series.label == f"{aggregator} ({regime})":
                return list(series.y)
        raise KeyError(f"no series for {aggregator!r} in {regime!r} regime")


def resolve_adversary_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fill in the panel's base scenario when the config carries none.

    Unlike :func:`repro.experiments.scenario.resolve_scenario_config`
    the default here is an *always-available* population with no
    deadline — the panel isolates the adversary axis, and churn would
    confound which defense recovered convergence.  A config that does
    carry a scenario keeps it (attack under churn is a valid panel).
    """
    from repro.experiments.scenario import DEFAULT_POPULATION_COHORT

    if config.scenario is not None:
        scenario = ScenarioConfig.from_dict(config.scenario)
    else:
        scenario = ScenarioConfig(availability="always", seed=config.seed)
    if config.population and not scenario.participants:
        # Virtual populations never run all-available rounds.
        scenario = scenario.with_overrides(
            participants=DEFAULT_POPULATION_COHORT
        )
    return config.with_overrides(scenario=scenario.to_dict())


def _panel_base(
    config: ExperimentConfig,
) -> tuple[ScenarioConfig, str, float, int, int]:
    """(base scenario, attack kind, scale, dimension, sparse k)."""
    base = ScenarioConfig.from_dict(config.scenario or {})
    attack = base.adversary if base.adversary != "none" else DEFAULT_ATTACK
    dimension = build_model(config).dimension
    cohort = base.participants or config.num_clients
    k = fig4_sparsity(dimension, cohort)
    return base, attack, base.adversary_scale, dimension, k


def run_adversary_panel(
    config: ExperimentConfig,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    aggregators: tuple[str, ...] = DEFAULT_AGGREGATORS,
    regimes: tuple[str, ...] = REGIMES,
) -> AdversaryPanelResult:
    """Run the attack × defense grid under the config's scenario.

    Every cell reruns the same model/federation/scenario seeds — the
    only things that vary are the designated adversary set (a pure
    function of the fraction) and the server's aggregation rule, so
    differences between curves are attributable to the cell.
    """
    config = resolve_adversary_config(config)
    base, attack, scale, dimension, sparse_k = _panel_base(config)
    # A scenario that names its own fraction/aggregator (e.g. from the
    # CLI flags) joins the swept grid rather than being ignored.
    if base.adversary_fraction and base.adversary_fraction not in fractions:
        fractions = tuple(sorted(set(fractions) | {base.adversary_fraction}))
    if base.aggregator not in aggregators:
        aggregators = tuple(aggregators) + (base.aggregator,)

    final_fig = FigureData(title="Final loss vs adversary fraction")
    curve_fig = FigureData(title="Adversarial convergence vs time")
    result = AdversaryPanelResult(
        k=sparse_k, attack=attack, scale=scale,
        scenario=base.to_dict(), final_loss=final_fig,
        loss_vs_time=curve_fig,
    )

    with ExperimentRun(config, "adversary") as run:
        for aggregator in aggregators:
            for regime in regimes:
                k = sparse_k if regime == "sparse" else dimension
                finals: list[float] = []
                for fraction in fractions:
                    label = result.cell_label(aggregator, regime, fraction)
                    cell = base.with_overrides(
                        adversary=attack if fraction > 0.0 else "none",
                        adversary_fraction=fraction,
                        aggregator=aggregator,
                    )
                    model, federation, common = run.fresh(
                        label, config.with_overrides(scenario=cell.to_dict())
                    )
                    # The cell's coordinates as separate keys too, so
                    # traces can be grouped along one axis of the grid.
                    run.telemetry.annotate(
                        aggregator=aggregator, regime=regime,
                        fraction=fraction,
                    )
                    trainer = FLTrainer(model, federation, FABTopK(), **common)
                    trainer.run(config.num_rounds, k)

                    result.histories[label] = trainer.history
                    result.stats[label] = common["scenario"].stats.to_dict()
                    xs, losses = trainer.history.loss_curve()
                    curve_fig.add(label, xs, losses)
                    finals.append(
                        losses[-1] if losses else float("nan")
                    )
                final_fig.add(
                    f"{aggregator} ({regime})",
                    [float(f) for f in fractions],
                    finals,
                )

    final_fig.notes.append(
        json.dumps(
            {
                "attack": attack,
                "scale": scale,
                "fractions": list(fractions),
                "aggregators": list(aggregators),
                "regimes": list(regimes),
                "sparse_k": sparse_k,
                "dimension": dimension,
            },
            sort_keys=True,
        )
    )
    return result
