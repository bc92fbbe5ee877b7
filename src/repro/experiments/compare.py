"""Quantitative comparison of training runs.

Turns a set of named :class:`~repro.fl.metrics.TrainingHistory` objects
into a comparison table: final loss, time-to-target, fitted convergence
rate, communication share of the total time budget, and fairness index.
This is how the benchmark reports and examples summarize "who wins and by
how much" instead of eyeballing curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.convergence import fit_power_law, time_to_target
from repro.fl.diagnostics import fairness_index
from repro.fl.metrics import TrainingHistory


@dataclass(frozen=True)
class RunSummary:
    """One run's headline numbers."""

    name: str
    final_loss: float
    total_time: float
    rounds: int
    time_to_target: float | None
    convergence_rate: float | None
    fairness: float | None

    def row(self) -> list[str]:
        return [
            self.name,
            f"{self.final_loss:.4f}",
            f"{self.total_time:.0f}",
            str(self.rounds),
            "-" if self.time_to_target is None else f"{self.time_to_target:.0f}",
            "-" if self.convergence_rate is None
            else f"{self.convergence_rate:.2f}",
            "-" if self.fairness is None else f"{self.fairness:.3f}",
        ]

    @staticmethod
    def headers() -> list[str]:
        return ["run", "final loss", "time", "rounds", "t(target)",
                "fit rate", "fairness"]


def summarize_run(
    name: str,
    history: TrainingHistory,
    target_loss: float | None = None,
) -> RunSummary:
    """Summarize one history; fit/target fields degrade gracefully."""
    times, losses = history.loss_curve()
    if not losses:
        raise ValueError(f"run {name!r} has no evaluated rounds")

    reach = None
    if target_loss is not None:
        reach = time_to_target(times, losses, target_loss)

    rate = None
    if len(losses) >= 5 and min(times) > 0:
        try:
            fit = fit_power_law(times, losses)
            if fit.r_squared > 0.3:
                rate = fit.rate
        except ValueError:
            rate = None

    contributions = history.contribution_counts()
    fairness = fairness_index(contributions) if contributions else None

    return RunSummary(
        name=name,
        final_loss=losses[-1],
        total_time=history.total_time,
        rounds=len(history),
        time_to_target=reach,
        convergence_rate=rate,
        fairness=fairness,
    )


def compare_histories(
    histories: dict[str, TrainingHistory],
    target_loss: float | None = None,
) -> list[RunSummary]:
    """Summaries for every run, ordered best final loss first.

    When ``target_loss`` is None a common default is chosen: the worst
    run's final loss (so every run's time-to-target is defined for at
    least one run).
    """
    if not histories:
        raise ValueError("no histories to compare")
    if target_loss is None:
        finals = []
        for history in histories.values():
            _, losses = history.loss_curve()
            if losses:
                finals.append(min(losses))
        target_loss = max(finals) if finals else None
    summaries = [
        summarize_run(name, history, target_loss)
        for name, history in histories.items()
    ]
    return sorted(summaries, key=lambda s: s.final_loss)


def speedup_at_target(
    histories: dict[str, TrainingHistory],
    baseline: str,
    target_loss: float,
) -> dict[str, float | None]:
    """Time speedup of each run vs ``baseline`` at reaching the target.

    > 1 means faster than the baseline; None when a run (or the baseline)
    never reaches the target.
    """
    if baseline not in histories:
        raise KeyError(baseline)
    summaries = {
        name: summarize_run(name, h, target_loss)
        for name, h in histories.items()
    }
    base = summaries[baseline].time_to_target
    out: dict[str, float | None] = {}
    for name, summary in summaries.items():
        if base is None or summary.time_to_target is None:
            out[name] = None
        else:
            out[name] = base / summary.time_to_target
    return out
