"""Empirical validation of Assumption 2 — the premise behind Algorithms 2/3.

The paper assumes the time-per-unit-loss-decrease density t(k, l) is
(a) convex in k, (b) has bounded ∂t/∂k, and (c) is minimized at the same
k* for every loss level l.  It validates Assumption 1 experimentally
(Fig. 1) but takes Assumption 2 on faith ("from an empirical point of
view, our algorithms work even without Assumption 2").  This experiment
measures t(k, l) on the actual FL system:

for each k in a grid:
    train with k-element FAB-top-k GS;
    record the normalized time spent inside each loss band [l_i, l_{i+1}];
    t̂(k, band) = time spent in band / loss decrease across band.

and reports, per loss band, the measured curve over k — its approximate
convexity (fraction of nonnegative second differences) and its argmin.
Qualitative expectations: curves are U-shaped (or monotone when the
optimum is at a boundary) and the argmin moves little across bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRun, FigureData, build_model
from repro.fl.trainer import FLTrainer
from repro.sparsify.fab_topk import FABTopK


@dataclass
class Assumption2Result:
    """Measured t̂(k, band) surface plus summary statistics."""

    k_grid: list[int]
    loss_bands: list[tuple[float, float]]
    #: time per unit loss decrease, indexed [band][k-grid position];
    #: NaN when a run never traversed the band.
    t_hat: np.ndarray = field(default_factory=lambda: np.empty(0))
    figure: FigureData | None = None

    def band_argmin(self, band_index: int) -> int | None:
        """k (not index) minimizing the measured density in a band."""
        row = self.t_hat[band_index]
        if np.all(np.isnan(row)):
            return None
        return int(self.k_grid[int(np.nanargmin(row))])

    def convexity_score(self, band_index: int) -> float:
        """Fraction of nonnegative discrete second differences in a band.

        1.0 = perfectly convex sequence over the k grid (in the sampled
        points); tolerant of measurement noise.
        """
        row = self.t_hat[band_index]
        valid = row[~np.isnan(row)]
        if valid.size < 3:
            return 1.0
        second = valid[2:] - 2 * valid[1:-1] + valid[:-2]
        scale = max(float(np.nanmax(valid)), 1e-12)
        return float(np.mean(second >= -0.05 * scale))

    def argmin_spread(self) -> float:
        """Relative spread of per-band argmins (0 = Assumption 2c exact)."""
        argmins = [self.band_argmin(i) for i in range(len(self.loss_bands))]
        argmins = [a for a in argmins if a is not None]
        if len(argmins) < 2:
            return 0.0
        return float((max(argmins) - min(argmins)) / max(max(argmins), 1))


def run_assumption2(
    config: ExperimentConfig,
    k_grid: list[int] | None = None,
    num_bands: int = 3,
    max_rounds: int | None = None,
) -> Assumption2Result:
    """Measure t(k, l) over a k-grid on the configured federation."""
    if num_bands < 1:
        raise ValueError("need at least one loss band")
    dimension = build_model(config).dimension
    if k_grid is None:
        lo = max(2, int(0.002 * dimension))
        k_grid = sorted(set(
            int(round(k)) for k in np.geomspace(lo, dimension * 0.5, 6)
        ))
    max_rounds = max_rounds if max_rounds is not None else config.num_rounds

    with ExperimentRun(config, "assumption2") as run:
        # Establish the common loss range from a pilot run at the middle k.
        pilot = _run(run, "pilot", k_grid[len(k_grid) // 2], max_rounds)
        _, losses = pilot.loss_curve()
        top = losses[0]
        bottom = min(losses)
        edges = np.linspace(top, bottom, num_bands + 1)
        loss_bands = [(float(edges[i]), float(edges[i + 1]))
                      for i in range(num_bands)]

        t_hat = np.full((num_bands, len(k_grid)), np.nan)
        for j, k in enumerate(k_grid):
            history = _run(run, f"k={k}", k, max_rounds)
            for i, (hi, lo_band) in enumerate(loss_bands):
                t_hat[i, j] = _band_density(history, hi, lo_band)

    figure = FigureData(title="Assumption 2: measured t(k, l) per loss band")
    for i, (hi, lo_band) in enumerate(loss_bands):
        figure.add(
            f"loss {hi:.2f}->{lo_band:.2f}",
            [float(k) for k in k_grid],
            [float(v) for v in t_hat[i]],
        )
    return Assumption2Result(
        k_grid=list(k_grid), loss_bands=loss_bands, t_hat=t_hat, figure=figure,
    )


def _run(run: ExperimentRun, label: str, k: int, max_rounds: int):
    # eval_every=1: band accounting needs the loss at every round.
    model, federation, common = run.fresh(label, eval_every=1)
    trainer = FLTrainer(model, federation, FABTopK(), **common)
    return trainer.run(max_rounds, k=min(k, model.dimension))


def _band_density(history, band_hi: float, band_lo: float) -> float:
    """Normalized time per unit loss decrease inside [band_lo, band_hi].

    Uses the running-minimum loss so noisy upward blips don't create
    negative densities; NaN when the run never crossed the band.
    """
    time_in_band = 0.0
    loss_in_band = 0.0
    prev_loss = None
    prev_time = 0.0
    best = np.inf
    for record in history.evaluated():
        best = min(best, record.loss)
        if prev_loss is not None and best < prev_loss:
            # Overlap of [best, prev_loss] with [band_lo, band_hi].
            hi = min(prev_loss, band_hi)
            lo = max(best, band_lo)
            if hi > lo:
                fraction = (hi - lo) / (prev_loss - best)
                time_in_band += fraction * (record.cumulative_time - prev_time)
                loss_in_band += hi - lo
        prev_loss = best
        prev_time = record.cumulative_time
    if loss_in_band <= 1e-9:
        return float("nan")
    return time_in_band / loss_in_band
