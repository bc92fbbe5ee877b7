"""Tests for the Assumption-2 measurement experiment."""

import json

import numpy as np
import pytest

from repro.experiments.assumption2 import (
    Assumption2Result,
    _band_density,
    run_assumption2,
)
from repro.experiments.config import ExperimentConfig
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.obs import validate_event


def make_history(points):
    """points: list of (cumulative_time, loss)."""
    h = TrainingHistory()
    prev_t = 0.0
    for i, (t, loss) in enumerate(points, start=1):
        h.append(RoundRecord(
            round_index=i, k=1.0, round_time=t - prev_t,
            cumulative_time=t, loss=loss,
        ))
        prev_t = t
    return h


class TestBandDensity:
    def test_uniform_descent(self):
        # Loss falls 4 -> 0 over time 0 -> 4 linearly: density 1 everywhere.
        h = make_history([(1, 3.0), (2, 2.0), (3, 1.0), (4, 0.0)])
        # First record covers loss [4 (implicit start) ...]: band density
        # uses only recorded transitions, so query a fully-covered band.
        density = _band_density(h, band_hi=2.0, band_lo=1.0)
        assert density == pytest.approx(1.0)

    def test_band_never_crossed(self):
        h = make_history([(1, 5.0), (2, 4.5)])
        assert np.isnan(_band_density(h, band_hi=1.0, band_lo=0.5))

    def test_partial_overlap(self):
        # One step from loss 3 to 1 taking 4 time units; band [2.0, 1.5]
        # is a quarter of the interval -> gets a quarter of the time.
        h = make_history([(1, 3.0), (5, 1.0)])
        density = _band_density(h, band_hi=2.0, band_lo=1.5)
        assert density == pytest.approx(4.0 / 2.0)  # 1 time per 0.5 loss

    def test_noisy_blips_ignored(self):
        # Loss goes up then down; running-min accounting never produces
        # negative densities.
        h = make_history([(1, 3.0), (2, 3.5), (3, 2.0), (4, 1.0)])
        density = _band_density(h, band_hi=3.0, band_lo=1.0)
        assert density > 0

    def test_expensive_slow_phase(self):
        # Descending 3->2 takes 1 unit, 2->1 takes 9 units: the lower
        # band must report a much larger density.
        h = make_history([(1, 3.0), (2, 2.0), (11, 1.0)])
        fast = _band_density(h, band_hi=3.0, band_lo=2.0)
        slow = _band_density(h, band_hi=2.0, band_lo=1.0)
        assert slow > 3 * fast


class TestResultHelpers:
    def _result(self):
        return Assumption2Result(
            k_grid=[2, 8, 32],
            loss_bands=[(3.0, 2.0), (2.0, 1.0)],
            t_hat=np.array([
                [5.0, 2.0, 4.0],      # U-shape, argmin at k=8
                [6.0, 3.0, np.nan],   # argmin at k=8 with a missing point
            ]),
        )

    def test_band_argmin(self):
        r = self._result()
        assert r.band_argmin(0) == 8
        assert r.band_argmin(1) == 8

    def test_band_argmin_all_nan(self):
        r = Assumption2Result(
            k_grid=[2, 4], loss_bands=[(1.0, 0.5)],
            t_hat=np.array([[np.nan, np.nan]]),
        )
        assert r.band_argmin(0) is None

    def test_convexity_score(self):
        r = self._result()
        assert r.convexity_score(0) == 1.0  # 5,2,4: second diff positive
        # Band with <3 valid points is trivially convex.
        assert r.convexity_score(1) == 1.0

    def test_argmin_spread_zero_when_common(self):
        assert self._result().argmin_spread() == 0.0

    def test_argmin_spread_positive_when_moving(self):
        r = Assumption2Result(
            k_grid=[2, 8, 32],
            loss_bands=[(3.0, 2.0), (2.0, 1.0)],
            t_hat=np.array([[5.0, 2.0, 4.0], [9.0, 5.0, 1.0]]),
        )
        assert r.argmin_spread() > 0


class TestRunAssumption2:
    def test_smoke_run(self):
        config = ExperimentConfig.smoke().with_overrides(num_rounds=30)
        result = run_assumption2(config, k_grid=[4, 40, 200], num_bands=2,
                                 max_rounds=30)
        assert result.t_hat.shape == (2, 3)
        assert result.figure is not None
        assert len(result.figure.series) == 2
        # At least some bands/ks were actually measured.
        assert np.isfinite(result.t_hat).sum() >= 2

    def test_validation(self):
        config = ExperimentConfig.smoke()
        with pytest.raises(ValueError):
            run_assumption2(config, num_bands=0)

    def test_honours_config_telemetry(self, tmp_path):
        # Until PR 17 this driver never opened the config's trace file.
        path = tmp_path / "trace.jsonl"
        config = ExperimentConfig.smoke().with_overrides(
            num_rounds=2, telemetry=str(path)
        )
        run_assumption2(config, k_grid=[20, 40], num_bands=1)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            validate_event(event)
        rounds = [e for e in events if e["type"] == "round"]
        assert len(rounds) == 3 * 2  # pilot + two grid points, 2 rounds each
        assert {e["figure"] for e in rounds} == {"assumption2"}
        assert {e["method"] for e in rounds} == {"pilot", "k=20", "k=40"}
