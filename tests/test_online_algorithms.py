"""Unit tests for interval, Algorithm 2, Algorithm 3, and the estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.algorithm2 import SignOGD
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.estimator import estimate_derivative, estimate_sign, estimate_tau
from repro.online.interval import SearchInterval, stochastic_round


class TestSearchInterval:
    def test_width_and_projection(self):
        K = SearchInterval(10.0, 100.0)
        assert K.width == 90.0
        assert K.project(5.0) == 10.0
        assert K.project(500.0) == 100.0
        assert K.project(50.0) == 50.0

    def test_contains(self):
        K = SearchInterval(2.0, 8.0)
        assert K.contains(2.0) and K.contains(8.0) and K.contains(5.0)
        assert not K.contains(1.9) and not K.contains(8.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchInterval(10.0, 5.0)
        with pytest.raises(ValueError):
            SearchInterval(0.0, 5.0)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_projection_idempotent(self, k):
        K = SearchInterval(3.0, 300.0)
        assert K.project(K.project(k)) == K.project(k)


class TestStochasticRound:
    def test_integer_unchanged(self):
        rng = np.random.default_rng(0)
        assert stochastic_round(7.0, rng) == 7

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = stochastic_round(4.3, rng)
            assert r in (4, 5)

    def test_unbiased(self):
        rng = np.random.default_rng(1)
        samples = [stochastic_round(4.3, rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(4.3, abs=0.02)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stochastic_round(-0.5, np.random.default_rng(0))


class TestSignOGD:
    def test_step_size_schedule(self):
        alg = SignOGD(SearchInterval(1.0, 101.0))
        B = 100.0
        assert alg.step_size(1) == pytest.approx(B / math.sqrt(2))
        assert alg.step_size(8) == pytest.approx(B / 4.0)

    def test_moves_against_sign(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        alg.update(+1)
        assert alg.k < 50.0
        k_after = alg.k
        alg.update(-1)
        assert alg.k > k_after

    def test_zero_sign_no_move(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        alg.update(0)
        assert alg.k == 50.0
        assert alg.m == 2

    def test_none_keeps_k_but_advances_round(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        alg.update(None)
        assert alg.k == 50.0
        assert alg.m == 2

    def test_projection_at_boundaries(self):
        alg = SignOGD(SearchInterval(10.0, 20.0), k1=10.0)
        alg.update(+1)  # would go below kmin
        assert alg.k == 10.0
        alg2 = SignOGD(SearchInterval(10.0, 20.0), k1=20.0)
        alg2.update(-1)
        assert alg2.k == 20.0

    def test_default_k1_midpoint(self):
        alg = SignOGD(SearchInterval(10.0, 30.0))
        assert alg.k == 20.0

    def test_k1_validation(self):
        with pytest.raises(ValueError):
            SignOGD(SearchInterval(10.0, 30.0), k1=5.0)

    def test_invalid_sign_rejected(self):
        alg = SignOGD(SearchInterval(1.0, 10.0))
        with pytest.raises(ValueError):
            alg.update(2)

    def test_history_tracks_decisions(self):
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=50.0)
        for s in [1, -1, 1, None]:
            alg.update(s)
        assert len(alg.k_history) == 5
        assert alg.k_history[0] == 50.0

    def test_converges_toward_fixed_optimum(self):
        # Exact signs pointing at k* = 30 drive k close to 30.
        alg = SignOGD(SearchInterval(1.0, 101.0), k1=90.0)
        for _ in range(500):
            s = 1 if alg.k > 30.0 else (-1 if alg.k < 30.0 else 0)
            alg.update(s)
        assert abs(alg.k - 30.0) < 5.0


class TestAdaptiveSignOGD:
    def test_first_step_matches_algorithm2(self):
        K = SearchInterval(1.0, 101.0)
        a2 = SignOGD(K, k1=60.0)
        a3 = AdaptiveSignOGD(K, k1=60.0, update_window=1000)
        a2.update(1)
        a3.update(1)
        assert a3.k == pytest.approx(a2.k)

    def test_restart_shrinks_interval(self):
        K = SearchInterval(1.0, 1001.0)
        alg = AdaptiveSignOGD(K, k1=500.0, alpha=1.1, update_window=5)
        # Feed alternating signs so k oscillates in a narrow band around
        # its current position: window min/max stay close -> restart fires.
        for m in range(200):
            s = 1 if alg.k > 100.0 else -1
            alg.update(s)
        assert alg.restart_rounds, "expected at least one interval restart"
        assert alg.interval.width < K.width

    def test_restart_requires_long_enough_instance(self):
        K = SearchInterval(1.0, 101.0)
        alg = AdaptiveSignOGD(K, k1=50.0, alpha=1.0, update_window=2)
        # After a first restart, a second restart needs M'' >= M'.
        for _ in range(50):
            alg.update(1 if alg.k > 20 else -1)
        if len(alg.restart_rounds) >= 2:
            gaps = np.diff([0] + alg.restart_rounds)
            assert all(gaps[i + 1] >= gaps[i] for i in range(len(gaps) - 1))

    def test_interval_never_exceeds_global(self):
        K = SearchInterval(5.0, 105.0)
        alg = AdaptiveSignOGD(K, alpha=2.0, update_window=3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            alg.update(int(rng.choice([-1, 1])))
        assert alg.interval.kmin >= K.kmin
        assert alg.interval.kmax <= K.kmax

    def test_none_skips_window_tracking(self):
        K = SearchInterval(1.0, 101.0)
        alg = AdaptiveSignOGD(K, k1=50.0, update_window=2)
        alg.update(None)
        alg.update(None)
        assert not alg.restart_rounds
        assert alg._window_count == 0

    def test_k_stays_in_interval(self):
        K = SearchInterval(2.0, 52.0)
        alg = AdaptiveSignOGD(K, update_window=4)
        rng = np.random.default_rng(3)
        for _ in range(300):
            alg.update(int(rng.choice([-1, 0, 1])))
            assert K.kmin <= alg.k <= K.kmax

    def test_validation(self):
        K = SearchInterval(1.0, 10.0)
        with pytest.raises(ValueError):
            AdaptiveSignOGD(K, alpha=0.5)
        with pytest.raises(ValueError):
            AdaptiveSignOGD(K, update_window=0)
        with pytest.raises(ValueError):
            AdaptiveSignOGD(K, k1=100.0)

    def test_step_size_resets_after_restart(self):
        K = SearchInterval(1.0, 1001.0)
        alg = AdaptiveSignOGD(K, k1=500.0, alpha=1.05, update_window=4)
        for _ in range(200):
            alg.update(1 if alg.k > 50.0 else -1)
            if alg.restart_rounds:
                break
        if alg.restart_rounds:
            # Right after a restart, δ uses the new small B at instance
            # round 1, so it should be below the pre-restart step.
            assert alg.step_size() <= alg.interval.width / math.sqrt(2.0) + 1e-9


class TestEstimator:
    def test_tau_scaling(self):
        # Actual round decreased loss by 0.2, probe by 0.1: the probe
        # round covers half the loss interval, so reaching the same loss
        # takes twice the probe round time.
        tau = estimate_tau(1.0, 0.8, 0.9, probe_round_time=3.0)
        assert tau == pytest.approx(6.0)

    def test_tau_unavailable_when_no_decrease(self):
        assert estimate_tau(1.0, 1.1, 0.9, 3.0) is None
        assert estimate_tau(1.0, 0.9, 1.2, 3.0) is None
        assert estimate_tau(1.0, 1.0, 1.0, 3.0) is None
        assert estimate_tau(1.0, 1.0, 0.9, 3.0) is None

    def test_derivative_sign_positive_when_k_wasteful(self):
        # Probe (smaller k') reaches the same loss faster than the actual
        # round: increasing k is wasteful -> derivative positive.
        s = estimate_sign(
            loss_prev=1.0, loss_now=0.8, loss_probe=0.8,
            round_time=10.0, probe_round_time=5.0, k=100.0, k_probe=80.0,
        )
        assert s == 1

    def test_derivative_sign_negative_when_k_helpful(self):
        # Probe made almost no progress: mapping its round to the actual
        # loss interval costs much more time -> larger k is better.
        s = estimate_sign(
            loss_prev=1.0, loss_now=0.8, loss_probe=0.99,
            round_time=10.0, probe_round_time=9.0, k=100.0, k_probe=80.0,
        )
        assert s == -1

    def test_sign_zero_on_exact_balance(self):
        s = estimate_sign(
            loss_prev=1.0, loss_now=0.8, loss_probe=0.9,
            round_time=10.0, probe_round_time=5.0, k=100.0, k_probe=80.0,
        )
        assert s == 0

    def test_unavailable_propagates(self):
        assert estimate_sign(1.0, 1.2, 0.9, 10.0, 5.0, 100.0, 80.0) is None
        assert estimate_derivative(1.0, 1.2, 0.9, 10.0, 5.0, 100.0, 80.0) is None

    def test_equal_k_rejected(self):
        with pytest.raises(ValueError):
            estimate_sign(1.0, 0.8, 0.9, 10.0, 5.0, 100.0, 100.0)

    def test_derivative_value(self):
        d = estimate_derivative(
            loss_prev=1.0, loss_now=0.8, loss_probe=0.9,
            round_time=12.0, probe_round_time=5.0, k=100.0, k_probe=80.0,
        )
        # tau_probe = 5 * 0.2/0.1 = 10; (12 - 10)/(100 - 80) = 0.1
        assert d == pytest.approx(0.1)
