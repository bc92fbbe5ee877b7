"""Tests for the timing model and synthetic cost oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.cost import (
    NoisySignOracle,
    QuadraticCost,
    TimePerLossCost,
)
from repro.simulation.timing import TimingModel


class TestTimingModel:
    def test_dense_round_total(self):
        tm = TimingModel(dimension=1000, comm_time=10.0)
        rt = tm.dense_round()
        assert rt.computation == 1.0
        assert rt.uplink == pytest.approx(5.0)
        assert rt.downlink == pytest.approx(5.0)
        assert rt.total == pytest.approx(11.0)

    def test_sparse_round_scales_with_k(self):
        tm = TimingModel(dimension=1000, comm_time=10.0)
        rt = tm.sparse_round(100, 100)
        # 100 pairs = 200 effective elements each way: 5 * 200/1000 = 1.0
        assert rt.uplink == pytest.approx(1.0)
        assert rt.downlink == pytest.approx(1.0)
        assert rt.total == pytest.approx(3.0)

    def test_sparse_never_exceeds_dense(self):
        tm = TimingModel(dimension=100, comm_time=8.0)
        sparse = tm.sparse_round(100, 100)  # pairs would cost 2x dense
        dense = tm.dense_round()
        assert sparse.uplink <= dense.uplink
        assert sparse.communication <= dense.communication

    def test_local_round(self):
        tm = TimingModel(dimension=10, comm_time=5.0)
        rt = tm.local_round()
        assert rt.total == 1.0
        assert rt.communication == 0.0

    def test_fedavg_period_matches_budget(self):
        tm = TimingModel(dimension=1000, comm_time=10.0)
        assert tm.fedavg_period(100) == 5  # D/(2k) = 1000/200
        assert tm.fedavg_period(1000) == 1  # clamped
        # Average comm of FedAvg = dense comm / period = 10/5 = 2 equals
        # sparse per-round comm with k=100 pairs.
        assert tm.dense_round().communication / 5 == pytest.approx(
            tm.sparse_round(100, 100).communication
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(dimension=0, comm_time=1.0)
        with pytest.raises(ValueError):
            TimingModel(dimension=10, comm_time=-1.0)
        tm = TimingModel(dimension=10, comm_time=1.0)
        with pytest.raises(ValueError):
            tm.sparse_round(-1, 0)
        with pytest.raises(ValueError):
            tm.fedavg_period(0)

    @given(
        st.integers(min_value=2, max_value=10_000),
        st.floats(min_value=0.01, max_value=1000.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_elements(self, dim, beta, k):
        tm = TimingModel(dimension=dim, comm_time=beta)
        k = min(k, dim)
        t1 = tm.sparse_round(k, k).total
        t2 = tm.sparse_round(min(k + 1, dim), min(k + 1, dim)).total
        assert t2 >= t1 - 1e-12


class TestQuadraticCost:
    def test_optimum_and_derivative(self):
        cost = QuadraticCost(k_star=40.0, kmax=100.0, seed=0)
        assert cost.optimum(1, 100) == 40.0
        assert cost.derivative(50.0, 1) > 0
        assert cost.derivative(30.0, 1) < 0
        assert cost.sign(40.0, 1) == 0

    def test_clipped_optimum(self):
        cost = QuadraticCost(k_star=40.0, kmax=100.0)
        assert cost.optimum(50, 100) == 50.0

    def test_scale_cached_per_round(self):
        cost = QuadraticCost(k_star=10.0, kmax=50.0, seed=1)
        assert cost.tau(20.0, 3) == cost.tau(20.0, 3)
        assert cost._scale(3) == cost._scale(3)

    def test_regret_of_static_optimum_is_zero(self):
        cost = QuadraticCost(k_star=25.0, kmax=50.0)
        assert cost.regret([25.0] * 10, 1, 50) == pytest.approx(0.0)

    def test_regret_positive_off_optimum(self):
        cost = QuadraticCost(k_star=25.0, kmax=50.0)
        assert cost.regret([40.0] * 10, 1, 50) > 0


class TestTimePerLossCost:
    def test_convexity_on_grid(self):
        cost = TimePerLossCost(dimension=1000, comm_time=10.0)
        ks = np.linspace(1, 1000, 200)
        taus = np.array([cost.tau(k, 1) for k in ks])
        # Discrete convexity: second differences nonnegative.
        second = taus[2:] - 2 * taus[1:-1] + taus[:-2]
        assert np.all(second > -1e-9)

    def test_interior_optimum_formula(self):
        cost = TimePerLossCost(dimension=1000, comm_time=10.0)
        k_star = cost.optimum(1, 1000)
        expected = np.sqrt(50.0 * 1000 / (2 * 10.0))  # s = D/20 = 50
        assert k_star == pytest.approx(expected)
        assert abs(cost.derivative(k_star, 1)) < 1e-9

    def test_optimum_decreases_with_comm_time(self):
        slow = TimePerLossCost(dimension=1000, comm_time=100.0)
        fast = TimePerLossCost(dimension=1000, comm_time=0.1)
        assert slow.optimum(1, 1000) < fast.optimum(1, 1000)

    def test_derivative_matches_finite_difference(self):
        cost = TimePerLossCost(dimension=500, comm_time=5.0)
        for k in [2.0, 30.0, 250.0, 480.0]:
            eps = 1e-5
            num = (cost.tau(k + eps, 1) - cost.tau(k - eps, 1)) / (2 * eps)
            assert cost.derivative(k, 1) == pytest.approx(num, rel=1e-4)

    def test_derivative_bound_holds(self):
        cost = TimePerLossCost(dimension=300, comm_time=7.0, round_scale_jitter=0.3,
                               seed=5)
        for k in np.linspace(1, 300, 50):
            for m in range(1, 20):
                assert abs(cost.derivative(float(k), m)) <= cost.derivative_bound + 1e-9

    def test_jitter_varies_rounds_but_not_optimum(self):
        cost = TimePerLossCost(dimension=200, comm_time=2.0,
                               round_scale_jitter=0.4, seed=2)
        taus = {cost.tau(50.0, m) for m in range(1, 10)}
        assert len(taus) > 1  # per-round scales differ
        # Scaling does not move the argmin (Assumption 2c).
        ks = np.linspace(1, 200, 400)
        argmins = {int(np.argmin([cost.tau(float(k), m) for k in ks]))
                   for m in range(1, 5)}
        assert len(argmins) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TimePerLossCost(dimension=1, comm_time=1.0)
        with pytest.raises(ValueError):
            TimePerLossCost(dimension=10, comm_time=0.0)
        cost = TimePerLossCost(dimension=10, comm_time=1.0)
        with pytest.raises(ValueError):
            cost.tau(0.0, 1)


class TestNoisySignOracle:
    def test_no_noise_matches_exact(self):
        base = QuadraticCost(k_star=10.0, kmax=50.0)
        noisy = NoisySignOracle(base, flip_probability=0.0)
        for k in [5.0, 15.0]:
            assert noisy.sign(k, 1) == base.sign(k, 1)

    def test_flip_rate(self):
        base = QuadraticCost(k_star=10.0, kmax=50.0)
        noisy = NoisySignOracle(base, flip_probability=0.3, seed=0)
        flips = sum(noisy.sign(20.0, m) != base.sign(20.0, m) for m in range(2000))
        assert 0.25 < flips / 2000 < 0.35

    def test_H_constant(self):
        base = QuadraticCost(k_star=10.0, kmax=50.0)
        assert NoisySignOracle(base, 0.0).H == 1.0
        assert NoisySignOracle(base, 0.25).H == pytest.approx(2.0)

    def test_validation(self):
        base = QuadraticCost(k_star=10.0, kmax=50.0)
        with pytest.raises(ValueError):
            NoisySignOracle(base, 0.5)
        with pytest.raises(ValueError):
            NoisySignOracle(base, -0.1)
