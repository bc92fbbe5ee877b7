"""Empirical verification of the paper's theorems on synthetic costs.

Theorem 1: Algorithm 2 with exact derivative signs has regret
R(M) ≤ GB√(2M) on any cost sequence satisfying Assumption 2.

Theorem 2: with a noisy sign satisfying conditions (6)–(7),
E[R(M)] ≤ GHB√(2M).

These tests drive the algorithms against the synthetic Assumption-2
oracles from repro.simulation.cost and check the bounds directly, plus the
sublinearity of regret growth.
"""

import math

import numpy as np
import pytest

from repro.online.algorithm2 import SignOGD
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.interval import SearchInterval
from repro.online.regret import theorem1_bound, theorem2_bound
from repro.simulation.cost import NoisySignOracle, QuadraticCost, TimePerLossCost


def two_instance_bound(
    G: float, H: float, B: float, M_prime: int, B_prime: float, M_dprime: int
) -> float:
    """Regret bound after a single Algorithm-3 restart (Section IV-D).

    GH√2·(B√M' + B'√M'') — the quantity compared against the no-restart
    bound GHB√(2(M'+M'')) to justify the restart rule.
    """
    return G * H * math.sqrt(2.0) * (
        B * math.sqrt(M_prime) + B_prime * math.sqrt(M_dprime)
    )


def restart_is_beneficial(B: float, B_prime: float) -> bool:
    """The paper's restart criterion: B' < (√2 − 1)·B.

    Derived by requiring the two-instance bound to beat the single-
    instance bound for all M'' ≥ M' (paper eq. 9 discussion).
    """
    return B_prime < (math.sqrt(2.0) - 1.0) * B


def empirical_regret(costs_played: list[float], costs_optimal: list[float]) -> float:
    """R(M) = Σ_m τ_m(k_m) − Σ_m τ_m(k*), from per-round cost samples."""
    if len(costs_played) != len(costs_optimal):
        raise ValueError("cost series must have equal length")
    return sum(costs_played) - sum(costs_optimal)


def run_sign_ogd(oracle, interval, M, k1=None, sign_source=None, algorithm=None):
    """Drive Algorithm 2/3 against a cost oracle; return decision list."""
    alg = algorithm if algorithm is not None else SignOGD(interval, k1=k1)
    ks = []
    for m in range(1, M + 1):
        k = alg.k
        ks.append(k)
        s = (sign_source or oracle).sign(k, m)
        alg.update(s)
    return ks


class TestTheorem1:
    @pytest.mark.parametrize("k_star", [20.0, 150.0, 400.0])
    def test_regret_below_bound_quadratic(self, k_star):
        K = SearchInterval(1.0, 501.0)
        oracle = QuadraticCost(k_star=k_star, kmax=K.kmax, seed=0)
        M = 400
        ks = run_sign_ogd(oracle, K, M, k1=250.0)
        regret = oracle.regret(ks, K.kmin, K.kmax)
        bound = theorem1_bound(oracle.derivative_bound, K.width, M)
        assert regret <= bound
        assert regret >= -1e-6  # optimum in hindsight can't be beaten

    def test_regret_below_bound_time_per_loss(self):
        K = SearchInterval(2.0, 1000.0)
        oracle = TimePerLossCost(dimension=1000, comm_time=10.0,
                                 round_scale_jitter=0.2, seed=1)
        M = 500
        ks = run_sign_ogd(oracle, K, M, k1=800.0)
        regret = oracle.regret(ks, K.kmin, K.kmax)
        bound = theorem1_bound(oracle.derivative_bound, K.width, M)
        assert 0 <= regret <= bound

    def test_decisions_approach_optimum(self):
        K = SearchInterval(1.0, 501.0)
        oracle = QuadraticCost(k_star=77.0, kmax=K.kmax, seed=2)
        ks = run_sign_ogd(oracle, K, 1000, k1=450.0)
        tail = np.array(ks[-100:])
        assert np.abs(tail - 77.0).mean() < 25.0

    def test_regret_growth_is_sublinear(self):
        # R(M)/M must decrease as M grows (time-averaged regret -> 0).
        K = SearchInterval(1.0, 201.0)
        oracle = QuadraticCost(k_star=60.0, kmax=K.kmax, seed=3)
        ks = run_sign_ogd(oracle, K, 1600, k1=180.0)
        r_400 = oracle.regret(ks[:400], K.kmin, K.kmax) / 400
        r_1600 = oracle.regret(ks, K.kmin, K.kmax) / 1600
        assert r_1600 < r_400

    def test_bound_formula(self):
        assert theorem1_bound(2.0, 3.0, 8) == pytest.approx(2 * 3 * 4.0)
        with pytest.raises(ValueError):
            theorem1_bound(-1.0, 1.0, 1)


class TestTheorem2:
    def test_noisy_sign_regret_below_bound(self):
        K = SearchInterval(1.0, 501.0)
        base = QuadraticCost(k_star=120.0, kmax=K.kmax, seed=4)
        M = 400
        regrets = []
        for trial in range(5):
            noisy = NoisySignOracle(base, flip_probability=0.2, seed=trial)
            ks = run_sign_ogd(base, K, M, k1=400.0, sign_source=noisy)
            regrets.append(base.regret(ks, K.kmin, K.kmax))
        mean_regret = float(np.mean(regrets))
        bound = theorem2_bound(
            base.derivative_bound, NoisySignOracle(base, 0.2).H, K.width, M
        )
        assert mean_regret <= bound

    def test_noise_degrades_but_still_converges(self):
        K = SearchInterval(1.0, 301.0)
        base = QuadraticCost(k_star=50.0, kmax=K.kmax, seed=5)
        noisy = NoisySignOracle(base, flip_probability=0.3, seed=0)
        ks = run_sign_ogd(base, K, 2000, k1=250.0, sign_source=noisy)
        assert abs(np.mean(ks[-200:]) - 50.0) < 40.0

    def test_bound_formula(self):
        assert theorem2_bound(1.0, 2.0, 3.0, 8) == pytest.approx(2 * 3 * 4.0)
        with pytest.raises(ValueError):
            theorem2_bound(1.0, 0.5, 1.0, 1)


class TestAlgorithm3Theory:
    def test_algorithm3_regret_no_worse_than_bound(self):
        K = SearchInterval(1.0, 1001.0)
        oracle = TimePerLossCost(dimension=1000, comm_time=100.0, seed=6)
        M = 600
        alg = AdaptiveSignOGD(K, k1=900.0, alpha=1.5, update_window=20)
        ks = run_sign_ogd(oracle, K, M, algorithm=alg)
        regret = oracle.regret(ks, K.kmin, K.kmax)
        bound = theorem1_bound(oracle.derivative_bound, K.width, M)
        assert regret <= bound

    def test_algorithm3_beats_algorithm2_on_small_optimum(self):
        # Large comm time -> small k*; Alg 3's shrinking interval should
        # fluctuate less and accumulate no more regret than Alg 2.
        K = SearchInterval(1.0, 1001.0)
        oracle = TimePerLossCost(dimension=1000, comm_time=100.0,
                                 round_scale_jitter=0.1, seed=7)
        M = 800
        ks2 = run_sign_ogd(oracle, K, M, k1=500.0)
        alg3 = AdaptiveSignOGD(K, k1=500.0, alpha=1.5, update_window=20)
        ks3 = run_sign_ogd(oracle, K, M, algorithm=alg3)
        r2 = oracle.regret(ks2, K.kmin, K.kmax)
        r3 = oracle.regret(ks3, K.kmin, K.kmax)
        assert r3 <= r2 * 1.05  # allow tiny slack for the restart rounds
        # Fluctuation comparison on the tail.
        assert np.std(ks3[-200:]) <= np.std(ks2[-200:]) + 1e-9

    def test_restart_criterion(self):
        assert restart_is_beneficial(100.0, 40.0)
        assert not restart_is_beneficial(100.0, 42.0)

    def test_two_instance_bound_consistency(self):
        # When B' < (√2−1)B and M''=M', the split bound beats single-run.
        G, H, B, Bp, M = 1.0, 1.0, 100.0, 40.0, 200
        split = two_instance_bound(G, H, B, M, Bp, M)
        single = theorem1_bound(G, B, 2 * M)
        assert split < single

    def test_empirical_regret_helper(self):
        assert empirical_regret([3.0, 4.0], [1.0, 2.0]) == 4.0
        with pytest.raises(ValueError):
            empirical_regret([1.0], [1.0, 2.0])


class TestSqrtMScaling:
    def test_regret_scales_like_sqrt_m(self):
        # Fit regret(M) ~ c*M^p on the quadratic oracle; p should be
        # well below 1 (sublinear) and near 0.5.
        K = SearchInterval(1.0, 201.0)
        oracle = QuadraticCost(k_star=60.0, kmax=K.kmax, seed=8)
        Ms = [100, 400, 1600]
        regrets = []
        for M in Ms:
            ks = run_sign_ogd(oracle, K, M, k1=180.0)
            regrets.append(max(oracle.regret(ks, K.kmin, K.kmax), 1e-9))
        p = np.polyfit(np.log(Ms), np.log(regrets), 1)[0]
        assert p < 0.8
