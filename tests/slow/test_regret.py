"""Verifies Theorems 1 and 2 empirically.

Drives Algorithm 2 (exact and noisy signs) and Algorithm 3 against
synthetic Assumption-2 cost oracles and reports measured regret against
the theoretical bounds GB√(2M) and GHB√(2M), plus the √M growth exponent.
"""

import numpy as np

from repro.experiments.runner import text_table
from repro.online.algorithm2 import SignOGD
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.interval import SearchInterval
from repro.online.regret import theorem1_bound, theorem2_bound
from repro.simulation.cost import NoisySignOracle, QuadraticCost, TimePerLossCost


def _drive(oracle, interval, M, algorithm, sign_source=None):
    ks = []
    for m in range(1, M + 1):
        ks.append(algorithm.k)
        algorithm.update((sign_source or oracle).sign(algorithm.k, m))
    return oracle.regret(ks, interval.kmin, interval.kmax)


def test_regret_vs_theoretical_bounds(capsys):
    def run():
        interval = SearchInterval(1.0, 1001.0)
        rows = []
        M = 2000

        oracle = TimePerLossCost(dimension=1000, comm_time=10.0,
                                 round_scale_jitter=0.2, seed=0)
        regret = _drive(oracle, interval, M, SignOGD(interval, k1=800.0))
        bound = theorem1_bound(oracle.derivative_bound, interval.width, M)
        rows.append(["Alg2 exact sign (Thm 1)", f"{regret:.1f}", f"{bound:.1f}",
                     f"{regret / bound:.3f}"])

        noisy_regrets = []
        H = NoisySignOracle(oracle, 0.2).H
        for seed in range(5):
            noisy = NoisySignOracle(oracle, flip_probability=0.2, seed=seed)
            noisy_regrets.append(
                _drive(oracle, interval, M, SignOGD(interval, k1=800.0),
                       sign_source=noisy)
            )
        regret2 = float(np.mean(noisy_regrets))
        bound2 = theorem2_bound(oracle.derivative_bound, H, interval.width, M)
        rows.append(["Alg2 noisy sign (Thm 2)", f"{regret2:.1f}",
                     f"{bound2:.1f}", f"{regret2 / bound2:.3f}"])

        alg3 = AdaptiveSignOGD(interval, k1=800.0, alpha=1.5, update_window=20)
        regret3 = _drive(oracle, interval, M, alg3)
        rows.append(["Alg3 exact sign", f"{regret3:.1f}", f"{bound:.1f}",
                     f"{regret3 / bound:.3f}"])

        # Growth exponent: fit regret ~ M^p on the quadratic oracle.
        quad = QuadraticCost(k_star=200.0, kmax=1001.0, seed=1)
        Ms = [250, 1000, 4000]
        regs = []
        for M_i in Ms:
            regs.append(max(
                _drive(quad, interval, M_i, SignOGD(interval, k1=800.0)), 1e-9
            ))
        p = float(np.polyfit(np.log(Ms), np.log(regs), 1)[0])
        return rows, p, (regret, bound, regret2, bound2, regret3)

    rows, p, checks = run()
    with capsys.disabled():
        print("\n[Regret] measured vs theoretical bounds (M=2000)")
        print(text_table(["setting", "regret", "bound", "ratio"], rows))
        print(f"regret growth exponent p (regret ~ M^p): {p:.2f}")

    regret, bound, regret2, bound2, regret3 = checks
    assert 0 <= regret <= bound
    assert regret2 <= bound2
    assert regret3 <= bound
    assert p < 0.8  # sublinear, consistent with O(sqrt(M))
