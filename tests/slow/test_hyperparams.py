"""Ablation: Algorithm 3's hyper-parameters α and M_u.

The shrinking search interval is the design choice distinguishing the
paper's Algorithm 3 from its Algorithm 2.  This check sweeps the
widening coefficient α and the update window M_u on an Assumption-2 cost
oracle (β = 100 regime, small optimum) and reports regret and tail
fluctuation — showing the paper's α = 1.5, M_u = 20 sits in the flat part
of the sweep (the method is not fragile to these knobs).
"""

import numpy as np

from repro.experiments.runner import text_table
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.interval import SearchInterval
from repro.simulation.cost import TimePerLossCost


def _drive(oracle, interval, alg, M):
    ks = []
    for m in range(1, M + 1):
        ks.append(alg.k)
        alg.update(oracle.sign(alg.k, m))
    regret = oracle.regret(ks, interval.kmin, interval.kmax)
    tail_std = float(np.std(ks[-M // 4:]))
    return regret, tail_std


def test_alpha_window_sweep(capsys):
    interval = SearchInterval(1.0, 1001.0)
    oracle_seed = 3
    M = 1500

    def run():
        rows = []
        results = {}
        for alpha in (1.1, 1.5, 2.5):
            for window in (5, 20, 80):
                oracle = TimePerLossCost(dimension=1000, comm_time=100.0,
                                         round_scale_jitter=0.15,
                                         seed=oracle_seed)
                alg = AdaptiveSignOGD(interval, k1=800.0, alpha=alpha,
                                      update_window=window)
                regret, tail_std = _drive(oracle, interval, alg, M)
                results[(alpha, window)] = (regret, tail_std,
                                            len(alg.restart_rounds))
                rows.append([f"{alpha:g}", str(window), f"{regret:.1f}",
                             f"{tail_std:.1f}", str(len(alg.restart_rounds))])
        return rows, results

    rows, results = run()
    with capsys.disabled():
        print("\n[Hyper-parameter sweep] Algorithm 3 on synthetic cost, "
              f"M={M}, k* ≈ 22")
        print(text_table(
            ["alpha", "M_u", "regret", "k tail std", "restarts"], rows,
        ))

    # The paper's setting must be competitive: within 3x of the best
    # regret in the sweep and with low tail fluctuation.
    regrets = {key: val[0] for key, val in results.items()}
    best = min(regrets.values())
    assert regrets[(1.5, 20)] <= 3.0 * best
    # Every setting restarts at least once in this regime (the interval
    # genuinely shrinks), demonstrating the mechanism is active.
    assert all(val[2] >= 1 for val in results.values())
