"""Online learning for adaptive sparsity k — Section IV of the paper.

- :mod:`repro.online.interval`: the continuous search interval
  K = [kmin, kmax], projection P_K, and stochastic rounding of continuous
  k (Definition 2).
- :mod:`repro.online.algorithm2`: Algorithm 2 — online update using only
  the sign of the derivative, step δ_m = B/√(2m); regret ≤ GB√(2M)
  (Theorem 1) and ≤ GHB√(2M) with a noisy sign (Theorem 2).
- :mod:`repro.online.algorithm3`: Algorithm 3 — Algorithm 2 restarted on
  shrinking search intervals (restart rule B' < (√2−1)·B and M'' ≥ M').
- :mod:`repro.online.estimator`: the practical derivative-sign estimator
  of Section IV-E built from three one-sample losses (eqs. 10–11).
- :mod:`repro.online.knob`: :class:`OnlineKnob` — walker + probe-point
  rule + estimator as ONE learning rule.  The learned k
  (:class:`SignPolicy`), deadline and staleness exponent are adapters
  over it; nothing else calls the estimator or builds a walker.
- :mod:`repro.online.baselines`: value-based derivative descent, EXP3, and
  the continuous one-point bandit — the Fig. 5 comparison methods.
- :mod:`repro.online.regret`: regret bookkeeping and theoretical bounds.
- :mod:`repro.online.adaptive_trainer`: :class:`LearnedK`, the k rule
  a policy learns — Algorithm 1 + Algorithm 3 + the estimator wired
  together as one persistent engine hook (Fig. 3's protocol), run by
  ``FLTrainer(...).run(n, policy)``; ``AdaptiveKTrainer`` is the same
  trainer built with the policy.
"""

from repro.online.adaptive_trainer import AdaptiveKTrainer, LearnedK
from repro.online.algorithm2 import SignOGD
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.baselines import ContinuousBandit, Exp3Policy, ValueBasedGD
from repro.online.estimator import estimate_derivative, estimate_sign, estimate_tau
from repro.online.interval import SearchInterval, stochastic_round
from repro.online.knob import OnlineKnob, Reading
from repro.online.policy import KPolicy, SignPolicy
from repro.online.regret import theorem1_bound, theorem2_bound

__all__ = [
    "AdaptiveKTrainer",
    "AdaptiveSignOGD",
    "ContinuousBandit",
    "Exp3Policy",
    "KPolicy",
    "LearnedK",
    "OnlineKnob",
    "Reading",
    "SearchInterval",
    "SignOGD",
    "SignPolicy",
    "ValueBasedGD",
    "estimate_derivative",
    "estimate_sign",
    "estimate_tau",
    "stochastic_round",
    "theorem1_bound",
    "theorem2_bound",
]
