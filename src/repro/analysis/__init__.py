"""Analysis tooling for sparsified training.

The paper defers a convergence proof of FAB-top-k to future work, noting
that "a similar analytical technique as in [29] can be used".  The proofs
in that line of work rest on the *contraction property* of top-k
compression — ``||x − top_k(x)||² ≤ (1 − k/D)·||x||²`` — and on the
resulting geometric decay of the residual state.  This package provides
the measurement side of that analysis:

- :mod:`repro.analysis.contraction`: exact and empirical contraction
  coefficients of the implemented sparsifiers, verifying the (1 − k/D)
  bound and measuring how much better real gradients do (they are
  heavy-tailed, so top-k contracts far more strongly), plus the share of
  gradient mass the top fraction of coordinates carries.

Loss-curve comparisons (time to a target loss, per-client contribution
totals) are :class:`~repro.fl.metrics.TrainingHistory` accessors.
"""

from repro.analysis.contraction import (
    contraction_coefficient,
    empirical_contraction,
    gradient_concentration,
    topk_contraction_bound,
)

__all__ = [
    "contraction_coefficient",
    "empirical_contraction",
    "gradient_concentration",
    "topk_contraction_bound",
]
