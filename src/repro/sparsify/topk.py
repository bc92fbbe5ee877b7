"""Top-k index selection utilities.

Every top-k in the tree — client top-k, FAB's ranking and fill, the
learned-k probe — is :func:`_largest` on a magnitude vector, and its
result equals the full ``np.lexsort`` reference (|value| descending,
index ascending, NaN after every magnitude) byte for byte.

The exact selection is O(n + k log k): an ``np.argpartition`` finds the
k-th largest magnitude (the *threshold*), every entry strictly above it
is selected outright, and the lowest-index threshold ties fill the rest.
The paper quotes O(D log D) per client for a full sort.

On long vectors with a small k a *sampled threshold* first cuts the
vector down: τ is a low-ranked order statistic of every 64th magnitude,
and the exact selection runs only on the candidates ``|v| ≥ τ``, which
are few.  Whenever at least k candidates survive, every top-k entry and
every entry tied with the k-th is among them (they are all ≥ τ), and the
candidates are in index order, so the result is the same as the full
vector's.  With fewer than k candidates the full vector is selected
instead.  NaN never passes ``≥ τ``, so only the full-vector path meets
NaN, and it ranks NaN below every magnitude.
"""

from __future__ import annotations

import numpy as np

#: The sampled threshold runs only when n >= _SAMPLE_MIN_N and
#: k <= n / _SAMPLE_MIN_N_PER_K.  Kernel time per call, exact path vs
#: sampled path (fallbacks included): median of 21 interleaved passes
#: over 20 random-walk × t(3) magnitude vectors, byte-equal results
#: (NumPy 2.4, 2-vCPU Xeon):
#:
#:         n        k    k/n    exact ms  sampled ms  speed-up
#:     8,192       81  1/101       0.047       0.042     1.09×
#:    16,384      163  1/101       0.081       0.065     1.25×
#:    16,384      512  1/32        0.084       0.090     0.93×
#:    20,478      170  1/120       0.101       0.070     1.45×
#:    20,478      640  1/32        0.111       0.111     0.99×
#:    32,768    1,024  1/32        0.150       0.151     1.01×
#:    92,662      772  1/120       0.413       0.205     2.05×
#:    92,662    2,895  1/32        0.455       0.392     1.16×
#:    92,662    5,791  1/16        0.413       0.326     1.24×
#:   430,000    1,100  1/391       2.196       0.731     2.95×
#:   430,000    4,300  1/100       2.144       1.010     2.09×
#:   430,000   13,437  1/32        2.047       1.617     1.22×
#:   430,000   43,000  1/10        2.675       2.171     1.26×
#:   430,000   53,750  1/8         3.109       2.782     1.11×
#:
#: On real client residuals (300 per model, same timing) a D = 92,662
#: MLP at k = 772 read 0.46 → 0.25 ms (1.86×, none falling back), but
#: models of D ≈ 20k at k = D/60 to D/120 read 0.98–1.03×, with 6–20% of
#: the calls falling back: below n = 2¹⁵ the sample is too small to
#: place τ well.  Past k = n/32 the gain is small and unstable
#: (best-of-15 passes read 0.87–0.96× at k/n = 1/16 to 1/20 for
#: n = 16,384 to 262,144), so that band keeps the exact path, as does
#: k = n/8.
_SAMPLE_MIN_N = 1 << 15
_SAMPLE_MIN_N_PER_K = 32
_SAMPLE_STRIDE = 64


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-|value| entries, deterministic under ties.

    Returns exactly ``min(k, len(values))`` unique indices, sorted
    ascending (callers treat selections as sets; sorting makes output
    canonical).  Equals ``np.lexsort((arange, -|values|))[:k]`` as a set:
    lowest indices first among equal magnitudes, NaN after every number.
    """
    return _largest(np.abs(values), k)


def _largest(magnitude: np.ndarray, k: int) -> np.ndarray:
    """:func:`top_k_indices` on precomputed magnitudes."""
    n = magnitude.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if n >= _SAMPLE_MIN_N and k * _SAMPLE_MIN_N_PER_K <= n:
        candidates = _candidates(magnitude, k)
        if candidates.size >= k:
            return candidates[_exact(magnitude[candidates], k)]
    return _exact(magnitude, k)


def _candidates(magnitude: np.ndarray, k: int) -> np.ndarray:
    """Indices, ascending, of every magnitude ≥ τ, where τ is the r-th
    largest of every ``_SAMPLE_STRIDE``-th magnitude and r is twice the
    sample's expected share of the top k, plus 2."""
    sample = magnitude[::_SAMPLE_STRIDE]
    s = sample.shape[0]
    rank = 2 * k * s // magnitude.shape[0] + 2
    tau = np.partition(sample, s - rank)[s - rank]
    return np.flatnonzero(magnitude >= tau)


def _exact(magnitude: np.ndarray, k: int) -> np.ndarray:
    """The exact selection, for 0 < k <= n."""
    n = magnitude.shape[0]
    part = np.argpartition(magnitude, n - k)
    top = part[n - k :]
    top_magnitude = magnitude[top]
    if np.isnan(top_magnitude).any():
        # The partition ranks NaN above every number (so one is in the
        # top whenever the vector holds one); rank it below instead.
        return _exact(np.fmax(magnitude, -np.inf), k)
    threshold = top_magnitude[0]
    # Everything strictly above the k-th largest magnitude is in; the
    # remaining slots are filled from the threshold ties, lowest index
    # first (the partition's own tie placement is arbitrary, so the tied
    # candidates are re-derived from the full vector).
    strict = top[top_magnitude > threshold]
    need = k - strict.size
    tied = np.flatnonzero(magnitude == threshold)[:need]
    return np.sort(np.concatenate([strict, tied]).astype(np.int64, copy=False))


def ranked_indices(values: np.ndarray, limit: int) -> np.ndarray:
    """The first ``limit`` of ``np.argsort(-|values|, kind="stable")`` —
    (|value| desc, index asc), NaN last — in O(n + limit log limit): a
    top-``limit`` selection, then a stable sort of only that prefix
    (FAB-top-k's J_i^κ).
    """
    magnitude = np.abs(values)
    top = _largest(magnitude, limit)
    return top[np.argsort(-magnitude[top], kind="stable")]
