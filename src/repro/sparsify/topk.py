"""Top-k index selection utilities.

Selection is O(D + k log k) per client: an ``np.argpartition`` prefilter
finds the k-th largest magnitude (the *threshold*) in O(D), every entry
strictly above the threshold is selected outright, and the deterministic
tie-break — (|value| descending, index ascending), i.e. lowest indices
first among equal magnitudes — runs over only the threshold-tied
k-boundary candidates.  The paper quotes O(D log D) per client for a full
sort, so we are strictly faster, and the selected index sets are
byte-identical to the full ``np.lexsort`` reference (the tests compare
against it directly, including adversarial duplicate-magnitude inputs).
"""

from __future__ import annotations

import numpy as np


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-|value| entries, deterministic under ties.

    Returns exactly ``min(k, len(values))`` unique indices, sorted
    ascending (callers treat selections as sets; sorting makes output
    canonical).  Equals ``np.lexsort((arange, -|values|))[:k]`` as a set.
    """
    return _largest(np.abs(values), k)


def _largest(magnitude: np.ndarray, k: int) -> np.ndarray:
    """:func:`top_k_indices` on precomputed magnitudes."""
    n = magnitude.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    part = np.argpartition(magnitude, n - k)
    threshold = magnitude[part[n - k]]
    # Everything strictly above the k-th largest magnitude is in; the
    # remaining slots are filled from the threshold ties, lowest index
    # first (the partition's own tie placement is arbitrary, so the tied
    # candidates are re-derived from the full vector).
    top = part[n - k :]
    strict = top[magnitude[top] > threshold]
    need = k - strict.size
    tied = np.flatnonzero(magnitude == threshold)[:need]
    return np.sort(np.concatenate([strict, tied]).astype(np.int64, copy=False))


def ranked_indices(values: np.ndarray, limit: int) -> np.ndarray:
    """The first ``limit`` of ``np.argsort(-|values|, kind="stable")`` —
    (|value| desc, index asc), NaN last — in O(n + limit log limit): a
    top-``limit`` selection with NaN mapped below every magnitude, then a
    stable sort of only that prefix (FAB-top-k's J_i^κ).
    """
    magnitude = np.fmax(np.abs(values), -np.inf)  # NaN -> -inf
    top = _largest(magnitude, limit)
    return top[np.argsort(-magnitude[top], kind="stable")]
