"""Contraction properties of sparsification operators.

A compression operator C is a δ-contraction when

    ||x − C(x)||² ≤ (1 − δ)·||x||²       for all x.

Top-k satisfies this with δ = k/D in the worst case (uniform magnitudes);
heavy-tailed gradients contract much faster, which is why top-k GS works
so well in practice.  The convergence analyses the paper points at ([29]
and the error-feedback literature) turn exactly this constant into a
convergence rate, so measuring it on real training gradients quantifies
how far the worst-case theory is from observed behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.topk import top_k_indices


def topk_contraction_bound(k: int, dimension: int) -> float:
    """Worst-case energy ratio ``(1 − k/D)`` of top-k compression."""
    if not 1 <= k <= dimension:
        raise ValueError(f"k must be in [1, {dimension}]")
    return 1.0 - k / dimension


def contraction_coefficient(x: np.ndarray, k: int) -> float:
    """Measured ratio ``||x − top_k(x)||² / ||x||²`` for one vector.

    Always ≤ the worst-case bound; 0 when x is exactly k-sparse.
    Returns 0 for the zero vector (top-k reproduces it exactly).
    """
    x = np.asarray(x, dtype=float)
    total = float(x @ x)
    if total == 0.0:
        return 0.0
    kept = top_k_indices(x, k)
    kept_energy = float(x[kept] @ x[kept])
    return max(0.0, 1.0 - kept_energy / total)


def empirical_contraction(
    vectors: list[np.ndarray] | np.ndarray, k: int
) -> dict[str, float]:
    """Contraction statistics over a set of vectors (e.g. round gradients).

    Returns mean/max measured ratios plus the worst-case bound, so
    callers can report "measured vs bound" in one line.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        vectors = [vectors[i] for i in range(vectors.shape[0])]
    if not len(vectors):
        raise ValueError("need at least one vector")
    dimension = vectors[0].shape[0]
    ratios = [contraction_coefficient(v, k) for v in vectors]
    return {
        "mean": float(np.mean(ratios)),
        "max": float(np.max(ratios)),
        "bound": topk_contraction_bound(k, dimension),
        "k": float(k),
        "dimension": float(dimension),
    }


def gradient_concentration(gradient: np.ndarray, fractions=(0.001, 0.01, 0.1)
                           ) -> dict[float, float]:
    """Share of total |gradient| mass captured by the top-f fraction.

    Values near 1 at small f mean the gradient is heavy-tailed and top-k
    sparsification is nearly lossless; values near f mean the gradient is
    flat and sparsification costs information proportionally.
    """
    magnitude = np.sort(np.abs(gradient))[::-1]
    total = magnitude.sum()
    out: dict[float, float] = {}
    for f in fractions:
        if not 0 < f <= 1:
            raise ValueError("fractions must be in (0, 1]")
        count = max(1, int(round(f * magnitude.size)))
        out[f] = float(magnitude[:count].sum() / total) if total > 0 else 0.0
    return out
