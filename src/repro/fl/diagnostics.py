"""Training diagnostics: residual state, gradient concentration, fairness.

These inspectors answer the questions an adopter of FAB-top-k asks while
tuning: how much gradient mass is parked in the residuals (staleness), how
concentrated the gradient actually is (whether top-k selection can work),
and how even the client contributions are (whether fairness is binding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.client import Client
from repro.fl.metrics import TrainingHistory


@dataclass(frozen=True)
class ResidualStats:
    """Snapshot of the federation's residual state."""

    total_l1: float
    max_abs: float
    per_client_l1: dict[int, float]
    nonzero_fraction: float

    @property
    def mean_client_l1(self) -> float:
        if not self.per_client_l1:
            return 0.0
        return float(np.mean(list(self.per_client_l1.values())))


def residual_stats(clients) -> ResidualStats:
    """Aggregate residual statistics across clients.

    ``clients`` is a list of :class:`~repro.fl.client.Client` objects or
    anything exposing one via a ``.clients`` attribute — a trainer or
    round engine works directly.  For population-scale runs the engine's
    ever-touched list is the right source: it is O(touched), never an
    O(N) enumeration of the virtual federation.  The inspection is
    read-only — hibernating clients are measured through their sparse
    spill store without being woken, and an empty client set (nothing
    ever touched) yields zeroed stats.
    """
    client_list: list[Client] = list(getattr(clients, "clients", clients))
    if not client_list:
        return ResidualStats(
            total_l1=0.0, max_abs=0.0, per_client_l1={}, nonzero_fraction=0.0
        )
    per_client: dict[int, float] = {}
    max_abs = 0.0
    densities = []
    for client in client_list:
        magnitudes = np.abs(client.residual_nonzeros())
        per_client[client.client_id] = float(magnitudes.sum())
        if magnitudes.size:
            max_abs = max(max_abs, float(magnitudes.max()))
        densities.append(magnitudes.size / client.dimension)
    return ResidualStats(
        total_l1=float(sum(per_client.values())),
        max_abs=max_abs,
        per_client_l1=per_client,
        nonzero_fraction=float(np.mean(densities)),
    )


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


def layer_breakdown(
    vector: np.ndarray, layer_slices: list[slice]
) -> list[dict[str, float]]:
    """Per-layer share of a flat vector's magnitude.

    Used with :meth:`repro.nn.flat.FlatModel.parameter_slices` to see
    which layers dominate the gradient/residual — the information the
    layer-wise sparsifiers act on.  Each entry reports the layer's size,
    its share of total L1 mass, and its internal density.
    """
    if not layer_slices:
        raise ValueError("no layer slices")
    if layer_slices[-1].stop != vector.shape[0]:
        raise ValueError("slices do not cover the vector")
    total = float(np.abs(vector).sum())
    out = []
    for sl in layer_slices:
        part = vector[sl]
        mass = float(np.abs(part).sum())
        out.append({
            "start": float(sl.start),
            "size": float(part.size),
            "l1_share": mass / total if total > 0 else 0.0,
            "density": float(np.count_nonzero(part) / part.size),
        })
    return out


def fairness_index(contributions: dict[int, int]) -> float:
    """Jain's fairness index of per-client contribution totals.

    1.0 = perfectly even; 1/N = one client supplies everything.
    """
    if not contributions:
        raise ValueError("no contributions")
    values = np.array(list(contributions.values()), dtype=float)
    denominator = values.size * (values**2).sum()
    if denominator == 0:
        return 1.0
    return float(values.sum() ** 2 / denominator)


def history_fairness(history: TrainingHistory) -> float:
    """Jain index of the cumulative contributions in a training history."""
    return fairness_index(history.contribution_counts())
