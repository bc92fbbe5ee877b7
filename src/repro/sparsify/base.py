"""Shared types and the sparsifier interface.

Message flow (one training round, paper Algorithm 1)::

    client i:  a_i += local_gradient
               upload = ClientUpload(indices=J_i, values=a_i[J_i])
    server:    selection = sparsifier.select(uploads, k)
               b_j = (1/C) Σ_i C_i a_ij 1[j ∈ J_i]   for j in selection
               downlink = DownlinkMessage(indices=J, values=b)
    client i:  w -= η * dense(downlink)
               a_i[J ∩ J_i] = 0

:class:`Sparsifier` implementations only decide *which* indices each client
uploads and which downlink set ``J`` the server keeps; aggregation itself
is identical across schemes and lives in :class:`repro.fl.server.Server`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SparseVector:
    """Immutable (indices, values) pair representing a sparse R^D vector.

    Indices are unique and sorted; ``dimension`` is the dense length D.
    """

    indices: np.ndarray
    values: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-D arrays of equal length")
        if idx.size:
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            val = val[order]
            if idx[0] < 0 or idx[-1] >= self.dimension:
                raise ValueError("index out of range")
            if np.any(np.diff(idx) == 0):
                raise ValueError("duplicate indices")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def nnz(self) -> int:
        """Number of stored elements."""
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense D-vector."""
        dense = np.zeros(self.dimension)
        dense[self.indices] = self.values
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray, indices: np.ndarray) -> "SparseVector":
        """Sparse view of ``dense`` restricted to ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return cls(indices=indices, values=dense[indices], dimension=dense.shape[0])

    @classmethod
    def from_sorted(
        cls, indices: np.ndarray, values: np.ndarray, dimension: int
    ) -> "SparseVector":
        """Trusted constructor for pre-validated inputs.

        ``indices`` must already be sorted, unique, in-range int64 and
        ``values`` float64 of equal length.  Skips the
        normalization/validation pass of ``__post_init__``; content is
        identical to the checked construction.  This is the hot-path
        constructor: client uploads, the server's downlink payload and
        the scenario hooks' wire rewrites all route through it, so the
        validating ``__init__`` only runs for externally supplied vectors.
        """
        vector = object.__new__(cls)
        object.__setattr__(vector, "indices", indices)
        object.__setattr__(vector, "values", values)
        object.__setattr__(vector, "dimension", dimension)
        return vector


@dataclass(frozen=True)
class ClientUpload:
    """What one client sends uplink: its selected residual elements.

    ``A_i := {(j, a_ij) : j ∈ J_i}`` in the paper's notation, carried as a
    :class:`SparseVector`, plus the client's sample count ``C_i`` used as
    the aggregation weight.
    """

    client_id: int
    payload: SparseVector
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count <= 0:
            raise ValueError("sample_count must be positive")


@dataclass(frozen=True)
class SelectionResult:
    """Server-side selection outcome.

    Attributes
    ----------
    indices:
        The downlink index set ``J`` (sorted, unique).
    contributions:
        Map ``client_id -> number of that client's uploaded indices that
        made it into J``.  Feeds the fairness CDF of Fig. 4 (right).
    downlink_element_count:
        Number of (index, value) pairs the downlink actually carries.
        Equals ``len(indices)`` for bidirectional schemes but can be up to
        k·N for the unidirectional scheme.
    """

    indices: np.ndarray
    contributions: dict[int, int] = field(default_factory=dict)
    downlink_element_count: int = 0

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-D")
        if idx.size and np.any(np.diff(np.sort(idx)) == 0):
            raise ValueError("duplicate indices in selection")
        object.__setattr__(self, "indices", np.sort(idx))
        if self.downlink_element_count == 0:
            object.__setattr__(self, "downlink_element_count", int(idx.size))


@dataclass(frozen=True)
class DownlinkMessage:
    """What the server broadcasts: ``B := {(j, b_j) : j ∈ J}``."""

    payload: SparseVector


class Sparsifier:
    """Strategy interface: client-side index choice + server-side selection.

    ``name`` identifies the scheme in experiment outputs.
    ``discards_residual`` marks schemes without error accumulation: when
    True, clients reset their full residual after every round (the
    random-sparsification baseline of [30]) instead of keeping the
    untransmitted remainder.
    """

    name = "abstract"
    discards_residual = False

    def client_select(
        self, residual: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Indices (unsorted ok, unique) a client uploads from ``residual``.

        Default: top-k by absolute value, shared by all top-k schemes.
        """
        raise NotImplementedError

    def client_select_batched(self, residuals: np.ndarray, k: int) -> None:
        # Only the frozen benchmarks/suite/trace.py names this (it wraps it).
        return None

    def preprocess_uploads(self, uploads: list["ClientUpload"]) -> None:
        # Only the frozen benchmarks/suite/trace.py names this (it wraps it).
        return None

    def server_select(
        self, uploads: list[ClientUpload], k: int, dimension: int
    ) -> SelectionResult:
        """Choose the downlink index set ``J`` from client uploads."""
        raise NotImplementedError

    def validate_k(self, k: int, dimension: int) -> None:
        """Common sanity check used by all implementations."""
        if not 1 <= k <= dimension:
            raise ValueError(f"k must be in [1, {dimension}], got {k}")
