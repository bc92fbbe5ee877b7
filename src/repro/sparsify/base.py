"""Shared types and the sparsifier interface.

Message flow (one training round, paper Algorithm 1)::

    client i:  a_i += local_gradient
               upload = ClientUpload(indices=J_i, values=a_i[J_i])
    server:    selection = sparsifier.server_select(uploads, k, D)
               b_j = (1/C) Σ_i C_i a_ij 1[j ∈ J_i]   for j in selection
               downlink = DownlinkMessage(indices=J, values=b)
    client i:  w -= η * dense(downlink)
               a_i[J ∩ J_i] = 0

:class:`Sparsifier` implementations only decide *which* indices each client
uploads and which downlink set ``J`` the server keeps; aggregation itself
is identical across schemes and lives in :class:`repro.fl.server.Server`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class SelectionResult:
    """The server's downlink index set ``J``, and J's membership as every
    consumer of the round reads it.

    Built once a round, by ``server_select``, from J, the round's uploads
    and D; the aggregate (lines 8–11), the robust statistics, the residual
    reset (lines 16–17) and the round record all read this one object.

    Attributes
    ----------
    indices:
        ``J``, sorted unique int64.
    position:
        Dense D-vector: ``position[j]`` is j's index in ``indices``, or −1
        for j outside J (read-only).
    contributions:
        Map ``client_id -> |J ∩ J_i|`` over the uploads J was chosen
        from.  Feeds the fairness CDF of Fig. 4 (right).
    """

    def __init__(
        self,
        indices: np.ndarray,
        uploads: list[ClientUpload],
        dimension: int,
    ) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-D")
        idx = np.sort(idx)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= dimension:
                raise ValueError("index out of range")
            if np.any(idx[1:] == idx[:-1]):
                raise ValueError("duplicate indices in selection")
        position = np.full(dimension, -1, dtype=np.int64)
        position[idx] = np.arange(idx.size)
        position.flags.writeable = False
        self.indices = idx
        self.position = position
        member = position >= 0
        self.contributions = {
            up.client_id: int(np.count_nonzero(member[up.payload.indices]))
            for up in uploads
        }


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

    def client_select(self, residual: np.ndarray, k: int) -> np.ndarray:
        """Indices (unsorted ok, unique) a client uploads from ``residual``."""
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
