"""FL client: residual accumulation, upload selection and the residual reset.

Implements the client side of Algorithm 1; an execution backend computes
the gradient.  Weights are synchronized across clients (all clients apply
the identical sparse update), so the simulation shares a single
:class:`~repro.nn.flat.FlatModel` instance whose weights represent the
common ``w(m)``; each client owns only its *state* — data shard, residual
``a_i``, and RNG.
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import ClientDataset
from repro.sparsify.base import (
    ClientUpload, SelectionResult, Sparsifier, SparseVector,
)


class Client:
    """One federated client.

    Parameters
    ----------
    dataset:
        The client's local shard (provides seeded minibatch sampling).
    dimension:
        Flat model dimension D (the residual's length).
    batch_size:
        Minibatch size for local gradient computation (paper: 32).
    seed:
        Seed for the probe-sample RNG used by the sign estimator.
    """

    def __init__(
        self,
        dataset: ClientDataset,
        dimension: int,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.dimension = dimension
        self.batch_size = batch_size
        # The dense residual is lazy: a never-participating client costs
        # O(1) memory (population-scale federations construct millions of
        # these).  It materializes as zeros on first touch, which is exact.
        self._residual: np.ndarray | None = None
        self._rng = np.random.default_rng((seed, dataset.client_id, 0xC11E))
        self._last_upload_indices: np.ndarray | None = None
        self.probe_sample: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def residual(self) -> np.ndarray:
        """The dense residual ``a_i``; materializes zeros on first touch."""
        if self._residual is None:
            self._residual = np.zeros(self.dimension)
        return self._residual

    @residual.setter
    def residual(self, value: np.ndarray) -> None:
        self._residual = value

    @property
    def client_id(self) -> int:
        return self.dataset.client_id

    @property
    def sample_count(self) -> int:
        """``C_i`` of the paper."""
        return len(self.dataset)

    # ------------------------------------------------------------------
    def draw_minibatch(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw this round's minibatch from the client's shard."""
        return self.dataset.minibatch(self.batch_size)

    def accumulate_gradient(self, grad: np.ndarray) -> None:
        """Add the round's gradient to the residual."""
        self.residual += grad

    def select_upload(self, k: int, sparsifier: Sparsifier) -> ClientUpload:
        """Run the sparsifier's client selection and package the upload.

        Selections are unique and in-range by the sparsifier contract and
        sorted here, so the payload takes the trusted
        :meth:`SparseVector.from_sorted` constructor instead of paying a
        re-sort/duplicate scan on every upload.
        """
        indices = sparsifier.client_select(self.residual, k)
        self._last_upload_indices = np.sort(np.asarray(indices, dtype=np.int64))
        payload = SparseVector.from_sorted(
            self._last_upload_indices,
            self.residual[self._last_upload_indices],
            self.dimension,
        )
        return ClientUpload(
            client_id=self.client_id,
            payload=payload,
            sample_count=self.sample_count,
        )

    def reset_transmitted(self, selected: SelectionResult) -> None:
        """Zero the transmitted part of the residual, ``a_i[J ∩ J_i]``
        (Algorithm 1, lines 16–17), for the round's selection.

        ``J ∩ J_i`` is the part of ``J_i`` that J's position map places in
        J: one gather over ``J_i``.  What the client sent is ``a_i[J_i]``
        itself, so zeroing by index is exact whatever the entry held (±inf
        and NaN included) and whatever the server saw on the wire.
        """
        sent = self._last_upload_indices
        if sent is None:
            raise RuntimeError("reset_transmitted called before select_upload")
        self.residual[sent[selected.position[sent] >= 0]] = 0.0

    def drop_upload(self) -> None:
        """Record that this round's upload never reached the server.

        Deployment scenarios call this for deadline-missed uploads: the
        residual keeps the full accumulated gradient (Algorithm 1 never
        reset it — that is what lets top-k/FAB recover the information in
        a later round), and forgetting the upload's index set guards
        against a stray :meth:`reset_transmitted` clearing coordinates
        the server never saw.
        """
        self._last_upload_indices = None

    def reset_all(self) -> None:
        """Drop the whole residual (non-accumulating schemes, e.g. [30])."""
        if self._residual is not None:
            self._residual[:] = 0.0

    # ------------------------------------------------------------------
    # Probes for the derivative-sign estimator (paper Section IV-E)
    # ------------------------------------------------------------------
    def draw_probe_sample(self, x: np.ndarray, y: np.ndarray) -> None:
        """Pick one random sample h from this round's minibatch ``(x, y)``.

        The sample is kept as its own one-row copy, so the minibatch is
        free to go once the local step is done — an idle client (one
        whose upload is still in flight, too) holds one row, not a batch.
        """
        h = int(self._rng.integers(0, x.shape[0]))
        self.probe_sample = (x[h : h + 1].copy(), y[h : h + 1].copy())
