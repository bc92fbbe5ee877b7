"""FL client: local gradient computation and residual accumulation.

Implements the client side of Algorithm 1.  Weights are synchronized
across clients (all clients apply the identical sparse update), so the
simulation shares a single :class:`~repro.nn.flat.FlatModel` instance whose
weights represent the common ``w(m)``; each client owns only its *state* —
data shard, residual ``a_i``, and RNG.
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import ClientDataset
from repro.nn.flat import FlatModel
from repro.sparsify.base import ClientUpload, Sparsifier, SparseVector


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
        momentum_correction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= momentum_correction < 1.0:
            raise ValueError("momentum_correction must be in [0, 1)")
        self.dataset = dataset
        self.dimension = dimension
        self.batch_size = batch_size
        self.momentum_correction = momentum_correction
        # Dense state is lazy: a never-participating client costs O(1)
        # memory (population-scale federations construct millions of
        # these).  The dense residual/velocity materialize on first touch
        # and can round-trip through a sparse spill store (hibernate) —
        # both transitions are exact, so laziness never changes results.
        self._residual: np.ndarray | None = None
        self._spilled_residual: tuple[np.ndarray, np.ndarray] | None = None
        self._velocity: np.ndarray | None = None
        self._spilled_velocity: tuple[np.ndarray, np.ndarray] | None = None
        self._rng = np.random.default_rng((seed, dataset.client_id, 0xC11E))
        self._last_batch: tuple[np.ndarray, np.ndarray] | None = None
        self._last_upload_indices: np.ndarray | None = None
        self.probe_sample: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def residual(self) -> np.ndarray:
        """The dense residual ``a_i``; materializes zeros on first touch."""
        if self._residual is None:
            self._residual = np.zeros(self.dimension)
            if self._spilled_residual is not None:
                indices, values = self._spilled_residual
                self._residual[indices] = values
                self._spilled_residual = None
        return self._residual

    @residual.setter
    def residual(self, value: np.ndarray) -> None:
        self._residual = value
        self._spilled_residual = None

    def hibernate(self) -> None:
        """Spill dense state to a sparse store after long idleness.

        The residual and velocity collapse to their nonzero entries (an
        exact round-trip — zeros are exact in float64), stale per-round
        state is dropped, and a releasable dataset (lazy virtual shards)
        is asked to free its arrays.  Waking is implicit: the next touch
        of :attr:`residual` (or the next momentum accumulation) restores
        the dense form bit-identically, and a released dataset
        regenerates on its next access with its minibatch RNG stream
        untouched.  Hibernating is therefore invisible to training
        results; it only bounds idle-client memory.
        """
        if self._residual is not None:
            indices = np.flatnonzero(self._residual)
            self._spilled_residual = (indices, self._residual[indices])
            self._residual = None
        if self._velocity is not None:
            indices = np.flatnonzero(self._velocity)
            self._spilled_velocity = (indices, self._velocity[indices])
            self._velocity = None
        self._last_batch = None
        self.probe_sample = None
        release = getattr(self.dataset, "release", None)
        if release is not None:
            release()

    @property
    def hibernating(self) -> bool:
        """Whether dense state is currently spilled to the sparse store."""
        return (
            self._spilled_residual is not None
            or self._spilled_velocity is not None
        )

    @property
    def client_id(self) -> int:
        return self.dataset.client_id

    @property
    def sample_count(self) -> int:
        """``C_i`` of the paper."""
        return len(self.dataset)

    # ------------------------------------------------------------------
    def local_step(
        self, model: FlatModel, k: int, sparsifier: Sparsifier
    ) -> ClientUpload:
        """One local round: accumulate gradient, select and return upload.

        ``model`` must hold the synchronized weights ``w(m-1)`` on entry;
        it is left unchanged (gradient computation does not move weights).

        A one-client convenience: the round engine runs the same pieces
        (:meth:`draw_minibatch`, :meth:`accumulate_gradient`,
        :meth:`select_upload`) through
        :meth:`repro.fl.backends.ExecutionBackend.local_steps`, whose
        backend computes the gradient — batched, or on a worker — and
        each piece touches the same per-client state in the same order,
        so every backend reproduces this method exactly.
        """
        x, y = self.draw_minibatch()
        grad, _ = model.gradient(x, y)
        self.accumulate_gradient(grad)
        return self.select_upload(k, sparsifier)

    def draw_minibatch(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw this round's minibatch (kept for the probe-sample draw)."""
        x, y = self.dataset.minibatch(self.batch_size)
        self._last_batch = (x, y)
        return x, y

    def adopt_minibatch(self, x: np.ndarray, y: np.ndarray) -> None:
        """Record a minibatch drawn on this client's behalf elsewhere.

        The sharded backend draws each round's minibatch on the worker
        that owns this client's dataset copy; adopting it here keeps
        :meth:`draw_probe_sample` working on the round's actual batch,
        exactly as if :meth:`draw_minibatch` had run in this process.
        """
        self._last_batch = (x, y)

    def accumulate_gradient(self, grad: np.ndarray) -> None:
        """Add the round's gradient (or its velocity) to the residual."""
        if self.momentum_correction:
            # Momentum correction (Deep Gradient Compression, Lin et al.,
            # the paper's reference [22]): accumulate the *velocity* into
            # the residual so sparse updates carry momentum faithfully.
            self._velocity = (
                self.momentum_correction * self._velocity_array() + grad
            )
            self.residual += self._velocity
        else:
            self.residual += grad

    def _velocity_array(self) -> np.ndarray:
        """Dense momentum velocity; materializes/unspills on first touch."""
        if self._velocity is None:
            self._velocity = np.zeros(self.dimension)
            if self._spilled_velocity is not None:
                indices, values = self._spilled_velocity
                self._velocity[indices] = values
                self._spilled_velocity = None
        return self._velocity

    def select_upload(self, k: int, sparsifier: Sparsifier) -> ClientUpload:
        """Run the sparsifier's client selection and package the upload.

        Selections are unique and in-range by the sparsifier contract and
        sorted here, so the payload takes the trusted
        :meth:`SparseVector.from_sorted` constructor instead of paying a
        re-sort/duplicate scan on every upload.
        """
        indices = sparsifier.client_select(self.residual, k, self._rng)
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

    def reset_transmitted(
        self, selected: np.ndarray, transmitted: SparseVector | None = None
    ) -> None:
        """Clear the transmitted part of the residual at ``J ∩ J_i``.

        With exact uploads this zeroes the entries (Algorithm 1, lines
        16–17).  When a compression wrapper altered the uploaded values
        (e.g. quantization), pass the *actually transmitted* payload via
        ``transmitted``: the residual keeps the compression error
        (error feedback), which is what makes quantized GS unbiased over
        time.
        """
        if self._last_upload_indices is None:
            raise RuntimeError("reset_transmitted called before select_upload")
        hit = np.intersect1d(
            selected, self._last_upload_indices, assume_unique=True
        )
        if self._velocity is not None:
            # DGC momentum factor masking: stop momentum at transmitted
            # coordinates so stale velocity does not re-inflate them.
            self._velocity[hit] = 0.0
        if transmitted is None:
            self.residual[hit] = 0.0
            return
        pos = np.searchsorted(transmitted.indices, hit)
        valid = pos < transmitted.indices.size
        pos_clipped = np.minimum(pos, max(transmitted.indices.size - 1, 0))
        matches = valid & (transmitted.indices[pos_clipped] == hit)
        self.residual[hit[matches]] -= transmitted.values[pos_clipped[matches]]
        self.residual[hit[~matches]] = 0.0

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
        if self._velocity is not None:
            self._velocity[:] = 0.0
        self._spilled_residual = None
        self._spilled_velocity = None

    # ------------------------------------------------------------------
    # Probes for the derivative-sign estimator (paper Section IV-E)
    # ------------------------------------------------------------------
    def draw_probe_sample(self) -> None:
        """Pick one random sample h from the current round's minibatch."""
        if self._last_batch is None:
            raise RuntimeError("draw_probe_sample called before draw_minibatch")
        x, y = self._last_batch
        h = int(self._rng.integers(0, x.shape[0]))
        self.probe_sample = (x[h : h + 1], y[h : h + 1])
