"""Pluggable execution backends for the round engine's local-step phase.

A backend answers one question: *how* do the round's participants compute
their gradients and produce uploads?  The protocol they implement — the
Algorithm-1 round skeleton — lives in :class:`repro.fl.engine.RoundEngine`
and is backend-independent.

Three implementations ship:

- :class:`SerialBackend` — the reference: a Python loop calling
  ``Client.local_step`` once per participant, exactly the seed trainers'
  behaviour.
- :class:`VectorizedBackend` — batches the gradient phase across all
  participants (one grouped ``FlatModel.gradients_batched`` pass) and the
  residual reset; selection runs per client, as in the serial backend
  (stacking the residuals to select in one call costs more than the N
  calls it saves).  Every batched step is bit-identical to its serial
  counterpart (see the respective docstrings), so the two backends
  produce *equal* training histories; whenever a model lacks batched
  support the backend silently falls back to the serial path for that
  piece, trading speed, never correctness.
- :class:`repro.parallel.sharded.ShardedBackend` ("sharded") — partitions
  clients into shards and runs the gradient phase on a persistent
  multiprocessing worker pool for multi-core scaling, with the same
  bit-identity guarantee.  It lives in :mod:`repro.parallel` and is
  resolved lazily here to keep this module import-light.

Per-client RNG streams are preserved by construction: minibatch draws use
each client's dataset generator, selection/probe draws use each client's
own generator, and both are consumed in participant order in every
backend.

Backends are stateless, so one instance may serve many engines; select
them by name via :func:`resolve_backend` (the string form is what
``ExperimentConfig.backend`` and the CLI ``--backend`` flag carry).
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.nn.flat import FlatModel
from repro.obs import NULL_TELEMETRY
from repro.sparsify.base import ClientUpload, Sparsifier

BACKEND_NAMES = ("serial", "vectorized", "sharded")


class ExecutionBackend:
    """Strategy interface for executing the participants' local steps."""

    name = "abstract"
    #: observation-only hook; the engine replaces this with its enabled
    #: telemetry so process-backed backends can report IPC traffic.
    telemetry = NULL_TELEMETRY

    def local_steps(
        self,
        model: FlatModel,
        participants: list[Client],
        k: int,
        sparsifier: Sparsifier,
        draw_probes: bool = False,
    ) -> list[ClientUpload]:
        """Run every participant's Algorithm-1 local step; return uploads.

        ``model`` holds the synchronized weights ``w(m-1)`` and must be
        left unchanged.  With ``draw_probes`` each participant also draws
        its one-sample probe after its selection (the adaptive trainer's
        estimator input).
        """
        raise NotImplementedError

    def compute_gradients(
        self, model: FlatModel, participants: list[Client]
    ) -> list[np.ndarray]:
        """Per-participant minibatch gradients at the current weights.

        Draws each participant's minibatch (recording it for probe draws)
        and returns the flat gradients; used directly by dense baselines
        (always-send-all) that skip sparsification.

        The arrays are valid until this backend's next gradient phase
        (``compute_gradients`` or ``local_steps``): a backend may return
        views of a buffer it reuses, as the sharded one does.  Consume
        them at once, or copy what must last longer.
        """
        raise NotImplementedError

    def reset_residuals(
        self,
        participants: list[Client],
        uploads: list[ClientUpload],
        selected: np.ndarray,
    ) -> None:
        """Clear each participant's residual at ``J ∩ J_i`` (Algorithm 1,
        lines 16–17), subtracting the actually transmitted values so
        compression error stays in the residual (error feedback)."""
        for client, upload in zip(participants, uploads):
            client.reset_transmitted(selected, upload.payload)

    def close(self) -> None:
        """Release backend-held resources (worker pools); default: none.

        Figure drivers call this once their trainers are done so
        process-backed backends shut down deterministically instead of
        waiting for garbage collection.
        """


class SerialBackend(ExecutionBackend):
    """Reference backend: one Python-level pass per participant."""

    name = "serial"

    def local_steps(
        self,
        model: FlatModel,
        participants: list[Client],
        k: int,
        sparsifier: Sparsifier,
        draw_probes: bool = False,
    ) -> list[ClientUpload]:
        uploads = []
        for client in participants:
            uploads.append(client.local_step(model, k, sparsifier))
            if draw_probes:
                client.draw_probe_sample()
        return uploads

    def compute_gradients(
        self, model: FlatModel, participants: list[Client]
    ) -> list[np.ndarray]:
        grads = []
        for client in participants:
            x, y = client.draw_minibatch()
            grad, _ = model.gradient(x, y)
            grads.append(grad)
        return grads


class VectorizedBackend(ExecutionBackend):
    """Batched backend: one grouped pass over all participants.

    Minibatches are drawn per client (their RNG streams must match the
    serial backend), then grouped by batch size and pushed through
    ``FlatModel.gradients_batched`` — MLPs and CNNs alike (conv/pool run
    grouped im2col passes); each client then selects its own upload.
    Models without grouped-batch support (active Dropout, training-mode
    BatchNorm) fall back to the equivalent per-client calls.
    """

    name = "vectorized"

    def local_steps(
        self,
        model: FlatModel,
        participants: list[Client],
        k: int,
        sparsifier: Sparsifier,
        draw_probes: bool = False,
    ) -> list[ClientUpload]:
        grads = self.compute_gradients(model, participants)
        for client, grad in zip(participants, grads):
            client.accumulate_gradient(grad)

        uploads = [
            client.select_upload(k, sparsifier) for client in participants
        ]
        if draw_probes:
            for client in participants:
                client.draw_probe_sample()
        return uploads

    def reset_residuals(
        self,
        participants: list[Client],
        uploads: list[ClientUpload],
        selected: np.ndarray,
    ) -> None:
        """Batched ``J ∩ J_i`` residual reset.

        One ``searchsorted`` membership test over the stacked upload-index
        matrix replaces the per-client ``intersect1d`` chains; the
        per-client subtraction is the identical elementwise operation, so
        residual state matches the serial reset bit-for-bit.  Falls back
        per client whenever the fast path's preconditions fail (ragged
        upload sizes, index-rewriting preprocessing, momentum masking).
        """
        nnz = uploads[0].payload.nnz if uploads else 0
        fast = all(
            up.payload.nnz == nnz
            and client._velocity is None
            and (
                up.payload.indices is client._last_upload_indices
                or np.array_equal(
                    up.payload.indices, client._last_upload_indices
                )
            )
            for client, up in zip(participants, uploads)
        )
        if not fast or nnz == 0:
            super().reset_residuals(participants, uploads, selected)
            return
        index_matrix = np.stack([up.payload.indices for up in uploads])
        positions = np.searchsorted(selected, index_matrix)
        clipped = np.minimum(positions, selected.size - 1)
        mask = (positions < selected.size) & (selected[clipped] == index_matrix)
        for client, upload, hits in zip(participants, uploads, mask):
            hit_indices = upload.payload.indices[hits]
            client.residual[hit_indices] -= upload.payload.values[hits]

    def compute_gradients(
        self, model: FlatModel, participants: list[Client]
    ) -> list[np.ndarray]:
        batches = [client.draw_minibatch() for client in participants]
        if not model.supports_batched_gradients():
            return [model.gradient(x, y)[0] for x, y in batches]
        grads: list[np.ndarray | None] = [None] * len(batches)
        # Group clients by batch size (shards smaller than batch_size
        # yield short batches); one grouped pass per size class.
        by_size: dict[int, list[int]] = {}
        for i, (x, _) in enumerate(batches):
            by_size.setdefault(x.shape[0], []).append(i)
        for members in by_size.values():
            stacked = model.gradients_batched(
                [batches[i][0] for i in members],
                [batches[i][1] for i in members],
            )
            for row, i in enumerate(members):
                grads[i] = stacked[row]
        return grads  # type: ignore[return-value]


def resolve_backend(
    backend: str | ExecutionBackend | None,
    jobs: int | None = None,
) -> ExecutionBackend:
    """Normalize a backend spec (name, instance, or None) to an instance.

    None means the default :class:`SerialBackend` — the reference
    semantics every trainer had before backends existed.  ``jobs`` is
    the sharded worker count (None/0 = all usable CPUs) and is ignored
    by the in-process backends and pre-built instances.
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "vectorized":
        return VectorizedBackend()
    if backend == "sharded":
        # Imported lazily: repro.parallel pulls in multiprocessing and
        # imports this module back.
        from repro.parallel.sharded import ShardedBackend

        return ShardedBackend(jobs=jobs)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
