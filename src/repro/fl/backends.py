"""Pluggable execution backends for the round engine's local-step phase.

A backend answers one question: *how* are the round's gradients
computed?  The protocol around them — the Algorithm-1 round skeleton —
lives in :class:`repro.fl.engine.RoundEngine`, and the client side of a
round is written once, in :meth:`ExecutionBackend.local_steps`: each
participant in order folds its gradient into its residual, selects its
upload and (on probe rounds) draws its probe sample.  A backend
implements :meth:`ExecutionBackend.compute_gradients` and nothing else
of the step.

Two implementations ship:

- :class:`SerialBackend` — in process: consecutive participants of one
  batch size share one ``FlatModel.gradients_batched`` call of at most
  one block (the grouped pass's own rule,
  :meth:`~repro.nn.flat.FlatModel.groups_per_block`: 8 suite-MLP
  clients, 2 suite-CNN ones, 1 at the paper MLP), and the minibatches
  are drawn and the rows yielded a block at a time, so the round holds
  one block of rows.  Every row is the bytes of that client's own
  ``FlatModel.gradient`` call: every layer has one pass, and a
  client's gradient is its G = 1 case.
- :class:`repro.parallel.sharded.ShardedBackend` ("sharded") — the
  gradients of a persistent multiprocessing worker pool, one shard of
  clients per worker, with the same bit-identity guarantee.  It lives in
  :mod:`repro.parallel` and is resolved lazily here to keep this module
  import-light.

Per-client RNG streams are preserved by construction: minibatch draws use
each client's dataset generator, selection/probe draws use each client's
own generator, and both are consumed in participant order in every
backend.

Select a backend by name via :func:`resolve_backend` (the string form is
what ``ExperimentConfig.backend`` and the CLI ``--backend`` flag carry).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.fl.client import Client
from repro.nn.flat import FlatModel
from repro.obs import NULL_TELEMETRY
from repro.sparsify.base import ClientUpload, SelectionResult, Sparsifier

BACKEND_NAMES = ("serial", "sharded")

#: one minibatch ``(x, y)``
Batch = tuple[np.ndarray, np.ndarray]


class ExecutionBackend:
    """How a round's gradients are computed (:meth:`compute_gradients`);
    the local step and the residual reset around them are shared."""

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

        Each participant, in order, adds its gradient to its residual and
        selects its upload; with ``draw_probes`` it then draws its
        one-sample probe from the round's minibatch (the adaptive
        trainer's estimator input).  ``model`` holds the synchronized
        weights ``w(m-1)`` and must be left unchanged.
        """
        steps = self.compute_gradients(
            model, participants, want_batches=draw_probes
        )
        uploads = []
        for client, (grad, batch) in zip(participants, steps):
            client.accumulate_gradient(grad)
            uploads.append(client.select_upload(k, sparsifier))
            if draw_probes:
                client.draw_probe_sample(*batch)
        return uploads

    def compute_gradients(
        self,
        model: FlatModel,
        participants: list[Client],
        want_batches: bool = False,
    ) -> Iterable[tuple[np.ndarray, Batch | None]]:
        """Per-participant minibatch gradients at the current weights.

        Draws each participant's minibatch and yields ``(gradient,
        minibatch)`` pairs in participant order; used directly by dense
        baselines (always-send-all) that skip sparsification.  The
        minibatch ``(x, y)`` comes with its gradient when ``want_batches``
        asks for it (the input of :meth:`Client.draw_probe_sample`);
        otherwise it may be None.  No client keeps it.

        The result may be lazy: a generator (the serial backend's) or a
        sequence filled in as the pairs arrive (the sharded backend's,
        whose item ``i`` waits only for participant ``i``), so a caller
        that consumes the pairs in order works on one while later ones
        are still computed.

        Each gradient is valid until this backend's next gradient phase:
        a backend may return views of a buffer it reuses, as the sharded
        one does.  Consume them at once, or copy what must last longer.
        """
        raise NotImplementedError

    def reset_residuals(
        self, participants: list[Client], selected: SelectionResult
    ) -> None:
        """Zero each participant's residual at ``J ∩ J_i`` (Algorithm 1,
        lines 16–17); ``selected`` is the round's selection."""
        for client in participants:
            client.reset_transmitted(selected)

    def close(self) -> None:
        """Release backend-held resources (worker pools); default: none.

        Figure drivers call this once their trainers are done so
        process-backed backends shut down deterministically instead of
        waiting for garbage collection.
        """


class SerialBackend(ExecutionBackend):
    """In-process backend: the round's gradients from the grouped pass,
    one block of consecutive same-batch-size participants at a time."""

    name = "serial"

    def compute_gradients(
        self,
        model: FlatModel,
        participants: list[Client],
        want_batches: bool = False,
    ) -> Iterable[tuple[np.ndarray, Batch]]:
        # A generator: a block's rows are folded in before the next
        # block's minibatches are drawn.  gradients_batched is called by
        # name, eagerly: the suite tracer times that method.
        for block in _blocks(model, participants):
            yield from zip(
                model.gradients_batched(
                    [x for x, _ in block], [y for _, y in block]
                ),
                block,
            )


def _blocks(
    model: FlatModel, participants: list[Client]
) -> Iterable[list[Batch]]:
    """The participants' minibatches in order, drawn and grouped into
    runs of one batch size, each at most ``model.groups_per_block``
    long: a block is yielded as soon as it is full or the next
    participant's batch size differs."""
    block: list[Batch] = []
    for client in participants:
        batch = client.draw_minibatch()
        if block and batch[0].shape != block[0][0].shape:
            yield block
            block = []
        block.append(batch)
        if len(block) == model.groups_per_block(batch[0]):
            yield block
            block = []
    if block:
        yield block


def resolve_backend(
    backend: str | ExecutionBackend | None,
    jobs: int | None = None,
) -> ExecutionBackend:
    """Normalize a backend spec (name, instance, or None) to an instance.

    None means the default :class:`SerialBackend` — the reference
    semantics every trainer had before backends existed.  ``jobs`` is
    the sharded worker count (None/0 = all usable CPUs) and is ignored
    by the in-process backend and pre-built instances.  The name
    ``"vectorized"`` also resolves to the serial backend: the frozen
    benchmark workloads still pass that retired name.
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend in ("serial", "vectorized"):
        return SerialBackend()
    if backend == "sharded":
        # Imported lazily: repro.parallel pulls in multiprocessing and
        # imports this module back.
        from repro.parallel.sharded import ShardedBackend

        return ShardedBackend(jobs=jobs)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
