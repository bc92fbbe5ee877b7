"""ShardedBackend: the round's gradient phase on a multiprocessing pool.

The round skeleton (:class:`repro.fl.engine.RoundEngine`) stays in the
parent process and keeps owning *all* client state — residuals and the
selection/probe RNG.  Only the embarrassingly parallel piece moves out:
each participant's minibatch draw and gradient computation runs on the
worker owning that client's shard (:class:`repro.parallel.pool.
WorkerPool`).  Arrays cross the process boundary through shared memory
in both directions — the synchronized weights out, the gradients back
into one ``(cohort, D)`` block of rows, each computed straight into its
row — so the pipes carry only client ids, row slots and, on probe
rounds, the drawn batches.  Each client's dataset is pickled to its
worker exactly once — or, for virtual clients, never: registration
ships only the federation's :class:`~repro.data.virtual.VirtualSpec`
and the worker regenerates the shard from ``(spec, client_id)`` on
first participation.

The reply streams: a worker reports each client as soon as its row is
written, and :meth:`ShardedBackend.compute_gradients` returns a lazily
filled, re-iterable sequence in participant order
(:class:`~repro.parallel.pool.GradientStream`) whose item ``i`` waits
only for client ``i``.  So the shared
:meth:`~repro.fl.backends.ExecutionBackend.local_steps` folds and
selects client ``i`` while the workers compute the clients after it.

View lifetime (unchanged by the streaming): the gradients are views of
those rows, valid until the backend's next gradient phase overwrites
them.  Every consumer in the tree folds them into client or model state
at once; one that must keep a gradient copies it.

Bit-identity with :class:`repro.fl.backends.SerialBackend` holds by
construction, the same argument as the vectorized backend's:

- per-client RNG streams are disjoint, so executing clients on different
  workers cannot reorder any stream's draws;
- a client's minibatch stream has exactly one consumer — the worker-side
  dataset copy, registered before its first draw (the parent's copy is
  never drawn from while sharded) — so it yields the serial sequence;
  the workers hold one trainer's model and clients at a time, and a
  trainer a later one replaced raises instead of replaying its streams;
- ``FlatModel.gradient`` is a deterministic function of (weights, batch)
  and every worker runs the same NumPy build as the parent;
- residual accumulation, top-k selection, probe draws and residual reset
  all run in the parent on the parent's clients, in participant order:
  this backend implements only ``compute_gradients`` and inherits the one
  :meth:`~repro.fl.backends.ExecutionBackend.local_steps` every backend
  shares.

``tests/test_engine.py`` enforces the invariant across the sparsifier
matrix (histories, weights, residuals).

When real parallelism is unavailable — one usable core, a daemonic
parent (nested pools), a pool that failed to start, or shared memory
too small for the gradient rows of the first cohort — the backend
degrades to the in-process serial path, which is trivially identical.
Once a worker has drawn a minibatch that hand-over would fork an RNG
stream, so losing the buffer later is a ``RuntimeError`` instead.
"""

from __future__ import annotations

import warnings
import weakref
from typing import Iterable

import numpy as np

from repro.fl.backends import Batch, ExecutionBackend, SerialBackend
from repro.fl.client import Client
from repro.nn.flat import FlatModel
from repro.parallel.pool import (
    WorkerPool,
    default_worker_count,
    in_daemon_process,
)
from repro.sparsify.base import SelectionResult


class ShardedBackend(ExecutionBackend):
    """Execution backend fanning the gradient phase across worker shards.

    Parameters
    ----------
    jobs:
        Worker process count; ``None``/``0`` means all usable CPUs.  With
        ``jobs=1`` no pool is spawned and the backend runs the serial
        path in process.

    Unlike the serial/vectorized backends this one holds resources (the
    worker pool) and the RNG continuations of one trainer at a time (the
    worker-side dataset copies).  So it must not be used again after
    :meth:`close`, every trainer fed into it must bring a freshly built
    federation — the repo-wide convention of the figure drivers and
    tests — and trainers take turns: once a later trainer has run on
    it, an earlier one raises ``RuntimeError`` instead of stepping.
    """

    name = "sharded"

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = int(jobs) if jobs else default_worker_count()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._pool: WorkerPool | None = None
        self._serial = SerialBackend()
        self._closed = False
        # The model whose replica the workers hold, and the models it
        # replaced; weak, so a finished trainer is still collected.
        self._model: weakref.ref | None = None
        self._replaced: "weakref.WeakSet[FlatModel]" = weakref.WeakSet()
        # client_id -> weakref to the registered Client, so a new
        # trainer's client (same id, new object) re-registers its fresh
        # dataset while the same client never registers twice.
        self._registered: dict[int, weakref.ref] = {}

    # ------------------------------------------------------------------
    # ExecutionBackend interface
    # ------------------------------------------------------------------
    def compute_gradients(
        self,
        model: FlatModel,
        participants: list[Client],
        want_batches: bool = False,
    ) -> Iterable[tuple[np.ndarray, Batch | None]]:
        self._ensure_open()
        if model in self._replaced:
            raise RuntimeError(
                "ShardedBackend already serves a later trainer; this "
                "trainer's worker-side minibatch streams are gone, so "
                "resuming would replay them — build a fresh trainer"
            )
        pool = self._ensure_pool(model)
        if pool is None:
            return self._serial.compute_gradients(model, participants)
        # Engines attach telemetry after construction; forward the current
        # reference so pool-level IPC counters land in the same stream.
        pool.telemetry = self.telemetry
        try:
            pool.reserve_rows(len(participants))
        except OSError as exc:
            # No gradient was served yet (the pool raises RuntimeError
            # once one was): every minibatch stream is still at its
            # start in the parent, so serial takes over unchanged.
            self._degrade_to_serial("get its gradient buffer", exc)
            return self._serial.compute_gradients(model, participants)
        self._serve(pool, model)
        self._register_missing(pool, participants)
        # The worker drew each minibatch; with ``want_batches`` it comes
        # back beside the gradient, so probe draws see the round's batch
        # exactly as under serial execution.
        return pool.compute_gradients(
            [client.client_id for client in participants],
            model.get_weights(),
            want_batches=want_batches,
        )

    def reset_residuals(
        self, participants: list[Client], selected: SelectionResult
    ) -> None:
        # Residuals live in the parent, so this *could* still work after
        # close() — but a closed backend means the training run is over
        # (ROADMAP convention); enforce it uniformly rather than let half
        # the interface keep functioning.
        self._ensure_open()
        super().reset_residuals(participants, selected)

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ShardedBackend used after close(); worker-side RNG state "
                "is gone, so resuming would break bit-identity — build a "
                "fresh backend (and trainer) instead"
            )

    def close(self) -> None:
        """Shut the worker pool down; the backend is unusable afterwards."""
        self._closed = True
        self._drop_pool()

    # ------------------------------------------------------------------
    # Pool and served-trainer bookkeeping
    # ------------------------------------------------------------------
    def _ensure_pool(self, model: FlatModel) -> WorkerPool | None:
        """The live pool for this model's dimension, or None to fall back."""
        if self.jobs <= 1 or in_daemon_process():
            return None
        if self._pool is not None and not self._pool.alive:
            # The pool tore itself down after a worker failure; the
            # worker-side RNG continuations died with it, so restarting
            # here would silently diverge from the serial histories.
            self.close()
            raise RuntimeError(
                "ShardedBackend's worker pool died mid-run; restart "
                "training from a fresh trainer and backend"
            )
        if self._pool is not None and self._pool.dimension != model.dimension:
            # A trainer with a different architecture replaces the one
            # served: restart clean.
            self._retire_served()
            self._drop_pool()
        if self._pool is None:
            try:
                self._pool = WorkerPool(self.jobs, model.dimension)
            except OSError as exc:
                self._degrade_to_serial("start its worker pool", exc)
                return None
        return self._pool

    def _drop_pool(self) -> None:
        """Close the pool, if any, and forget what it served."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._model = None
        self._registered.clear()

    def _degrade_to_serial(self, what: str, exc: OSError) -> None:
        """Warn and run in process from here on (``jobs = 1``)."""
        warnings.warn(
            f"sharded backend could not {what} ({exc}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        self._drop_pool()
        self.jobs = 1

    def _serve(self, pool: WorkerPool, model: FlatModel) -> None:
        """Put ``model``'s replica on the workers unless it is there."""
        if self._model is not None and self._model() is model:
            return
        self._retire_served()
        pool.broadcast_model(model)
        self._model = weakref.ref(model)

    def _retire_served(self) -> None:
        """The served model's trainer is replaced: it may not resume, and
        its registered clients are forgotten."""
        served = self._model() if self._model is not None else None
        if served is not None:
            self._replaced.add(served)
        self._model = None
        self._registered.clear()

    def _register_missing(
        self, pool: WorkerPool, participants: list[Client]
    ) -> None:
        pending: dict[int, dict[int, tuple]] = {}
        for client in participants:
            known = self._registered.get(client.client_id)
            if known is not None and known() is client:
                continue
            worker = pool.worker_of(client.client_id)
            # Virtual clients register as their federation's tiny spec —
            # the worker regenerates the dataset from (spec, cid) at the
            # first gradient request, so no sample arrays ever cross the
            # pipe and first participation costs the same IPC as steady
            # state (ids out, gradients back).
            shard = getattr(client.dataset, "virtual_spec", client.dataset)
            pending.setdefault(worker, {})[client.client_id] = (
                shard,
                client.batch_size,
            )
            self._registered[client.client_id] = weakref.ref(client)
        for worker, clients in pending.items():
            pool.register_clients(worker, clients)
