"""ShardedBackend: the round's gradient phase on a multiprocessing pool.

The round skeleton (:class:`repro.fl.engine.RoundEngine`) stays in the
parent process and keeps owning *all* client state — residuals and the
selection/probe RNG.  Only the embarrassingly parallel piece moves out:
each participant's minibatch draw and gradient computation runs on the
worker owning that client's shard (:class:`repro.parallel.pool.
WorkerPool`).  Arrays cross the process boundary through shared memory
in both directions — the synchronized weights out, the gradients back
into one ``(cohort, D)`` block of rows — so the pipes carry only client
ids, row slots and, on probe rounds, the drawn batches.  Each client's
dataset is pickled to its worker exactly once — or, for virtual clients,
never: registration ships only the federation's
:class:`~repro.data.virtual.VirtualSpec` and the worker regenerates the
shard from ``(spec, client_id)`` on first participation.

View lifetime: the gradients :meth:`ShardedBackend.compute_gradients`
returns are views of those rows, valid until the backend's next gradient
phase overwrites them.  Every consumer in the tree folds them into
client or model state at once; one that must keep a gradient copies it.

Bit-identity with :class:`repro.fl.backends.SerialBackend` holds by
construction, the same argument as the vectorized backend's:

- per-client RNG streams are disjoint, so executing clients on different
  workers cannot reorder any stream's draws;
- a client's minibatch stream has exactly one consumer — the worker-side
  dataset copy, registered before its first draw (the parent's copy is
  never drawn from while sharded) — so it yields the serial sequence;
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


class ShardedBackend(ExecutionBackend):
    """Execution backend fanning the gradient phase across worker shards.

    Parameters
    ----------
    jobs:
        Worker process count; ``None``/``0`` means all usable CPUs.  With
        ``jobs=1`` no pool is spawned and the backend runs the serial
        path in process.
    start_method:
        Multiprocessing start method override (default: ``fork`` where
        available).

    Unlike the serial/vectorized backends this one holds resources (the
    worker pool) and per-trainer RNG continuations (the worker-side
    dataset copies), so it must not be used again after :meth:`close`,
    and every trainer fed into it must bring a freshly built federation
    — the repo-wide convention of the figure drivers and tests.
    """

    name = "sharded"

    def __init__(
        self, jobs: int | None = None, start_method: str | None = None
    ) -> None:
        self.jobs = int(jobs) if jobs else default_worker_count()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._start_method = start_method
        self._pool: WorkerPool | None = None
        self._serial = SerialBackend()
        self._closed = False
        # model -> session token; dead models just strand a token.
        self._tokens: "weakref.WeakKeyDictionary[FlatModel, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._issued_tokens: set[int] = set()
        self._next_token = 0
        # (token, client_id) -> weakref to the registered Client, so a new
        # trainer's client (same id, new object) re-registers its fresh
        # dataset while the same client never registers twice.
        self._registered: dict[tuple[int, int], weakref.ref] = {}

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
        token = self._session_token(pool, model)
        self._register_missing(pool, token, participants)
        # The worker drew each minibatch; with ``want_batches`` it comes
        # back beside the gradient, so probe draws see the round's batch
        # exactly as under serial execution.
        return pool.compute_gradients(
            token,
            [client.client_id for client in participants],
            model.get_weights(),
            want_batches=want_batches,
        )

    def reset_residuals(
        self, participants: list[Client], selected: np.ndarray
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
    # Pool/session bookkeeping
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
            # A new engine with a different architecture; earlier sessions
            # are complete (trainers run back to back), so restart clean.
            self._drop_pool()
        if self._pool is None:
            try:
                self._pool = WorkerPool(
                    self.jobs, model.dimension, self._start_method
                )
            except OSError as exc:
                self._degrade_to_serial("start its worker pool", exc)
                return None
        return self._pool

    def _drop_pool(self) -> None:
        """Close the pool, if any, and forget every session on it."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._tokens = weakref.WeakKeyDictionary()
        self._issued_tokens.clear()
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

    def _session_token(self, pool: WorkerPool, model: FlatModel) -> int:
        token = self._tokens.get(model)
        if token is None:
            token = self._next_token
            self._next_token += 1
            self._tokens[model] = token
            # Sessions whose model died (trainer finished and was
            # collected) are done for good; have the workers drop their
            # replicas/shards so memory tracks *live* trainers only.
            dead = self._issued_tokens - set(self._tokens.values())
            self._issued_tokens -= dead
            self._issued_tokens.add(token)
            if dead:
                self._registered = {
                    key: ref
                    for key, ref in self._registered.items()
                    if key[0] not in dead
                }
            pool.broadcast_model(token, model, drop_tokens=tuple(dead))
        return token

    def _register_missing(
        self, pool: WorkerPool, token: int, participants: list[Client]
    ) -> None:
        pending: dict[int, dict[int, tuple]] = {}
        for client in participants:
            known = self._registered.get((token, client.client_id))
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
            self._registered[(token, client.client_id)] = weakref.ref(client)
        for worker, clients in pending.items():
            pool.register_clients(worker, token, clients)
