"""Persistent multiprocessing worker pool for the sharded backend.

A :class:`WorkerPool` owns N long-lived worker processes plus two
shared-memory buffers: one holding the flat model weights, one holding a
``(cohort, D)`` block of gradient rows.  Each round the parent writes
the synchronized weights ``w(m-1)`` into the first once (the broadcast),
then sends every worker only the ids of the clients it should step and
the row each gradient belongs in.  A worker computes each gradient
straight into its row and, as soon as the row is written, sends one
``(client id, batch-or-None)`` message for it: the reply streams.  No
gradient is ever pickled or copied.  Client state — the local dataset
with its minibatch RNG — is pickled to its worker *once*, on
registration, and lives there for the rest of the run, so the
steady-state pipe traffic is a few bytes per client: ids and slots out,
ids back.

:meth:`WorkerPool.compute_gradients` returns as soon as the requests are
out.  Its result, a :class:`GradientStream`, is a lazily filled,
re-iterable sequence in request order whose item ``i`` waits only for
client ``i``'s message, so the parent folds and selects client ``i``
while the workers compute the clients after it.  Whatever a caller
leaves unread is read by the pool's next request before it sends.

Workers hold no telemetry.  When the parent traces, a worker times its
part of a request and sends the seconds and the count of datasets it
regenerated as plain numbers on its last message; the parent emits them
as that worker's ``worker.gradients`` span once the result is read.

The gradient rows live in a named POSIX segment (:class:`_GradientRows`)
that is created on the first request and regrown geometrically, because
the cohort size is not known when the workers start; workers attach by
the name that rides every request and re-attach when it changes.
The result's gradients are *views* of those rows, valid until the next
call on the same pool.  The segment's pages are reserved when it is
created, so a ``/dev/shm`` that is too small is an ``OSError`` in the
parent, never a ``SIGBUS`` in a worker.

Virtual clients (:class:`repro.data.virtual.LazyClientDataset`) never
ship arrays at all: registration sends the federation's tiny
:class:`~repro.data.virtual.VirtualSpec` per client, and the worker
regenerates the dataset from ``(spec, client_id)`` on the client's first
gradient request — construction cost lands worker-side, and first
participation costs the same IPC as steady state.

The pool serves one trainer at a time.  Each worker holds one model
replica, one ``client id -> shard`` map and one map of regenerated
virtual federations; :meth:`WorkerPool.broadcast_model` replaces the
replica and clears both maps, so the next trainer of a figure driver's
back-to-back runs starts from its own fresh datasets and never
continues the previous trainer's minibatch streams.

Determinism: a worker's dataset copy is the *only* consumer of that
client's minibatch RNG stream (the parent's copy is never drawn from
while the pool is in use), and ``FlatModel.gradient`` is a pure function
of (weights, batch).  Both are therefore bit-identical to the serial
reference — see :class:`repro.parallel.sharded.ShardedBackend` for the
full invariant and ``tests/test_engine.py`` for its enforcement.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import pickle
import time
import traceback
import weakref
from collections import deque
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import NoReturn

import numpy as np

from repro.data.virtual import VirtualFederation, VirtualSpec
from repro.obs import NULL_TELEMETRY


def preferred_start_method() -> str:
    """``fork`` where available (cheap, COW pages); ``spawn`` otherwise."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def default_worker_count() -> int:
    """Usable CPUs for this process (affinity-aware where supported)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def in_daemon_process() -> bool:
    """Daemonic processes (e.g. sweep pool workers) cannot fork children."""
    return mp.current_process().daemon


class _GradientRows:
    """Parent side of the gradient return buffer: ``(capacity, D)`` float64
    rows in one named shared-memory segment.

    The rows are mapped through an ``mmap`` of the parent's own that is
    never closed explicitly, so a row view a caller still holds after
    the segment was regrown or released reads stale memory, never
    unmapped memory.  ``segment`` itself is kept, already closed, for
    its name and its ``unlink``.
    """

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self.segment: SharedMemory | None = None
        self.rows: np.ndarray | None = None

    def reserve(self, count: int) -> np.ndarray:
        """The row block, regrown (at least doubled) to hold ``count`` rows.

        Raises ``OSError`` naming the bytes asked for when shared memory
        cannot back them; the current segment is then left as it was.
        """
        capacity = 0 if self.rows is None else len(self.rows)
        if capacity < count:
            capacity = max(count, 2 * capacity)
            nbytes = capacity * self.dimension * 8
            try:
                segment, mapping = _create_segment(nbytes)
            except OSError as exc:
                raise OSError(
                    exc.errno,
                    f"cannot reserve {nbytes:,} bytes of shared memory for "
                    f"{capacity} gradient rows ({exc.strerror or exc})",
                ) from exc
            self.release()
            self.segment = segment
            self.rows = np.ndarray(
                (capacity, self.dimension), dtype=np.float64, buffer=mapping
            )
        return self.rows

    def release(self) -> None:
        """Unlink the segment; its memory goes with the last mapping."""
        if self.segment is not None:
            self.segment.unlink()
            self.segment = None
            self.rows = None


def _create_segment(nbytes: int) -> tuple[SharedMemory, mmap.mmap]:
    """A new segment with its pages reserved, and the one mapping of it."""
    segment = SharedMemory(create=True, size=nbytes)
    try:
        # SharedMemory only ftruncates, which leaves a sparse file: a
        # full /dev/shm would then surface as SIGBUS at a worker's first
        # write.  Reserving the pages makes it an OSError here instead.
        # The descriptor has no public accessor.
        if hasattr(os, "posix_fallocate"):  # absent on macOS
            os.posix_fallocate(segment._fd, 0, nbytes)
        mapping = mmap.mmap(segment._fd, nbytes)
    except OSError:
        segment.close()
        segment.unlink()
        raise
    segment.close()  # its own mapping and descriptor are not needed
    return segment, mapping


def _worker_main(conn, weights_buf, dimension: int) -> None:
    """Worker loop: serve gradient requests for the one model it holds.

    ``weights_buf`` is the shared flat-weight buffer; it is re-read at
    every ``grads`` request, so the parent's single write per round
    broadcasts to all workers.  Gradients go the other way through the
    segment named in the request: each is computed straight into its
    row slot, and as soon as that row is written the worker sends one
    small ``("ok", (client id, batch-or-None, timing))`` message for it,
    in the request's order.

    When a ``grads`` request arrives with its trace flag set, the worker
    times it and sends ``(seconds, datasets regenerated)`` as the timing
    of the request's last message, which the parent emits as this
    worker's span; every other message, and every message of an
    untraced request (which does no telemetry work at all), carries
    ``None`` there.

    A ``model`` message replaces the replica and clears the shard and
    federation maps: the clients registered after it belong to the new
    model's trainer.
    """
    weights = np.frombuffer(weights_buf, dtype=np.float64, count=dimension)
    model = None
    # client_id -> (ClientDataset | VirtualSpec, batch_size)
    shards: dict[int, tuple] = {}
    # VirtualSpec -> VirtualFederation, so each regenerated client keeps
    # one uninterrupted minibatch RNG stream for the model's trainer.
    federations: dict[VirtualSpec, VirtualFederation] = {}
    segment: SharedMemory | None = None
    rows: np.ndarray | None = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        try:
            cmd = msg[0]
            if cmd == "stop":
                conn.close()
                break
            if cmd == "model":
                _, model = msg
                shards.clear()
                federations.clear()
                conn.send(("ok", None))
            elif cmd == "register":
                _, clients = msg
                shards.update(clients)
                conn.send(("ok", None))
            elif cmd == "grads":
                _, assigned, segment_name, want_batches, trace = msg
                if trace:
                    request_start = time.perf_counter()
                if segment is None or segment.name != segment_name:
                    # The parent regrew the buffer and unlinked the
                    # segment this worker still maps: follow it.
                    rows = None
                    if segment is not None:
                        segment.close()
                    segment = SharedMemory(name=segment_name)
                    # segment.size may be rounded up to whole pages
                    capacity = segment.size // (8 * dimension)
                    rows = np.frombuffer(
                        segment.buf, dtype=np.float64,
                        count=capacity * dimension,
                    ).reshape(capacity, dimension)
                # set_weights copies into the parameter arrays, and the
                # parent leaves the buffer alone until this request's
                # last client has been reported.
                model.set_weights(weights)
                regenerated = 0
                last = len(assigned) - 1
                for position, (cid, slot) in enumerate(assigned):
                    dataset, batch_size = shards[cid]
                    if isinstance(dataset, VirtualSpec):
                        # First gradient request for a virtual client:
                        # regenerate its dataset from (spec, cid) — the
                        # identity-stable federation keeps the minibatch
                        # RNG stream for the rest of the run even when
                        # the bounded LRU later drops the arrays.
                        fed = federations.get(dataset)
                        if fed is None:
                            fed = VirtualFederation(dataset)
                            federations[dataset] = fed
                        dataset = fed.client_dataset(cid)
                        shards[cid] = (dataset, batch_size)
                        regenerated += 1
                    x, y = dataset.minibatch(batch_size)
                    model.gradient(x, y, out=rows[slot])
                    timing = None
                    if trace and position == last:
                        timing = (time.perf_counter() - request_start,
                                  regenerated)
                    # The row is written: report it now, so the parent
                    # folds it while this worker computes the next one.
                    conn.send(("ok", (cid, (x, y) if want_batches else None,
                                      timing)))
            else:
                conn.send(("error", f"unknown command {cmd!r}"))
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            except OSError:
                break  # the parent closed the pool mid-request
    # A spawn-started worker runs a full interpreter shutdown, and a
    # segment cannot close while the row array still exports its buffer.
    rows = None
    if segment is not None:
        segment.close()


class GradientStream:
    """One gradient request's result, filled in as the workers report it.

    A read-only sequence of ``(gradient row, batch-or-None)`` pairs in
    request order, which can be iterated any number of times.  Reading
    item ``i`` blocks only until its worker has reported client ``i``
    (each worker reports its clients in request order); the rows are
    views of the pool's shared block, with the lifetime
    :meth:`WorkerPool.compute_gradients` states.  A worker that failed
    or died while this is read raises ``RuntimeError`` naming it, and
    the pool is closed.
    """

    def __init__(
        self,
        pool: WorkerPool,
        client_ids: list[int],
        rows: np.ndarray,
        by_worker: dict[int, list[tuple[int, int]]],
        trace: bool,
    ) -> None:
        self._pool = pool
        self._client_ids = client_ids
        self._grads = list(rows[: len(client_ids)])
        self._batches: list[tuple | None] = [None] * len(client_ids)
        # worker -> the slots it has still to report, ascending
        self._pending = {
            worker: deque(slot for _, slot in assigned)
            for worker, assigned in by_worker.items()
        }
        self._trace = trace
        # worker -> (seconds, regenerated) of its traced request
        self._timings: dict[int, tuple[float, int]] = {}

    def __len__(self) -> int:
        return len(self._grads)

    def __getitem__(self, i: int):
        i = range(len(self._grads))[i]  # an int index, bounds-checked
        worker = self._pool.worker_of(self._client_ids[i])
        slots = self._pending[worker]
        while slots and slots[0] <= i:
            self._read(worker)
        return self._grads[i], self._batches[i]

    def __iter__(self):
        return (self[i] for i in range(len(self._grads)))

    def drain(self) -> None:
        """Read every message still outstanding."""
        for worker, slots in self._pending.items():
            while slots:
                self._read(worker)

    def _read(self, worker: int) -> None:
        """Read ``worker``'s next report into its slot."""
        pool = self._pool
        if not pool.alive:
            raise RuntimeError(
                "sharded pool closed before its gradient result was read"
            )
        slots = self._pending[worker]
        cid, batch, timing = pool._receive(worker)
        if cid != self._client_ids[slots[0]]:
            pool.close()
            raise RuntimeError(
                f"sharded worker {worker} reported client {cid}, expected "
                f"{self._client_ids[slots[0]]}"
            )
        slot = slots.popleft()
        self._batches[slot] = batch
        if self._trace:
            tel = pool.telemetry
            shm_bytes = self._grads[slot].nbytes
            tel.count("pool.shm_bytes_back", shm_bytes)
            tel.count("pool.ipc_bytes_back", shm_bytes + (
                batch[0].nbytes + batch[1].nbytes if batch else 0
            ))
            if timing is not None:
                self._timings[worker] = timing
        if not any(self._pending.values()):
            self._finish()

    def _finish(self) -> None:
        """Every report is in: emit the worker spans, free the pool."""
        pool = self._pool
        tel = pool.telemetry
        for worker in sorted(self._timings):
            seconds, regenerated = self._timings[worker]
            tel.event("span", name="worker.gradients", seconds=seconds,
                      process=f"worker-{worker}",
                      clients=sum(pool.worker_of(cid) == worker
                                  for cid in self._client_ids),
                      regenerated=regenerated, round=tel.current_round)
        pool._stream = None


class WorkerPool:
    """N persistent workers around a shared weight buffer and a shared
    block of gradient rows.

    The pool is sized for one model dimension; the sharded backend
    recreates it if a model of a different dimension shows up.  All
    methods are synchronous and must be called from the owning process.
    """

    #: observation-only; the sharded backend forwards the engine's
    #: telemetry here so IPC traffic and worker utilization get counted.
    telemetry = NULL_TELEMETRY

    def __init__(self, num_workers: int, dimension: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        ctx = mp.get_context(preferred_start_method())
        self.num_workers = num_workers
        self.dimension = dimension
        self._weights = ctx.RawArray("d", dimension)
        self._weights_view = np.frombuffer(self._weights, dtype=np.float64)
        self._grads = _GradientRows(dimension)
        # Whether any worker may have drawn a minibatch yet: until then a
        # pool that cannot get its segment can still hand over to the
        # in-process serial path without forking an RNG stream.
        self._served = False
        # The last gradient result while it still has unread messages.
        self._stream: GradientStream | None = None
        # Forked workers must inherit a running tracker.  One that starts
        # its own on attaching the gradient segment would unlink the
        # segment, and report it leaked, when that worker exits.
        resource_tracker.ensure_running()
        self._conns = []
        self._procs = []
        for _ in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._weights, dimension),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown, list(self._conns), list(self._procs), self._grads
        )

    # ------------------------------------------------------------------
    def worker_of(self, client_id: int) -> int:
        """Stable shard layout: clients assigned round-robin by id."""
        return client_id % self.num_workers

    def broadcast_model(self, model) -> None:
        """Replace every worker's model replica with ``model``.

        Each worker also forgets its registered clients and regenerated
        virtual federations: the pool now serves ``model``'s trainer,
        whose clients register afresh.
        """
        tel = self.telemetry
        if tel.enabled:
            start = time.perf_counter()
            tel.count(
                "pool.ipc_bytes_out",
                len(pickle.dumps(("model", model))) * len(self._conns),
            )
        self._settle()
        for worker in range(self.num_workers):
            self._send(worker, ("model", model))
        for worker in range(self.num_workers):
            self._receive(worker)
        if tel.enabled:
            tel.count("pool.model_broadcast_seconds",
                      time.perf_counter() - start)

    def register_clients(self, worker: int, clients: dict) -> None:
        """Pickle client shards (dataset + batch size) to one worker, once."""
        tel = self.telemetry
        if tel.enabled:
            tel.count("pool.ipc_bytes_out",
                      len(pickle.dumps(("register", clients))))
            specs = sum(1 for dataset, _ in clients.values()
                        if isinstance(dataset, VirtualSpec))
            if specs:
                tel.count("pool.register_spec", specs)
            if len(clients) - specs:
                tel.count("pool.register_array", len(clients) - specs)
            tel.count(f"pool.worker{worker}.clients", len(clients))
        self._settle()
        self._send(worker, ("register", clients))
        self._receive(worker)

    def reserve_rows(self, count: int) -> np.ndarray:
        """The gradient row block, regrown if it held fewer than ``count``.

        :meth:`compute_gradients` calls this itself.  It is public for
        the one failure a caller can still recover from: before any
        gradient was served, shared memory that cannot back the rows is
        an ``OSError`` and the pool is untouched.  Later the worker-side
        minibatch streams have advanced, so the pool closes and the
        failure is a ``RuntimeError`` naming the bytes asked for.
        """
        self._settle()
        try:
            return self._grads.reserve(count)
        except OSError as exc:
            if not self._served:
                raise
            self.close()
            raise RuntimeError(
                f"sharded pool lost its gradient buffer mid-run: {exc}"
            ) from exc

    def compute_gradients(
        self,
        client_ids: list[int],
        weights: np.ndarray,
        want_batches: bool = False,
    ) -> GradientStream | list:
        """One parallel gradient phase over ``client_ids`` at ``weights``.

        Returns, in ``client_ids`` order, each client's flat gradient
        and — only with ``want_batches`` (probe rounds) — the minibatch
        it was computed on; shipping batches every round would put
        arrays back on the pipe for nothing.

        The result streams: it is a :class:`GradientStream`, returned as
        soon as the requests are out, whose item ``i`` waits only for
        client ``i``'s report.  A caller that folds the gradients in
        order therefore works on client ``i`` while the workers compute
        the clients after it.  The sequence can be read any number of
        times, by index or by iteration.

        The gradients are *views*: row ``i`` of the shared block the
        workers wrote into, in ``client_ids`` order.  They are valid
        until the next call on this pool, which overwrites them; copy
        what must outlive it.  Whatever of this result is still unread
        when the pool is next asked for anything is read first, so no
        request ever sees an earlier request's messages.

        With telemetry enabled the trace flag rides the request, and
        each worker's time for it comes back as two numbers on its last
        message; once the whole result has been read the parent emits
        one ``worker.gradients`` span per worker, in ascending worker
        id and stamped with the telemetry's current round, so two
        identical traced runs write the same stream.
        """
        if not client_ids:
            return []  # and no zero-byte segment, which cannot exist
        if len(set(client_ids)) != len(client_ids):
            twice = sorted(
                cid for cid in set(client_ids) if client_ids.count(cid) > 1
            )
            raise ValueError(
                "a gradient request holds one row per client id; "
                f"duplicated: {twice}"
            )
        # Also reads what is left of the previous result: until then its
        # workers may still be reading the weights and writing rows.
        rows = self.reserve_rows(len(client_ids))
        tel = self.telemetry
        trace = tel.enabled
        if trace:
            start = time.perf_counter()
        self._weights_view[:] = weights
        if trace:
            tel.count("pool.weights_broadcast_seconds",
                      time.perf_counter() - start)
        by_worker: dict[int, list[tuple[int, int]]] = {}
        for slot, cid in enumerate(client_ids):
            by_worker.setdefault(self.worker_of(cid), []).append((cid, slot))
        for worker, assigned in by_worker.items():
            self._request_gradients(worker, assigned, want_batches, trace)
        self._stream = GradientStream(self, client_ids, rows, by_worker,
                                      trace)
        return self._stream

    def _settle(self) -> None:
        """Read what is left of the last gradient result, if anything."""
        if self._stream is not None:
            self._stream.drain()

    def _request_gradients(
        self,
        worker: int,
        assigned: list[tuple[int, int]],
        want_batches: bool,
        trace: bool,
    ) -> None:
        """Ask ``worker`` for its ``(client id, row slot)`` pairs.

        The one place that knows the request's wire shape.  The rows
        must already be reserved; the worker answers with one message per
        client, each read with :meth:`_receive`.
        """
        request = ("grads", assigned, self._grads.segment.name,
                   want_batches, trace)
        if trace:
            tel = self.telemetry
            tel.count("pool.ipc_bytes_out", len(pickle.dumps(request)))
            tel.count(f"pool.worker{worker}.requests")
            tel.count(f"pool.worker{worker}.clients_stepped", len(assigned))
        self._served = True
        self._send(worker, request)

    def _send(self, worker: int, message: tuple) -> None:
        try:
            self._conns[worker].send(message)
        except ConnectionError as exc:
            self._worker_died(worker, exc)

    def _receive(self, worker: int):
        try:
            status, payload = self._conns[worker].recv()
        except (EOFError, ConnectionError) as exc:
            self._worker_died(worker, exc)
        if status != "ok":
            # The request fanned out to several workers; their queued
            # replies would be mistaken for the *next* request's answers
            # if this pool were used again.  Tear it down so a caught
            # error can never turn into silently stale gradients.
            self.close()
            raise RuntimeError(f"sharded worker {worker} failed:\n{payload}")
        return payload

    def _worker_died(self, worker: int, exc: Exception) -> NoReturn:
        self.close()
        raise RuntimeError(
            f"sharded worker {worker} died unexpectedly"
        ) from exc

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._finalizer.alive

    def close(self) -> None:
        """Stop the workers and unlink the gradient segment; idempotent
        (also runs on garbage collection)."""
        self._finalizer()


def _shutdown(conns, procs, grads: _GradientRows) -> None:
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
        # Closed before the join: a worker still reporting an unread
        # result gets a broken pipe and stops, instead of blocking on a
        # full one until it is terminated.
        conn.close()
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=1.0)
    grads.release()
