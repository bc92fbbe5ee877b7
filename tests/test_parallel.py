"""Parallel subsystem tests: worker pool, sharded backend, store, sweep.

Backend *equivalence* (sharded == serial bit for bit across the
sparsifier matrix) lives in ``tests/test_engine.py``; this file covers
the subsystem's own machinery — pool protocol and failure modes, the
trainers taking turns on one backend, the content-addressed results
store, and the sweep orchestrator's expand/cache/fan-out behaviour.
"""

import copy
import errno
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.data.virtual import VirtualFederation, VirtualSpec
from repro.experiments.config import ExperimentConfig, scaled_config
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, default_worker_count
from repro.parallel.sharded import ShardedBackend
from repro.parallel.store import ResultsStore, canonical_json, content_key
from repro.parallel.sweep import (
    SWEEP_FIGURES,
    SweepSpec,
    collect_artifacts,
    expand,
    run_sweep,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK

from helpers import make_logistic, store_keys


def _federation(num_writers=6, seed=3, num_classes=8, image_size=6):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=15,
                           num_classes=num_classes, image_size=image_size,
                           classes_per_writer=3, seed=seed)
    return partition_by_writer(ds, seed=seed)


def _registered_pool(model=None, image_size=6, num_classes=8, fed=None):
    """A 2-worker pool holding ``model`` with six clients registered."""
    if fed is None:
        fed = _federation(num_classes=num_classes, image_size=image_size)
    if model is None:
        model = make_logistic(image_size ** 2, num_classes, seed=1)
    pool = WorkerPool(num_workers=2, dimension=model.dimension)
    pool.broadcast_model(model)
    for shard in fed.clients:  # federation shards ARE the datasets
        pool.register_clients(
            pool.worker_of(shard.client_id), {shard.client_id: (shard, 8)}
        )
    return pool, model, [c.client_id for c in fed.clients]


def _virtual_trainer(backend, seed=3):
    fed = VirtualFederation.build(
        12, samples_per_client=10, num_classes=6, image_size=6,
        classes_per_writer=3, seed=seed,
    )
    model = make_mlp(36, 6, hidden=(8,), seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, FABTopK(), timing=timing,
                     learning_rate=0.05, batch_size=4, eval_every=3,
                     seed=seed, backend=backend)


def _assert_same_run(serial, fast, serial_history, fast_history):
    """Records, weights and residuals of two runs are byte-equal."""
    # repr-compare: un-evaluated rounds carry NaN losses and NaN != NaN
    # would fail a plain tuple comparison.
    assert [repr(vars(r)) for r in serial_history.records] == \
        [repr(vars(r)) for r in fast_history.records]
    assert serial.model.get_weights().tobytes() == \
        fast.model.get_weights().tobytes()
    for cs, cf in zip(serial.clients, fast.clients):
        assert cs.residual.tobytes() == cf.residual.tobytes()


def _trainer(backend, seed=3):
    fed = _federation(seed=seed)
    model = make_mlp(36, 8, hidden=(10,), seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, FABTopK(), timing=timing, learning_rate=0.05,
                     batch_size=8, eval_every=3, seed=seed, backend=backend)


def _logistic_trainer(backend, seed=6):
    """A trainer whose model has another dimension than :func:`_trainer`'s."""
    fed = _federation(seed=seed)
    model = make_logistic(36, 8, seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, FABTopK(), timing=timing, learning_rate=0.05,
                     batch_size=8, eval_every=3, seed=seed, backend=backend)


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_round_robin_shard_layout(self):
        pool = WorkerPool(num_workers=3, dimension=4)
        try:
            assert [pool.worker_of(cid) for cid in range(7)] == \
                [0, 1, 2, 0, 1, 2, 0]
        finally:
            pool.close()

    def test_gradients_match_in_process_reference(self):
        fed = _federation()
        model = make_logistic(36, 8, seed=1)
        # Reference copies BEFORE registration pickles the live datasets:
        # both sides then consume identical RNG streams.
        reference = copy.deepcopy(fed)
        pool = WorkerPool(num_workers=2, dimension=model.dimension)
        try:
            pool.broadcast_model(model)
            for shard in fed.clients:  # federation shards ARE the datasets
                pool.register_clients(
                    pool.worker_of(shard.client_id),
                    {shard.client_id: (shard, 8)},
                )
            weights = model.get_weights()
            ids = [c.client_id for c in fed.clients]
            for _ in range(2):  # streams must stay aligned across rounds
                results = pool.compute_gradients(
                    ids, weights, want_batches=True
                )
                for shard, (grad, (x, y)) in zip(reference.clients, results):
                    rx, ry = shard.minibatch(8)
                    np.testing.assert_array_equal(rx, x)
                    np.testing.assert_array_equal(ry, y)
                    np.testing.assert_array_equal(
                        grad, model.gradient(rx, ry)
                    )
            # Batches are only shipped on probe rounds; the steady state
            # returns gradients alone.
            (_, batch), = pool.compute_gradients(ids[:1], weights)
            assert batch is None
        finally:
            pool.close()

    def test_broadcast_weights_reach_workers(self):
        model = make_logistic(4, 3, seed=0)  # 2x2 images below
        pool = WorkerPool(num_workers=2, dimension=model.dimension)
        try:
            pool.broadcast_model(model)
            fed = make_femnist_like(num_writers=2, samples_per_writer=10,
                                    num_classes=3, image_size=2,
                                    classes_per_writer=2, seed=0)
            parts = partition_by_writer(fed, seed=0)
            shard = parts.clients[0]
            pool.register_clients(0, {0: (shard, 4)})
            zeros = np.zeros(model.dimension)
            (grad_zero, batch), = pool.compute_gradients(
                [0], zeros, want_batches=True
            )
            # A view of the shared row, overwritten by the next call.
            grad_zero = grad_zero.copy()
            # Same batch at different broadcast weights must change the
            # gradient: proof the worker reads the shared buffer, not a
            # stale model pickle.
            ones = np.full(model.dimension, 0.5)
            (grad_half, _), = pool.compute_gradients([0], ones)
            model.set_weights(zeros)
            np.testing.assert_array_equal(
                grad_zero, model.gradient(*batch)
            )
            assert not np.array_equal(grad_zero, grad_half)
        finally:
            pool.close()

    def test_worker_error_propagates_and_poisons_pool(self):
        model = make_logistic(4, 2, seed=0)
        pool = WorkerPool(num_workers=1, dimension=model.dimension)
        try:
            pool.broadcast_model(model)
            result = pool.compute_gradients([99], model.get_weights())
            with pytest.raises(RuntimeError, match="KeyError"):
                list(result)  # the reply streams: reading it raises
            # Other workers' queued replies would desync the protocol, so
            # a failed request tears the whole pool down.
            assert not pool.alive
        finally:
            pool.close()

    def test_unread_worker_error_raises_at_the_next_request(self):
        model = make_logistic(4, 2, seed=0)
        pool = WorkerPool(num_workers=1, dimension=model.dimension)
        try:
            pool.broadcast_model(model)
            pool.compute_gradients([99], model.get_weights())  # unread
            with pytest.raises(RuntimeError, match="KeyError"):
                pool.broadcast_model(model)
            assert not pool.alive
        finally:
            pool.close()

    def test_backend_refuses_to_restart_a_dead_pool(self):
        backend = ShardedBackend(jobs=2)
        trainer = _trainer(backend)
        trainer.run(2, k=8)
        backend._pool.close()  # simulate a mid-run pool death
        with pytest.raises(RuntimeError, match="died mid-run"):
            trainer.step(8)
        # ...and the backend stays poisoned afterwards.
        with pytest.raises(RuntimeError, match="close"):
            trainer.step(8)

    def test_close_is_idempotent(self):
        pool = WorkerPool(num_workers=2, dimension=4)
        assert pool.alive
        pool.close()
        assert not pool.alive
        pool.close()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            WorkerPool(num_workers=0, dimension=4)
        with pytest.raises(ValueError):
            WorkerPool(num_workers=1, dimension=0)



# ----------------------------------------------------------------------
# The gradient return buffer
# ----------------------------------------------------------------------
def _segment_names():
    """The named shared-memory segments that exist right now."""
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _assert_unlinked(name):
    with pytest.raises(FileNotFoundError):
        SharedMemory(name=name)


def _no_space(fd, offset, length):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _KillsItsWorker:
    """Dataset stand-in: drawing a minibatch SIGKILLs the serving worker."""

    def minibatch(self, batch_size):
        os.kill(os.getpid(), signal.SIGKILL)


class _FailsToDraw:
    """Dataset stand-in: drawing a minibatch raises in the worker."""

    def minibatch(self, batch_size):
        raise ValueError("this shard cannot draw")


class _WireSpy:
    """Stands in for the parent's end of a worker pipe and keeps the
    pickled bytes of every message it receives."""

    def __init__(self, conn):
        self.conn = conn
        self.received: list[bytes] = []

    def send(self, message):
        self.conn.send(message)

    def recv(self):
        raw = self.conn.recv_bytes()
        self.received.append(raw)
        return pickle.loads(raw)


def _spy_on_pipes(pool):
    """Put a :class:`_WireSpy` on each of ``pool``'s worker pipes."""
    pool._conns[:] = [_WireSpy(conn) for conn in pool._conns]
    return pool._conns


class TestGradientRows:
    def test_empty_request_allocates_nothing(self):
        # A zero-byte SharedMemory cannot exist, so [] must short-circuit.
        pool, model, _ = _registered_pool()
        try:
            assert pool.compute_gradients([], model.get_weights()) == []
            assert pool._grads.segment is None
        finally:
            pool.close()

    def test_duplicate_ids_raise(self):
        pool, model, ids = _registered_pool()
        try:
            with pytest.raises(ValueError, match=rf"duplicated: \[{ids[1]}\]"):
                pool.compute_gradients(
                    [ids[0], ids[1], ids[1]], model.get_weights()
                )
            assert pool.alive  # nothing was sent
        finally:
            pool.close()

    def test_reply_is_a_few_bytes_per_client(self):
        # The suite's mlp_sharded shape: D = 92,662.  A pickled gradient
        # would be 741 KB per client; each client's message is its id
        # and two Nones.
        model = make_mlp(400, 62, hidden=(200,), seed=1)
        assert model.dimension == 92_662
        pool, model, ids = _registered_pool(
            model, image_size=20, num_classes=62
        )
        try:
            spies = _spy_on_pipes(pool)
            weights = model.get_weights()
            for want_batches in (False, True):
                for spy in spies:
                    spy.received.clear()
                result = pool.compute_gradients(ids, weights,
                                                want_batches=want_batches)
                assert len(list(result)) == len(ids)
                for worker, spy in enumerate(spies):
                    # One message per client, in the request's order.
                    messages = [pickle.loads(raw) for raw in spy.received]
                    assert [cid for _, (cid, _, _) in messages] == \
                        [cid for cid in ids if pool.worker_of(cid) == worker]
                    for raw, (status, (_, batch, timing)) in zip(
                        spy.received, messages
                    ):
                        assert status == "ok" and timing is None
                        if want_batches:
                            assert b"numpy" in raw and batch is not None
                        else:
                            assert len(raw) < 64
                            assert b"numpy" not in raw and batch is None
        finally:
            pool.close()

    def test_rows_are_views_of_one_block_and_get_overwritten(self):
        pool, model, ids = _registered_pool()
        try:
            weights = model.get_weights()
            grads = [g for g, _ in pool.compute_gradients(ids, weights)]
            block = grads[0].base
            assert block.shape == (len(ids), model.dimension)
            assert block.flags.c_contiguous
            for slot, grad in enumerate(grads):
                assert grad.base is block
                assert np.shares_memory(grad, block[slot])
            kept = block.copy()
            # Next call, reversed order: the same rows, new contents.
            again = pool.compute_gradients(ids[::-1], weights)
            assert again[0][0].base is block
            assert not np.array_equal(block, kept)
            np.testing.assert_array_equal(grads[0], again[0][0])
        finally:
            pool.close()

    def test_segment_regrows_and_unlinks_the_old_one(self):
        pool, model, ids = _registered_pool()
        try:
            weights = model.get_weights()
            list(pool.compute_gradients(ids[:2], weights))
            first = pool._grads.segment.name
            assert len(pool._grads.rows) == 2
            list(pool.compute_gradients(ids[:1], weights))  # no regrow
            assert pool._grads.segment.name == first
            (small, _), _ = pool.compute_gradients(ids[:2], weights)
            results = list(pool.compute_gradients(ids, weights))
            assert pool._grads.segment.name != first
            assert len(pool._grads.rows) == len(ids)  # max(n, 2 * capacity)
            _assert_unlinked(first)
            # Both workers followed the new name: every row was written.
            assert all(np.any(grad) for grad, _ in results)
            # A view of the retired block is stale, never unmapped.
            assert np.isfinite(small).all()
        finally:
            pool.close()

    def test_segment_is_gone_after_close_and_collection(self):
        pool, model, ids = _registered_pool()
        list(pool.compute_gradients(ids, model.get_weights()))
        name = pool._grads.segment.name
        pool.close()
        _assert_unlinked(name)

        pool, model, ids = _registered_pool()
        list(pool.compute_gradients(ids, model.get_weights()))
        name = pool._grads.segment.name
        del pool
        gc.collect()
        _assert_unlinked(name)

    def test_exhausted_shared_memory_mid_run_names_the_bytes(
        self, monkeypatch
    ):
        before = _segment_names()
        pool, model, ids = _registered_pool()
        try:
            weights = model.get_weights()
            list(pool.compute_gradients(ids[:1], weights))
            monkeypatch.setattr(pool_module.os, "posix_fallocate", _no_space)
            nbytes = len(ids) * model.dimension * 8
            with pytest.raises(
                RuntimeError, match=f"{nbytes:,} bytes of shared memory"
            ):
                pool.compute_gradients(ids, weights)
            assert not pool.alive
        finally:
            pool.close()
        assert _segment_names() == before

    def test_killed_worker_raises_and_leaves_no_segment(self):
        before = _segment_names()
        pool, model, ids = _registered_pool()
        try:
            weights = model.get_weights()
            list(pool.compute_gradients(ids, weights))
            victim = 2 * len(ids)  # even: lives on worker 0
            pool.register_clients(0, {victim: (_KillsItsWorker(), 8)})
            result = pool.compute_gradients(ids + [victim], weights)
            result[0]  # the clients ahead of the victim were reported
            with pytest.raises(RuntimeError, match="sharded worker 0 died"):
                list(result)
            assert not pool.alive
        finally:
            pool.close()
        assert _segment_names() == before

    def test_worker_killed_between_requests_raises(self):
        pool, model, ids = _registered_pool()
        try:
            weights = model.get_weights()
            list(pool.compute_gradients(ids, weights))
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join(timeout=10)
            assert not pool._procs[1].is_alive()
            with pytest.raises(RuntimeError, match="sharded worker 1 died"):
                list(pool.compute_gradients(ids, weights))
            assert not pool.alive
        finally:
            pool.close()

    def test_shm_counter_is_the_shared_memory_share(self):
        from repro.obs import Telemetry

        pool, model, ids = _registered_pool()
        try:
            pool.telemetry = Telemetry()
            results = pool.compute_gradients(
                ids, model.get_weights(), want_batches=True
            )
            counters = pool.telemetry.counters
            shm = sum(grad.nbytes for grad, _ in results)
            pipe = sum(x.nbytes + y.nbytes for _, (x, y) in results)
            assert counters["pool.shm_bytes_back"] == shm
            assert counters["pool.ipc_bytes_back"] == shm + pipe
        finally:
            pool.close()


# ----------------------------------------------------------------------
# The streamed reply: a lazily filled, re-iterable result
# ----------------------------------------------------------------------
def _registered_reference():
    """A registered pool and an in-process twin of its federation whose
    minibatch streams are still at their start."""
    fed = _federation()
    reference = copy.deepcopy(fed)
    pool, model, _ = _registered_pool(fed=fed)
    return pool, model, reference.clients


class TestGradientStream:
    def test_result_is_a_lazily_filled_reiterable_sequence(self):
        pool, model, shards = _registered_reference()
        try:
            weights = model.get_weights()
            result = pool.compute_gradients(
                [shard.client_id for shard in shards], weights,
                want_batches=True,
            )
            assert isinstance(result, pool_module.GradientStream)
            assert len(result) == len(shards)
            last = result[-1]  # out of order: the earlier reports wait
            first = list(result)
            second = list(result)
            for i, shard in enumerate(shards):
                grad, (x, y) = result[i]
                # Indexing and every pass return the same objects.
                assert grad is first[i][0] is second[i][0]
                assert x is first[i][1][0]
                rx, ry = shard.minibatch(8)
                np.testing.assert_array_equal(rx, x)
                np.testing.assert_array_equal(ry, y)
                assert grad.tobytes() == model.gradient(rx, ry).tobytes()
            assert last[0] is first[-1][0]
            with pytest.raises(IndexError):
                result[len(shards)]
            with pytest.raises(TypeError):
                result[0:2]
        finally:
            pool.close()

    def test_worker_error_mid_stream_names_it_and_closes_the_pool(self):
        before = _segment_names()
        pool, model, ids = _registered_pool()
        try:
            bad = 2 * len(ids) + 1  # odd: lives on worker 1
            pool.register_clients(1, {bad: (_FailsToDraw(), 8)})
            result = pool.compute_gradients(ids + [bad],
                                            model.get_weights())
            assert np.any(result[0][0])  # reports ahead of it land
            with pytest.raises(RuntimeError,
                               match="(?s)sharded worker 1 failed.*ValueError"):
                list(result)
            assert not pool.alive
            with pytest.raises(RuntimeError, match="closed"):
                result[len(ids)]
        finally:
            pool.close()
        assert _segment_names() == before

    def test_unread_results_are_drained_before_the_next_request(self):
        pool, model, shards = _registered_reference()
        try:
            ids = [shard.client_id for shard in shards]
            rng = np.random.default_rng(0)
            weights = [rng.normal(size=model.dimension) for _ in range(3)]
            pool.compute_gradients(ids, weights[0])  # never read
            partly = pool.compute_gradients(ids, weights[1])
            partly_first = partly[0][0].copy()
            # Any request drains first, not only a gradient request: a
            # registration's "ok" must not be read off a gradient report.
            spare = 2 * len(ids)  # never requested
            pool.register_clients(pool.worker_of(spare),
                                  {spare: (copy.deepcopy(shards[0]), 8)})
            last = list(pool.compute_gradients(ids, weights[2],
                                               want_batches=True))
            draws = [[shard.minibatch(8) for _ in range(3)]
                     for shard in shards]
            model.set_weights(weights[1])
            assert partly_first.tobytes() == \
                model.gradient(*draws[0][1]).tobytes()
            model.set_weights(weights[2])
            for (grad, (x, y)), client_draws in zip(last, draws):
                rx, ry = client_draws[2]
                assert x.tobytes() == rx.tobytes()
                assert y.tobytes() == ry.tobytes()
                assert grad.tobytes() == model.gradient(rx, ry).tobytes()
        finally:
            pool.close()

    def test_closing_with_an_unread_result_stops_every_worker(self):
        before = _segment_names()
        pool, model, ids = _registered_pool()
        result = pool.compute_gradients(ids, model.get_weights(),
                                        want_batches=True)
        pool.close()
        # Each worker left its loop on its own, none was terminated.
        assert [proc.exitcode for proc in pool._procs] == [0, 0]
        assert _segment_names() == before
        with pytest.raises(RuntimeError, match="closed"):
            list(result)

    def test_read_once_then_local_steps_matches_serial(self):
        # The benchmark's tracer sums the result's bytes before
        # local_steps folds it; a one-shot iterator would leave the
        # round empty.
        backend = ShardedBackend(jobs=2)
        compute = backend.compute_gradients
        sizes = []

        def read_first(model, participants, want_batches=False):
            result = compute(model, participants, want_batches)
            sizes.append(sum(grad.nbytes for grad, _ in result))
            assert len(result) == len(participants)
            grads = [grad for grad, _ in result]
            assert all(result[i][0] is grads[i] for i in range(len(grads)))
            return result

        backend.compute_gradients = read_first
        fast = _trainer(backend)
        slow = _trainer("serial")
        try:
            hf = fast.run(4, k=8)
            hs = slow.run(4, k=8)
            assert isinstance(backend._pool, WorkerPool)
        finally:
            fast.close()
        assert sizes == [len(fast.clients) * fast.model.dimension * 8] * 4
        assert [repr(vars(r)) for r in hs.records] == \
            [repr(vars(r)) for r in hf.records]
        assert fast.model.get_weights().tobytes() == \
            slow.model.get_weights().tobytes()
        for cs, cf in zip(slow.clients, fast.clients):
            assert cs.residual.tobytes() == cf.residual.tobytes()


# ----------------------------------------------------------------------
# Worker-side tracing over the pool protocol
# ----------------------------------------------------------------------
class TestWorkerTracing:
    def test_untraced_request_ships_no_events(self):
        # The raising-Null proof extends across the pipe: with telemetry
        # disabled the trace flag is False and the worker does zero
        # telemetry work — every message's timing slot is None, the
        # last one included.
        pool, model, ids = _registered_pool()
        try:
            spies = _spy_on_pipes(pool)
            list(pool.compute_gradients(ids, model.get_weights()))
            messages = [pickle.loads(raw)
                        for spy in spies for raw in spy.received]
            assert sorted(cid for _, (cid, _, _) in messages) == sorted(ids)
            for status, (_, batch, timing) in messages:
                assert status == "ok" and batch is None and timing is None
        finally:
            pool.close()

    def test_traced_request_ships_buffered_spans(self, tmp_path):
        from repro.obs import JsonlSink, Telemetry

        pool, model, ids = _registered_pool()
        trace = tmp_path / "trace.jsonl"
        try:
            pool.telemetry = Telemetry(sink=JsonlSink(trace))
            spy = _spy_on_pipes(pool)[1]
            worker_ids = [cid for cid in ids if pool.worker_of(cid) == 1]
            for _ in range(2):
                spy.received.clear()
                list(pool.compute_gradients(worker_ids,
                                            model.get_weights()))
                messages = [pickle.loads(raw)[1] for raw in spy.received]
                assert len(messages) == len(worker_ids)
                # The timing rides the request's last message only, as
                # two plain numbers: seconds and datasets regenerated.
                assert all(timing is None for _, _, timing in messages[:-1])
                seconds, regenerated = messages[-1][2]
                assert type(seconds) is float and seconds >= 0.0
                assert regenerated == 0  # real arrays, no specs
        finally:
            pool.close()
            pool.telemetry.close()
        # The parent emits each request's timing as the worker's span.
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = [event for event in events if event["type"] == "span"]
        assert spans == [{
            "type": "span", "name": "worker.gradients", "process": "worker-1",
            "seconds": span["seconds"], "clients": len(worker_ids),
            "regenerated": 0, "round": 0,
        } for span in spans]
        assert len(spans) == 2

    def test_merged_stream_is_deterministic(self, tmp_path):
        # Two identical traced sharded runs must produce byte-identical
        # merged JSONL once wall-clock fields are stripped.
        def traced_run(path):
            from repro.obs import JsonlSink, Telemetry

            telemetry = Telemetry(sink=JsonlSink(path))
            backend = ShardedBackend(jobs=2)
            trainer = _trainer(backend)
            trainer.engine.telemetry = telemetry
            backend.telemetry = telemetry
            try:
                trainer.run(4, k=8)
            finally:
                trainer.close()
                telemetry.close()

        def normalize(line):
            event = json.loads(line)
            event.pop("seconds", None)
            event.pop("wall_seconds", None)
            if "phases" in event:
                event["phases"] = sorted(event["phases"])
            if event.get("type") == "counters":
                event["counters"] = {
                    name: value
                    for name, value in event["counters"].items()
                    if not name.endswith("_seconds")
                }
            return json.dumps(event, sort_keys=True)

        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            traced_run(path)
        streams = [
            [normalize(line) for line in path.read_text().splitlines()]
            for path in paths
        ]
        assert streams[0] == streams[1]

        events = [json.loads(line)
                  for line in paths[0].read_text().splitlines()]
        worker_spans = [e for e in events
                        if e.get("process", "").startswith("worker-")]
        assert worker_spans, "worker spans must reach the parent's stream"
        # One span per worker and round, in (round, worker) order.
        keys = [(e["round"], e["process"]) for e in worker_spans]
        assert keys == sorted(set(keys))
        for span in worker_spans:
            assert span["name"] == "worker.gradients"
            assert span["round"] >= 1
            assert span["clients"] > 0 and span["regenerated"] == 0
            assert "seq" not in span


# ----------------------------------------------------------------------
# ShardedBackend bookkeeping (equivalence is in test_engine.py)
# ----------------------------------------------------------------------
class TestShardedBackend:
    def test_single_job_runs_in_process(self):
        backend = ShardedBackend(jobs=1)
        trainer = _trainer(backend)
        trainer.run(3, k=8)
        assert backend._pool is None  # serial fallback, no processes
        reference = _trainer("serial")
        reference.run(3, k=8)
        np.testing.assert_array_equal(
            trainer.model.get_weights(), reference.model.get_weights()
        )

    def test_default_jobs_follow_cpu_count(self):
        assert ShardedBackend().jobs == default_worker_count()
        assert ShardedBackend(jobs=0).jobs == default_worker_count()
        with pytest.raises(ValueError):
            ShardedBackend(jobs=-2)

    def test_backend_reuse_across_sequential_trainers(self):
        # The figure-driver pattern: one backend, several trainers back
        # to back, each with a fresh federation; each new model replaces
        # the workers' replica and clients, which keeps every trainer
        # bit-identical to its serial twin.
        backend = ShardedBackend(jobs=2)
        try:
            for seed in (3, 4):
                fast = _trainer(backend, seed=seed)
                slow = _trainer("serial", seed=seed)
                fast.run(4, k=8)
                slow.run(4, k=8)
                np.testing.assert_array_equal(
                    fast.model.get_weights(), slow.model.get_weights()
                )
        finally:
            backend.close()

    def test_finished_trainers_are_dropped(self):
        # A driver runs many trainers on one backend; a finished
        # trainer's clients are released, not accumulated.
        backend = ShardedBackend(jobs=2)
        try:
            first = _trainer(backend, seed=3)
            first.run(2, k=8)
            assert {cid: ref() for cid, ref in backend._registered.items()} \
                == {client.client_id: client for client in first.clients}
            del first
            gc.collect()
            second = _trainer(backend, seed=4)
            second.run(2, k=8)
            assert {cid: ref() for cid, ref in backend._registered.items()} \
                == {client.client_id: client for client in second.clients}
            assert backend._model() is second.model
        finally:
            backend.close()

    def test_pool_restarts_on_dimension_change(self):
        backend = ShardedBackend(jobs=2)
        try:
            trainer = _trainer(backend)
            trainer.run(2, k=8)
            first_pool = backend._pool
            assert first_pool is not None and first_pool.alive
            first_segment = first_pool._grads.segment.name

            other = _logistic_trainer(backend)  # a different dimension
            other.run(2, k=8)
            assert backend._pool is not first_pool
            assert not first_pool.alive
            _assert_unlinked(first_segment)
        finally:
            backend.close()

    def test_use_after_close_raises(self):
        backend = ShardedBackend(jobs=2)
        trainer = _trainer(backend)
        trainer.run(2, k=8)
        backend.close()
        with pytest.raises(RuntimeError, match="close"):
            trainer.step(8)

    def test_every_entry_point_refuses_after_close(self):
        # The ROADMAP documents "never reuse after close()"; the whole
        # ExecutionBackend surface must enforce it (not just the paths
        # that happen to touch the pool), so misuse is a loud
        # RuntimeError instead of silently diverging histories.
        backend = ShardedBackend(jobs=2)
        trainer = _trainer(backend)
        trainer.run(1, k=8)
        backend.close()
        from repro.sparsify.base import SelectionResult
        from repro.sparsify.fab_topk import FABTopK

        with pytest.raises(RuntimeError, match="fresh backend"):
            backend.compute_gradients(trainer.model, trainer.clients)
        with pytest.raises(RuntimeError, match="fresh backend"):
            backend.local_steps(trainer.model, trainer.clients, 8, FABTopK())
        selection = SelectionResult(np.array([0]), [], trainer.model.dimension)
        with pytest.raises(RuntimeError, match="fresh backend"):
            backend.reset_residuals(trainer.clients, selection)
        backend.close()  # close itself stays idempotent


    def test_spawn_start_method_matches_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "preferred_start_method",
                            lambda: "spawn")
        backend = ShardedBackend(jobs=2)
        fast = _trainer(backend)
        slow = _trainer("serial")
        try:
            hf = fast.run(3, k=8)
            hs = slow.run(3, k=8)
            assert backend._pool is not None  # a real spawned pool ran
        finally:
            fast.close()
        assert [repr(vars(r)) for r in hs.records] == \
            [repr(vars(r)) for r in hf.records]
        assert fast.model.get_weights().tobytes() == \
            slow.model.get_weights().tobytes()
        for cs, cf in zip(slow.clients, fast.clients):
            assert cs.residual.tobytes() == cf.residual.tobytes()

    def test_exhausted_shared_memory_up_front_falls_back_to_serial(
        self, monkeypatch
    ):
        # No gradient was served yet, so every minibatch stream is still
        # at its start in the parent: degrade, warn, stay byte-equal.
        before = _segment_names()
        monkeypatch.setattr(pool_module.os, "posix_fallocate", _no_space)
        backend = ShardedBackend(jobs=2)
        fast = _trainer(backend)
        slow = _trainer("serial")
        try:
            with pytest.warns(RuntimeWarning,
                              match="bytes of shared memory.*serial"):
                fast.run(3, k=8)
            assert backend._pool is None and backend.jobs == 1
        finally:
            fast.close()
        slow.run(3, k=8)
        assert fast.model.get_weights().tobytes() == \
            slow.model.get_weights().tobytes()
        assert _segment_names() == before

    def test_sharded_run_leaves_a_clean_stderr(self):
        # The resource tracker reports leaked or doubly unlinked segments
        # on stderr at interpreter exit; forked workers share the
        # parent's tracker, so there is nothing to report.
        script = (
            "import sys; sys.path.insert(0, 'tests')\n"
            "from test_parallel import _trainer\n"
            "from repro.parallel.sharded import ShardedBackend\n"
            "trainer = _trainer(ShardedBackend(jobs=2))\n"
            "trainer.run(3, k=8)\n"
            "trainer.close()\n"
            "print('done')\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0
        assert done.stdout == "done\n"
        assert done.stderr == ""


# ----------------------------------------------------------------------
# One backend, trainers taking turns
# ----------------------------------------------------------------------
def _spy_on_requests(monkeypatch):
    """Record every model, registration and gradient request the pool
    is sent from now on."""
    sent = []
    for name in ("broadcast_model", "register_clients", "compute_gradients"):
        original = getattr(WorkerPool, name)

        def spy(pool, *args, _name=name, _original=original, **kwargs):
            sent.append(_name)
            return _original(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, name, spy)
    return sent


class TestTrainersTakeTurns:
    """The workers hold one trainer's model and clients at a time."""

    def test_equal_virtual_specs_back_to_back_match_serial(self):
        # What `scenario --population` does: fixed k, then learned k,
        # over equal specs on one backend.  The second trainer's workers
        # regenerate its clients afresh instead of continuing the first
        # trainer's minibatch streams.
        backend = ShardedBackend(jobs=2)
        trainers = []
        try:
            for _ in range(2):
                fast = _virtual_trainer(backend)
                serial = _virtual_trainer("serial")
                trainers.append(fast)  # the first stays alive
                assert fast.engine.federation.spec == \
                    trainers[0].engine.federation.spec
                _assert_same_run(serial, fast, serial.run(4, k=10),
                                 fast.run(4, k=10))
        finally:
            backend.close()

    def test_replaced_trainer_raises(self, monkeypatch):
        backend = ShardedBackend(jobs=2)
        try:
            first = _trainer(backend, seed=3)
            current = _trainer(backend, seed=4)
            twin = _trainer("serial", seed=4)
            first.run(2, k=8)
            current.run(2, k=8)
            sent = _spy_on_requests(monkeypatch)
            # Its worker-side streams went with the replica; re-sending
            # its never-drawn parent datasets would replay them.
            with pytest.raises(RuntimeError, match="later trainer"):
                first.step(8)
            assert sent == []  # no worker drew a minibatch for it
            # The current trainer keeps running, still byte-equal.
            current.run(2, k=8)
            twin.run(4, k=8)
            assert "compute_gradients" in sent
            _assert_same_run(twin, current, twin.history, current.history)
        finally:
            backend.close()

    def test_replaced_trainer_raises_after_a_dimension_change(
        self, monkeypatch
    ):
        backend = ShardedBackend(jobs=2)
        try:
            first = _trainer(backend)
            first.run(2, k=8)
            current = _logistic_trainer(backend)
            twin = _logistic_trainer("serial")
            current.run(2, k=8)
            pool = backend._pool
            sent = _spy_on_requests(monkeypatch)
            with pytest.raises(RuntimeError, match="later trainer"):
                first.step(8)
            assert sent == []
            # No restart back to the first trainer's dimension.
            assert backend._pool is pool and pool.alive
            current.run(2, k=8)
            twin.run(4, k=8)
            _assert_same_run(twin, current, twin.history, current.history)
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Virtual federations across the pool
# ----------------------------------------------------------------------
class TestVirtualSharding:
    """Virtual clients ship as specs; steady-state IPC is ids/gradients."""

    def test_registration_ships_specs_not_arrays(self, monkeypatch):
        registered = []
        original = WorkerPool.register_clients

        def spy(pool, worker, clients):
            registered.append(dict(clients))
            return original(pool, worker, clients)

        monkeypatch.setattr(WorkerPool, "register_clients", spy)
        backend = ShardedBackend(jobs=2)
        trainer = _virtual_trainer(backend)
        try:
            trainer.run(2, k=10)
        finally:
            trainer.close()
        assert registered  # the sharded path actually ran
        shards = [
            shard for call in registered for shard, _batch in call.values()
        ]
        assert len(shards) == 12  # each client registered exactly once
        for shard in shards:
            # The payload crossing the pipe is the federation's tiny
            # value object, never sample arrays — so a client's *first*
            # participation costs the same IPC as steady state.
            assert isinstance(shard, VirtualSpec)
            assert len(pickle.dumps(shard)) < 512

    def test_steady_state_ipc_is_ids_out_gradients_back(self, monkeypatch):
        calls = []
        original = WorkerPool.register_clients

        def spy(pool, worker, clients):
            calls.append(clients)
            return original(pool, worker, clients)

        monkeypatch.setattr(WorkerPool, "register_clients", spy)
        backend = ShardedBackend(jobs=2)
        trainer = _virtual_trainer(backend)
        try:
            trainer.step(10)
            after_first = len(calls)
            trainer.step(10)
            trainer.step(10)
            # Registration happened on first participation only; the
            # recurring round-trip is client ids out, gradients (plus
            # probe batches when drawn) back.
            assert len(calls) == after_first
        finally:
            trainer.close()

    def test_virtual_round_matches_serial_bit_for_bit(self):
        backend = ShardedBackend(jobs=2)
        fast = _virtual_trainer(backend)
        serial = _virtual_trainer("serial")
        try:
            hf = fast.run(4, k=10)
            hs = serial.run(4, k=10)
        finally:
            fast.close()
        # repr-compare: un-evaluated rounds carry NaN losses and
        # NaN != NaN would fail a plain tuple comparison.
        assert [repr(vars(r)) for r in hs.records] == \
            [repr(vars(r)) for r in hf.records]
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)


# ----------------------------------------------------------------------
# ResultsStore
# ----------------------------------------------------------------------
class TestResultsStore:
    def test_key_ignores_field_order_but_not_values(self):
        a = content_key({"figure": "fig4", "seed": 0})
        b = content_key({"seed": 0, "figure": "fig4"})
        c = content_key({"figure": "fig4", "seed": 1})
        assert a == b
        assert a != c
        assert len(a) == 64 and int(a, 16) >= 0

    def test_canonical_json_is_deterministic(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_roundtrip_and_missing(self, tmp_path):
        store = ResultsStore(tmp_path / "cache")
        key = content_key({"x": 1})
        assert store.load(key) is None
        assert not store.path_for(key).exists()
        assert store_keys(store) == []
        payload = {"artifacts": {"fig": {"series": []}}, "seconds": 1.5}
        path = store.store(key, payload)
        assert path == store.path_for(key) and path.exists()
        assert store.load(key) == payload
        assert store_keys(store) == [key]

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        key = content_key({"x": 2})
        store.store(key, {"ok": True})
        store.path_for(key).write_text('{"truncated": ')
        assert store.load(key) is None

    def test_config_key_covers_backend_and_seed(self):
        base = scaled_config("smoke")

        def key(config):
            return content_key({"figure": "fig4", "config": config.to_dict()})

        assert key(base) == key(base.with_overrides())
        assert key(base) != key(base.with_overrides(seed=1))
        assert key(base) != key(base.with_overrides(backend="vectorized"))


# ----------------------------------------------------------------------
# ExperimentConfig serialization (sweep dispatch format)
# ----------------------------------------------------------------------
class TestConfigSerialization:
    def test_dict_roundtrip_through_json(self):
        config = scaled_config("bench").with_overrides(
            backend="sharded", jobs=2, seed=7, hidden=(16, 8)
        )
        rebuilt = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config
        assert rebuilt.hidden == (16, 8)

    def test_from_dict_validates(self):
        data = scaled_config("smoke").to_dict()
        data["backend"] = "bogus"
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig.from_dict(data)


# ----------------------------------------------------------------------
# Sweep orchestrator
# ----------------------------------------------------------------------
class TestSweep:
    def test_expand_is_the_full_grid(self):
        spec = SweepSpec(figures=("fig1", "fig6"), scales=("smoke", "bench"),
                         seeds=(0, 1), backends=("serial", "vectorized"),
                         rounds=9)
        units = expand(spec)
        assert len(units) == 16
        assert len({unit.key() for unit in units}) == 16
        assert len({unit.run_id for unit in units}) == 16
        assert all(unit.config.num_rounds == 9 for unit in units)

    def test_sharded_unit_differs_from_serial_only_in_backend(self):
        spec = SweepSpec(figures=("fig1",), scales=("smoke",),
                         backends=("serial", "sharded"))
        serial, sharded = expand(spec)
        assert sharded.config.backend == "sharded"
        assert sharded.config == serial.config.with_overrides(
            backend="sharded"
        )

    def test_spec_validates_axes(self):
        with pytest.raises(ValueError, match="figure"):
            SweepSpec(figures=("fig99",))
        with pytest.raises(ValueError, match="scale"):
            SweepSpec(scales=("huge",))
        with pytest.raises(ValueError, match="backend"):
            SweepSpec(backends=("gpu",))

    def test_collect_artifacts_rejects_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            collect_artifacts("fig99", scaled_config("smoke"))

    def test_run_sweep_caches_and_reexports(self, tmp_path):
        spec = SweepSpec(figures=("fig6",), scales=("smoke",), rounds=4)
        cache = tmp_path / "cache"
        out = tmp_path / "out"
        cold = run_sweep(spec, cache_dir=cache, out=out, jobs=1)
        assert (cold.computed, cold.cached) == (1, 0)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        artifact = out / "fig6_smoke_seed0_serial" / "fig6_k_traces.json"
        assert artifact.exists()

        artifact.unlink()
        warm = run_sweep(spec, cache_dir=cache, out=out, jobs=1)
        assert (warm.computed, warm.cached) == (0, 1)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert artifact.exists()  # re-exported from the store

        forced = run_sweep(spec, cache_dir=cache, jobs=1, force=True)
        assert (forced.computed, forced.cached) == (1, 0)
        # force skips the load entirely: neither a hit nor a miss.
        assert (forced.cache_hits, forced.cache_misses) == (0, 0)

    def test_telemetry_never_forks_the_cache(self, tmp_path):
        spec = SweepSpec(figures=("fig6",), scales=("smoke",), rounds=3)
        traced = SweepSpec(figures=("fig6",), scales=("smoke",), rounds=3,
                           telemetry=str(tmp_path / "trace.jsonl"))
        (plain_unit,) = expand(spec)
        (traced_unit,) = expand(traced)
        assert traced_unit.config.telemetry == str(tmp_path / "trace.jsonl")
        assert plain_unit.key() == traced_unit.key()

        cache = tmp_path / "cache"
        cold = run_sweep(spec, cache_dir=cache, jobs=1)
        assert (cold.computed, cold.cached) == (1, 0)
        # A traced re-run of the same grid hits the untraced run's cache.
        warm = run_sweep(traced, cache_dir=cache, jobs=1)
        assert (warm.computed, warm.cached) == (0, 1)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)

    def test_warm_smoke_sweep_computes_nothing(self, tmp_path):
        # The full smoke grid over the sweep pool, then a re-run served
        # entirely from the content-addressed results cache.
        spec = SweepSpec(scales=("smoke",))
        cold = run_sweep(spec, cache_dir=tmp_path, jobs=2)
        assert cold.computed == 8
        warm = run_sweep(spec, cache_dir=tmp_path, jobs=2)
        assert (warm.cache_hits, warm.cache_misses, warm.computed) == (
            8, 0, 0
        )

    def test_run_sweep_pool_matches_inline(self, tmp_path):
        spec = SweepSpec(figures=("fig1", "fig6"), scales=("smoke",),
                         rounds=3)
        inline = run_sweep(spec, cache_dir=tmp_path / "inline", jobs=1)
        pooled = run_sweep(spec, cache_dir=tmp_path / "pooled", jobs=2)
        assert inline.computed == pooled.computed == 2
        inline_store = ResultsStore(tmp_path / "inline")
        pooled_store = ResultsStore(tmp_path / "pooled")
        assert store_keys(inline_store) == store_keys(pooled_store)
        for key in store_keys(inline_store):
            assert (
                inline_store.load(key)["artifacts"]
                == pooled_store.load(key)["artifacts"]
            )

    def test_sweep_figures_match_cli_figures(self):
        from repro.cli import FIGURES

        assert SWEEP_FIGURES == FIGURES
