"""System-level invariants of the sparse-gradient FL protocol.

These tests check the relationships the design guarantees *across*
modules: degenerate-k equivalences, conservation of gradient mass between
update and residual, synchronization, and edge-case robustness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.engine import RoundEngine
from repro.fl.trainer import FLTrainer
from repro.simulation.timing import TimingModel
from repro.sparsify.base import ClientUpload, SparseVector
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.unidirectional import UnidirectionalTopK
from repro.fl.server import Server
from repro.sparsify.base import SelectionResult
from repro.sparsify.topk import top_k_indices

from helpers import make_gaussian_blobs, make_logistic, partition_iid, to_dense
from test_reference_implementations import record_bytes, reference_send_all_step


def make_setup(seed=0, num_clients=3):
    ds = make_gaussian_blobs(num_samples=240, num_classes=4, feature_dim=10,
                             separation=4.0, seed=seed)
    fed = partition_iid(ds, num_clients=num_clients, seed=seed)
    model = make_logistic(10, 4, seed=seed)
    return model, fed


class TestDegenerateK:
    """At k = D every client uploads its whole residual and the downlink
    is the full weighted mean: Algorithm 1 is always-send-all, exactly."""

    ROUNDS = 10

    def _k_equals_d_run(self, sparsifier):
        model, fed = make_setup(seed=1)
        trainer = FLTrainer(model, fed, sparsifier, learning_rate=0.05,
                            batch_size=16, seed=1)
        trainer.run(self.ROUNDS, k=model.dimension)
        return model.get_weights(), [record_bytes(r) for r in trainer.history]

    def test_k_equals_d_run_matches_dense_reference(self):
        model, fed = make_setup(seed=1)
        # FLTrainer's default timing: no communication charge.
        engine = RoundEngine(model, fed, None,
                             TimingModel(model.dimension, comm_time=0.0),
                             learning_rate=0.05, batch_size=16, seed=1)
        for _ in range(self.ROUNDS):
            reference_send_all_step(engine)
        weights, rows = self._k_equals_d_run(FABTopK())
        assert weights.tobytes() == model.get_weights().tobytes()
        assert rows == [record_bytes(r) for r in engine.history]

    def test_k_equals_d_schemes_agree_over_a_run(self):
        # All top-k schemes degenerate to the same dense run at k = D.
        fab_weights, fab_rows = self._k_equals_d_run(FABTopK())
        for sparsifier in (FUBTopK(), UnidirectionalTopK()):
            weights, rows = self._k_equals_d_run(sparsifier)
            assert weights.tobytes() == fab_weights.tobytes(), sparsifier.name
            assert rows == fab_rows, sparsifier.name

    def test_k_equals_one_still_progresses(self):
        model, fed = make_setup(seed=2)
        trainer = FLTrainer(model, fed, FABTopK(), learning_rate=0.1,
                            batch_size=16, seed=2)
        initial = trainer.global_loss()
        trainer.run(300, k=1)
        assert trainer.history.final_loss < initial


class TestMassConservation:
    def test_update_plus_residual_equals_gradient_sum(self):
        # Round 1 with equal client weights: for each client, the uploaded
        # part that entered b plus what remains in the residual must
        # reconstruct that client's full gradient.
        model, fed = make_setup(seed=3, num_clients=2)
        trainer = FLTrainer(model, fed, FABTopK(), learning_rate=0.05,
                            batch_size=10_000,  # full-shard batches
                            seed=3)
        w0 = model.get_weights()
        # Compute each client's expected gradient at w0 beforehand.
        expected = []
        for client in trainer.clients:
            grad = model.gradient(client.dataset.x, client.dataset.y)
            expected.append(grad)
        trainer.step(k=5)
        update = (w0 - model.get_weights()) / trainer.learning_rate
        counts = np.array([c.sample_count for c in trainer.clients], float)
        share = counts / counts.sum()
        # Transmitted part of client i = gradient_i − residual_i (what
        # left the accumulator).  Its weighted sum must equal the update
        # that was applied to the synchronized weights — no gradient mass
        # appears or disappears in the server round-trip.
        transmitted_sum = sum(
            s * (e - c.residual)
            for s, c, e in zip(share, trainer.clients, expected)
        )
        np.testing.assert_allclose(transmitted_sum, update, atol=1e-10)


class TestSynchronization:
    def test_weight_changes_only_at_selected_indices(self):
        model, fed = make_setup(seed=4)
        trainer = FLTrainer(model, fed, FABTopK(), learning_rate=0.05,
                            batch_size=16, seed=4)
        for k in (3, 7, 12):
            w_before = model.get_weights()
            record = trainer.step(k=k)
            w_after = model.get_weights()
            changed = np.flatnonzero(w_before != w_after)
            assert changed.size <= record.downlink_elements

    def test_uplink_never_exceeds_k(self):
        model, fed = make_setup(seed=5)
        trainer = FLTrainer(model, fed, FABTopK(), learning_rate=0.05,
                            batch_size=16, seed=5)
        for _ in range(5):
            record = trainer.step(k=9)
            assert record.uplink_elements <= 9
            assert record.downlink_elements <= 9


class TestServerAggregationProperty:
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_reference(self, seed, n_clients):
        rng = np.random.default_rng(seed)
        d = 25
        server = Server(d)
        uploads = []
        dense_sum = np.zeros(d)
        total_weight = 0.0
        for cid in range(n_clients):
            dense = rng.standard_normal(d)
            k_i = int(rng.integers(1, d + 1))
            idx = top_k_indices(dense, k_i)
            weight = int(rng.integers(1, 100))
            uploads.append(
                ClientUpload(cid, SparseVector.from_dense(dense, idx), weight)
            )
            masked = np.zeros(d)
            masked[idx] = dense[idx]
            dense_sum += weight * masked
            total_weight += weight
        selection = SelectionResult(np.arange(d), uploads, d)
        aggregated = to_dense(server.aggregate(uploads, selection).payload)
        np.testing.assert_allclose(aggregated, dense_sum / total_weight,
                                   atol=1e-12)
