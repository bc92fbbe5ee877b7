"""Tests for the FL core: client, server, trainer (Algorithm 1), baselines."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.partition import ClientDataset, partition_by_writer
from repro.fl.backends import ExecutionBackend
from repro.fl.client import Client
from repro.fl.engine import _as_schedule
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.server import Server
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.online.adaptive_trainer import LearnedK
from repro.simulation.heterogeneous import (
    ClientProfile, HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.base import ClientUpload, SelectionResult, SparseVector
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.periodic import PeriodicK

from helpers import make_gaussian_blobs, make_logistic, partition_iid, to_dense


def local_step(client, model, k):
    """One client's Algorithm-1 local step, as the engine runs it."""
    client.accumulate_gradient(model.gradient(*client.draw_minibatch()))
    return client.select_upload(k, FABTopK())


@pytest.fixture
def federation():
    ds = make_gaussian_blobs(num_samples=300, num_classes=4, feature_dim=10,
                             separation=4.0, seed=0)
    return partition_iid(ds, num_clients=5, seed=0)


@pytest.fixture
def model(federation):
    return make_logistic(10, 4, seed=0)


class TestClient:
    def test_residual_accumulates(self, federation, model):
        client = Client(federation.clients[0], model.dimension, batch_size=8)
        assert np.all(client.residual == 0)
        local_step(client, model, k=5)
        first = client.residual.copy()
        assert np.abs(first).sum() > 0
        local_step(client, model, k=5)
        assert np.abs(client.residual).sum() != pytest.approx(
            np.abs(first).sum()
        )

    def test_upload_is_topk_of_residual(self, federation, model):
        client = Client(federation.clients[0], model.dimension, batch_size=8)
        upload = local_step(client, model, k=3)
        assert upload.payload.nnz == 3
        # Uploaded values must match the residual at those indices.
        np.testing.assert_allclose(
            upload.payload.values, client.residual[upload.payload.indices]
        )
        # And they must be the largest-|.| residual entries.
        threshold = np.abs(upload.payload.values).min()
        others = np.delete(np.abs(client.residual), upload.payload.indices)
        assert np.all(others <= threshold + 1e-12)

    def test_reset_transmitted_zeroes_intersection(self, federation, model):
        client = Client(federation.clients[0], model.dimension, batch_size=8)
        upload = local_step(client, model, k=4)
        selected = upload.payload.indices[:2]
        untouched_idx = upload.payload.indices[2:]
        untouched_before = client.residual[untouched_idx].copy()
        client.reset_transmitted(
            SelectionResult(selected, [upload], model.dimension)
        )
        np.testing.assert_allclose(client.residual[selected], 0.0)
        np.testing.assert_allclose(client.residual[untouched_idx], untouched_before)

    @pytest.mark.parametrize("value, k", [
        (np.inf, 3), (-np.inf, 3), (np.nan, 6),
    ], ids=["inf", "-inf", "nan"])
    def test_reset_zeroes_a_non_finite_entry(self, value, k):
        # Lines 16–17 zero a transmitted entry whatever it held: a ±inf
        # or NaN left behind would rank below every magnitude and never
        # be uploaded again.  (NaN ranks last, so it needs k = D.)
        client = Client(ClientDataset(0, np.zeros((1, 1)), np.zeros(1)), 6)
        client.residual = np.array([value, 1.0, -2.0, 0.5, 0.0, 3.0])
        upload = client.select_upload(k, FABTopK())
        assert 0 in upload.payload.indices
        ExecutionBackend().reset_residuals(
            [client], SelectionResult(np.array([0, 2, 5]), [upload], 6)
        )
        assert client.residual.tobytes() == np.array(
            [0.0, 1.0, 0.0, 0.5, 0.0, 0.0]
        ).tobytes()
        client.accumulate_gradient(np.array([4.0, 0, 0, 0, 0, 0]))
        upload = client.select_upload(1, FABTopK())
        assert upload.payload.indices.tolist() == [0]

    def test_reset_before_step_raises(self, federation, model):
        client = Client(federation.clients[0], model.dimension)
        with pytest.raises(RuntimeError):
            client.reset_transmitted(
                SelectionResult(np.array([0]), [], model.dimension)
            )

    def test_probe_flow(self, federation, model):
        client = Client(federation.clients[0], model.dimension, batch_size=8)
        local_step(client, model, k=3)
        hooks = LearnedK(None, None)
        w = model.get_weights()
        ctx = SimpleNamespace(
            engine=SimpleNamespace(model=model), participants=[client],
        )
        with pytest.raises(RuntimeError, match="draw_probe_sample"):
            hooks.sample_losses(ctx, w, w)
        client.draw_probe_sample(*client.draw_minibatch())
        loss_prev, loss_now = hooks.sample_losses(ctx, w, w)
        assert np.isfinite(loss_prev) and loss_prev >= 0
        assert loss_now == loss_prev

    def test_probe_sample_is_its_own_row(self, federation, model):
        # The probe sample outlives the minibatch it came from: a copy of
        # one row, never a view pinning the whole batch.
        client = Client(federation.clients[0], model.dimension, batch_size=8)
        x, y = client.draw_minibatch()
        client.draw_probe_sample(x, y)
        px, py = client.probe_sample
        assert px.base is None and py.base is None
        assert px.shape == (1,) + x.shape[1:] and py.shape == (1,)
        row = next(i for i in range(len(x)) if np.array_equal(x[i], px[0]))
        assert y[row] == py[0]

    def test_probe_loss_at_other_weights_restores(self, federation, model):
        client = Client(federation.clients[0], model.dimension, batch_size=8)
        local_step(client, model, k=3)
        client.draw_probe_sample(*client.draw_minibatch())
        w = model.get_weights()
        model.per_sample_losses_at(np.zeros(model.dimension), *client.probe_sample)
        np.testing.assert_allclose(model.get_weights(), w)
        assert model.network.training


class TestServer:
    def test_weighted_aggregation(self):
        server = Server(dimension=6)
        u1 = ClientUpload(
            0, SparseVector(np.array([0, 2]), np.array([1.0, 2.0]), 6), 10
        )
        u2 = ClientUpload(
            1, SparseVector(np.array([2, 4]), np.array([4.0, 8.0]), 6), 30
        )
        selection = SelectionResult(np.array([0, 2, 4]), [u1, u2], 6)
        msg = server.aggregate([u1, u2], selection)
        dense = to_dense(msg.payload)
        assert dense[0] == pytest.approx(0.25 * 1.0)
        assert dense[2] == pytest.approx(0.25 * 2.0 + 0.75 * 4.0)
        assert dense[4] == pytest.approx(0.75 * 8.0)

    def test_unuploaded_indices_excluded(self):
        # A selected index a client never uploaded contributes zero for
        # that client (the 1[j in J_i] indicator of Algorithm 1).
        server = Server(dimension=4)
        u1 = ClientUpload(0, SparseVector(np.array([1]), np.array([2.0]), 4), 1)
        selection = SelectionResult(np.array([1, 3]), [u1], 4)
        dense = to_dense(server.aggregate([u1], selection).payload)
        assert dense[1] == pytest.approx(2.0)
        assert dense[3] == 0.0

    def test_no_uploads_raises(self):
        with pytest.raises(ValueError):
            Server(4).aggregate([], SelectionResult(np.array([0]), [], 4))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            Server(0)


class TestTrainingHistory:
    def _record(self, i, t=None, loss=1.0):
        return RoundRecord(round_index=i, k=1.0, round_time=1.0,
                           cumulative_time=t if t is not None else float(i),
                           loss=loss)

    def test_monotone_round_index_enforced(self):
        h = TrainingHistory()
        h.append(self._record(1))
        with pytest.raises(ValueError):
            h.append(self._record(1))

    def test_loss_at_time(self):
        # Rounds 3 and 5 were not evaluated (eval_every > 1): NaN.
        h = TrainingHistory()
        h.append(self._record(1, t=1.0, loss=5.0))
        h.append(self._record(2, t=2.0, loss=3.0))
        h.append(self._record(3, t=3.0, loss=float("nan")))
        h.append(self._record(4, t=4.0, loss=2.0))
        h.append(self._record(5, t=5.0, loss=float("nan")))
        assert h.loss_at_time(0.5) == 5.0
        assert h.loss_at_time(2.5) == 3.0
        assert h.loss_at_time(3.5) == 3.0
        assert h.loss_at_time(10.0) == 2.0

    def test_time_to_loss(self):
        h = TrainingHistory()
        h.append(self._record(1, t=1.0, loss=5.0))
        h.append(self._record(2, t=2.0, loss=3.0))
        assert h.time_to_loss(4.0) == 2.0
        assert h.time_to_loss(1.0) is None

    def test_csv_shape(self):
        h = TrainingHistory()
        h.append(self._record(1))
        csv_text = h.to_csv()
        lines = csv_text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("round,k,")

    def test_contribution_totals(self):
        h = TrainingHistory()
        h.append(RoundRecord(1, 1.0, 1.0, 1.0, 1.0, contributions={0: 2, 1: 3}))
        h.append(RoundRecord(2, 1.0, 1.0, 2.0, 1.0, contributions={0: 1}))
        assert h.contribution_counts() == {0: 3, 1: 3}

    def test_empty_history_errors(self):
        h = TrainingHistory()
        with pytest.raises(ValueError):
            _ = h.final_loss
        with pytest.raises(ValueError):
            h.loss_at_time(1.0)
        assert h.total_time == 0.0

    def test_cadence_skipped_last_round(self, federation, model):
        # Round 7 of eval_every=5 is not evaluated: the finals read round 5.
        trainer = FLTrainer(model, federation, FABTopK(), eval_every=5)
        history = trainer.run(7, 20)
        fifth = history.records[4].loss
        assert not np.isnan(fifth)
        assert np.isnan(history.records[-1].loss)
        assert history.final_loss == fifth
        assert history.loss_at_time(history.total_time) == fifth


class TestFLTrainer:
    def test_loss_decreases(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK(), learning_rate=0.1,
                            batch_size=16, seed=0)
        initial = trainer.global_loss()
        trainer.run(40, k=10)
        assert trainer.history.final_loss < initial * 0.8

    def test_weights_synchronized_semantics(self, federation, model):
        # The trainer applies one shared update; after a step, the model
        # weights differ from the start only at the selected indices.
        trainer = FLTrainer(model, federation, FABTopK(), learning_rate=0.1)
        w0 = model.get_weights()
        record = trainer.step(k=5)
        w1 = model.get_weights()
        changed = np.flatnonzero(w0 != w1)
        assert changed.size <= 5
        assert record.downlink_elements == 5

    def test_timing_accumulates(self, federation, model):
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        trainer = FLTrainer(model, federation, FABTopK(), timing=timing)
        trainer.run(3, k=5)
        expected_round = timing.sparse_round(5, 5).total
        assert trainer.clock == pytest.approx(3 * expected_round)

    def test_k_schedule_list(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK())
        trainer.run(4, k=[3, 5, 7, 7])
        assert trainer.history.ks() == [3.0, 5.0, 7.0, 7.0]

    def test_k_schedule_callable(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK())
        trainer.run(3, k=lambda m: 2 * m)
        assert trainer.history.ks() == [2.0, 4.0, 6.0]

    def test_k_schedule_holds_last(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK())
        trainer.run(3, k=[4])
        assert trainer.history.ks() == [4.0, 4.0, 4.0]

    def test_run_until_loss(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK(), learning_rate=0.1,
                            batch_size=16)
        initial = trainer.global_loss()
        target = initial * 0.9
        trainer.run_until_loss(target, k=10, max_rounds=200)
        assert trainer.history.final_loss <= target

    def test_invalid_k(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK())
        with pytest.raises(ValueError):
            trainer.step(k=0)
        with pytest.raises(ValueError):
            trainer.step(k=model.dimension + 1)

    def test_eval_every(self, federation, model):
        trainer = FLTrainer(model, federation, FABTopK(), eval_every=3)
        trainer.run(6, k=5)
        losses = trainer.history.losses()
        # Rounds 1, 3, 6 evaluated; 2, 4, 5 are NaN.
        assert not np.isnan(losses[0])
        assert np.isnan(losses[1])
        assert not np.isnan(losses[2])
        assert not np.isnan(losses[5])

    def test_periodic_sparsifier_integration(self, federation, model):
        trainer = FLTrainer(
            model, federation, PeriodicK(model.dimension, seed=1),
            learning_rate=0.1, batch_size=16,
        )
        initial = trainer.global_loss()
        trainer.run(60, k=10)
        assert trainer.history.final_loss < initial

    def test_validation(self, federation, model):
        with pytest.raises(ValueError):
            FLTrainer(model, federation, FABTopK(), learning_rate=0.0)
        with pytest.raises(ValueError):
            FLTrainer(model, federation, FABTopK(), eval_every=0)

    def test_as_schedule_empty_rejected(self):
        with pytest.raises(ValueError):
            _as_schedule([], 10)


class TestFedAvg:
    def test_loss_decreases(self, federation):
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=1.0)
        trainer = FedAvgTrainer(model, federation, timing, aggregation_period=3,
                                learning_rate=0.1, batch_size=16)
        initial = trainer.global_loss()
        trainer.run(30)
        assert trainer.history.final_loss < initial

    def test_communication_only_on_period(self, federation):
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        trainer = FedAvgTrainer(model, federation, timing, aggregation_period=3)
        trainer.run(6)
        uplinks = [r.uplink_elements for r in trainer.history]
        assert uplinks == [0, 0, model.dimension, 0, 0, model.dimension]

    def test_weights_resync_at_aggregation(self, federation):
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=1.0)
        trainer = FedAvgTrainer(model, federation, timing, aggregation_period=2,
                                learning_rate=0.1)
        trainer.run(2)  # aggregation just happened
        first = trainer._local_weights[0]
        for w in trainer._local_weights[1:]:
            np.testing.assert_allclose(w, first)

    def test_local_weights_diverge_between_aggregations(self, federation):
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=1.0)
        trainer = FedAvgTrainer(model, federation, timing, aggregation_period=10,
                                learning_rate=0.1)
        trainer.run(3)
        assert not np.allclose(trainer._local_weights[0], trainer._local_weights[1])

    def test_invalid_period(self, federation):
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=1.0)
        with pytest.raises(ValueError):
            FedAvgTrainer(model, federation, timing, aggregation_period=0)

    def test_local_rounds_pay_the_straggler_too(self, federation):
        # Every client computes every round, so a local-SGD round waits
        # for the slowest computation just as an averaging round does.
        model = make_logistic(10, 4, seed=0)
        ids = [c.client_id for c in federation.clients]
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0,
            profiles=[ClientProfile(ids[0], compute_factor=4.0,
                                    comm_factor=2.0)]
            + [ClientProfile(cid) for cid in ids[1:]],
        )
        trainer = FedAvgTrainer(model, federation, timing,
                                aggregation_period=3)
        trainer.run(3)
        assert [r.round_time for r in trainer.history] == [
            4.0, 4.0, 4.0 + 2.0 * 10.0,
        ]


class TestAlwaysSendAll:
    """Always-send-all is Algorithm 1 at k = D."""

    def test_loss_decreases_and_dense_cost(self, federation):
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        trainer = FLTrainer(model, federation, FABTopK(), timing,
                            learning_rate=0.1, batch_size=16)
        initial = trainer.global_loss()
        trainer.run(20, model.dimension)
        assert trainer.history.final_loss < initial
        assert trainer.clock == pytest.approx(20 * timing.dense_round().total)


class TestNonIIDLearning:
    def test_fab_topk_learns_under_writer_partition(self):
        from repro.data.synthetic import make_femnist_like

        ds = make_femnist_like(num_writers=6, samples_per_writer=30,
                               num_classes=10, classes_per_writer=3,
                               image_size=8, seed=1)
        fed = partition_by_writer(ds)
        model = make_mlp(64, 10, hidden=(16,), seed=1)
        trainer = FLTrainer(model, fed, FABTopK(), learning_rate=0.1,
                            batch_size=16, seed=1)
        initial = trainer.global_loss()
        trainer.run(60, k=100)
        assert trainer.history.final_loss < initial * 0.9
