"""RoundEngine and execution-backend tests.

Three layers of guarantees:

1. **Golden histories** — the engine-based trainers reproduce, bit for
   bit, histories captured from the pre-engine (seed) implementations of
   ``FLTrainer``, ``AdaptiveKTrainer``, ``FedAvgTrainer`` and
   ``AlwaysSendAllTrainer`` (``tests/data/golden_histories.json``).
2. **Backend equivalence** — the multiprocessing ``ShardedBackend``,
   whose workers compute one client's gradient a call, produces
   histories (losses, clocks, uplink/downlink counts, contributions) and
   final weights *identical* to ``SerialBackend``'s blocks of grouped
   passes across sparsifier families and model families (MLP and CNN —
   conv/pool run the grouped im2col pass).
3. **Batched kernels** — ``FlatModel.gradients_batched`` equals its
   per-client counterpart exactly, in however many blocks it runs.
"""

import ast
import functools
import hashlib
import json
import multiprocessing
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.async_engine import DEFAULT_EXPONENT_INTERVAL, AsyncFLTrainer
from repro.fl.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    resolve_backend,
)
from repro.fl.client import Client
from repro.parallel.pool import preferred_start_method
from repro.parallel.sharded import ShardedBackend
from repro.fl.fedavg import AlwaysSendAllTrainer, FedAvgTrainer
from repro.fl.robust import _CoordinateView
from repro.fl.server import Server
from repro.fl.trainer import FLTrainer
from repro.nn import layers
from repro.nn.flat import BLOCK_BYTES
from repro.nn.models import make_cnn, make_mlp
from repro.obs import Telemetry
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.online.algorithm2 import SignOGD
from repro.online.interval import SearchInterval
from repro.online.policy import SignPolicy
from repro.scenarios import DeploymentScenario, ScenarioConfig
from repro.simulation.heterogeneous import (
    ClientProfile,
    ClientSampler,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.base import SelectionResult
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.unidirectional import UnidirectionalTopK

from helpers import (
    COHORT_GEOMETRIES,
    EventList,
    make_cohort,
    make_gaussian_blobs,
    make_logistic,
    materialize,
    partition_iid,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_histories.json"


def history_rows(history):
    """History as comparable tuples (NaN losses mapped to None)."""
    return [
        (
            r.round_index,
            r.k,
            r.round_time,
            r.cumulative_time,
            None if np.isnan(r.loss) else r.loss,
            r.accuracy,
            r.uplink_elements,
            r.downlink_elements,
        )
        for r in history
    ]


def contribution_rows(history):
    return [tuple(sorted(r.contributions.items())) for r in history]


# ----------------------------------------------------------------------
# Golden histories captured from the seed (pre-engine) implementations.
# The scenario constructions below must not change, or the goldens lose
# their meaning.
# ----------------------------------------------------------------------
def _golden_federation():
    ds = make_gaussian_blobs(num_samples=240, num_classes=4, feature_dim=12,
                             separation=3.0, seed=7)
    return partition_iid(ds, num_clients=6, seed=7)


def _golden_setup():
    model = make_logistic(12, 4, seed=7)
    timing = TimingModel(dimension=model.dimension, comm_time=8.0)
    return model, _golden_federation(), timing


def _golden_fl():
    model, fed, timing = _golden_setup()
    trainer = FLTrainer(model, fed, FABTopK(), timing=timing,
                        learning_rate=0.1, batch_size=8, eval_every=3, seed=7)
    return trainer.run(10, k=9)


def _golden_adaptive():
    model, fed, timing = _golden_setup()
    policy = SignPolicy(SignOGD(SearchInterval(2.0, float(model.dimension))))
    trainer = AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                               learning_rate=0.1, batch_size=8, eval_every=2,
                               seed=7)
    return trainer.run(8)


def _golden_fedavg():
    model, fed, timing = _golden_setup()
    trainer = FedAvgTrainer(model, fed, timing, aggregation_period=3,
                            learning_rate=0.1, batch_size=8, eval_every=2,
                            seed=7)
    return trainer.run(9)


def _golden_sendall():
    model, fed, timing = _golden_setup()
    trainer = AlwaysSendAllTrainer(model, fed, timing, learning_rate=0.1,
                                   batch_size=8, eval_every=2, seed=7)
    return trainer.run(6)


def _golden_cnn():
    # Pinned after PR 3's conv rewrite: the grouped-conv serial path is
    # the reference now, and cross-backend equality alone cannot catch a
    # regression that moves *all* backends together.  4 rounds of the
    # fig6-style CNN on the serial backend.
    ds = make_femnist_like(num_writers=6, samples_per_writer=12,
                           num_classes=6, image_size=8, classes_per_writer=3,
                           flatten=False, seed=7)
    fed = partition_by_writer(ds, seed=7)
    model = make_cnn(image_size=8, channels=1, num_classes=6,
                     dense_width=8, seed=7)
    timing = TimingModel(dimension=model.dimension, comm_time=8.0)
    trainer = FLTrainer(model, fed, FABTopK(), timing=timing,
                        learning_rate=0.05, batch_size=6, eval_every=2,
                        seed=7, backend="serial")
    return trainer.run(4, k=20)


def _golden_async_profiles(model, fed):
    """Every third client a 4x straggler — arrivals must reorder."""
    from repro.simulation.heterogeneous import (
        ClientProfile,
        HeterogeneousTimingModel,
    )

    profiles = [
        ClientProfile(
            client_id=c.client_id,
            compute_factor=4.0 if c.client_id % 3 == 0 else 1.0,
            comm_factor=4.0 if c.client_id % 3 == 0 else 1.0,
        )
        for c in fed.clients
    ]
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=8.0, profiles=profiles
    )
    return profiles, timing


def _golden_async():
    # Pinned in PR 10: the asynchronous commit engine's virtual-time path
    # has no seed implementation to diff against (the full-barrier special
    # case is covered by bit-identity with ``fl_trainer``), so its first
    # verified history is the reference — commits of 3 arrivals under the
    # polynomial staleness discount with a straggling third of the cohort.
    model, fed, _ = _golden_setup()
    profiles, timing = _golden_async_profiles(model, fed)
    trainer = AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.1,
        batch_size=8, eval_every=3, seed=7, discount="polynomial",
        commit_count=3, profiles=profiles,
    )
    return trainer.run(10, k=9)


def _golden_async_adaptive_trainer():
    # Pinned at PR 15's head, before the three hand-wired SignOGD walks
    # became one OnlineKnob: ``_golden_async`` runs the *polynomial*
    # discount, so nothing pinned a learned exponent walk.  lr = 1 keeps
    # the probe losses noisy enough that the walk leaves the interval
    # floor and turns around several times in 20 commits.
    model, fed, _ = _golden_setup()
    profiles, timing = _golden_async_profiles(model, fed)
    return AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=1.0,
        batch_size=8, eval_every=3, seed=7, discount="adaptive",
        commit_count=3, profiles=profiles,
    )


def _golden_async_adaptive():
    return _golden_async_adaptive_trainer().run(20, k=30)


def _golden_async_adversary():
    # Pinned at PR 24's head, the first commit on which async × adversary
    # runs at all: sign-flip corruption and the learned staleness
    # discount both rewrite the wire, the trimmed mean defends, and the
    # exponent probe re-aggregates what the server saw.  What validates
    # it is not this history but the full-barrier identity under attack
    # (``test_async_barrier_under_attack_matches_plain_trainer``).
    model, fed, _ = _golden_setup()
    profiles, timing = _golden_async_profiles(model, fed)
    scenario = DeploymentScenario.build(
        ScenarioConfig(
            availability="always", adversary="sign_flip",
            adversary_fraction=0.3, aggregator="trimmed_mean", seed=7,
        ),
        [c.client_id for c in fed.clients], timing, profiles,
    )
    trainer = AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.1,
        batch_size=8, eval_every=3, seed=7, discount="adaptive",
        commit_count=3, scenario=scenario,
    )
    history = trainer.run(12, k=9)
    assert scenario.stats.corrupted_by_client  # the attack actually ran
    return history


GOLDEN_SCENARIOS = {
    "fl_trainer": _golden_fl,
    "adaptive_trainer": _golden_adaptive,
    "fedavg_trainer": _golden_fedavg,
    "sendall_trainer": _golden_sendall,
    "cnn_fl_trainer": _golden_cnn,
    "async_fl_trainer": _golden_async,
    "adaptive_async_fl_trainer": _golden_async_adaptive,
    "async_adversary_fl_trainer": _golden_async_adversary,
}


def golden_rows(name):
    """The named golden history as ``history_rows`` tuples."""
    return [
        (row["round_index"], row["k"], row["round_time"],
         row["cumulative_time"], row["loss"], row["accuracy"],
         row["uplink_elements"], row["downlink_elements"])
        for row in json.loads(GOLDEN_PATH.read_text())[name]
    ]


class TestGoldenHistories:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_engine_reproduces_seed_history(self, name):
        assert history_rows(GOLDEN_SCENARIOS[name]()) == golden_rows(name)

    def test_adaptive_golden_through_fl_trainer(self):
        # The learned k is a k rule like any other: the plain trainer
        # handed the policy walks the adaptive trainer's golden history.
        model, fed, timing = _golden_setup()
        trainer = FLTrainer(model, fed, FABTopK(), timing=timing,
                            learning_rate=0.1, batch_size=8, eval_every=2,
                            seed=7)
        policy = _learned_k_policy(model)
        assert history_rows(trainer.run(8, policy)) == golden_rows(
            "adaptive_trainer"
        )

    def test_learned_exponent_walk_matches_golden(self):
        trainer = _golden_async_adaptive_trainer()
        trainer.run(20, k=30)
        walk = trainer.discount.exponent_history
        golden = json.loads(GOLDEN_PATH.read_text())
        assert walk == golden["adaptive_async_fl_trainer_exponents"]
        # The pin means something: the walk hit the interval floor, left
        # it again, and stood still on the stale-free first commit.
        lo = DEFAULT_EXPONENT_INTERVAL[0]
        assert walk[2] == lo < walk[5] and len(set(walk)) > 8
        assert walk[0] == walk[1] and trainer.staleness_history[0] == 0.0


# ----------------------------------------------------------------------
# Serial vs sharded backend equivalence
# ----------------------------------------------------------------------
#: backends that must match SerialBackend bit for bit: the sharded
#: workers' per-client gradients against the serial backend's blocks
FAST_BACKENDS = ("sharded",)


def make_backend(name):
    """Backend spec under test; sharded forces a real 2-worker pool.

    (``jobs`` defaults to the machine's CPU count, which would silently
    take the in-process fallback on single-core CI runners.)
    """
    if name == "sharded":
        return ShardedBackend(jobs=2)
    return name


def _federation(num_writers=10, seed=5):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=20,
                           num_classes=10, image_size=8, classes_per_writer=4,
                           seed=seed)
    return partition_by_writer(ds, seed=seed)


def _fl_trainer(backend, sparsifier_factory, seed=5, **kwargs):
    fed = _federation(seed=seed)
    model = make_mlp(64, 10, hidden=(12,), seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, sparsifier_factory(model), timing=timing,
                     learning_rate=0.05, batch_size=8, eval_every=4,
                     seed=seed, backend=backend, **kwargs)


SPARSIFIER_FACTORIES = {
    "fab-top-k": lambda model: FABTopK(),
    "fub-top-k": lambda model: FUBTopK(),
    "unidirectional": lambda model: UnidirectionalTopK(),
    "periodic": lambda model: PeriodicK(model.dimension, seed=5),
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    @pytest.mark.parametrize("name", sorted(SPARSIFIER_FACTORIES))
    def test_fl_histories_identical(self, name, backend_name):
        factory = SPARSIFIER_FACTORIES[name]
        serial = _fl_trainer("serial", factory)
        fast = _fl_trainer(make_backend(backend_name), factory)
        hs = serial.run(10, k=15)
        hf = fast.run(10, k=15)
        assert history_rows(hs) == history_rows(hf)
        assert contribution_rows(hs) == contribution_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_residuals_identical_after_run(self, backend_name):
        serial = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        fast = _fl_trainer(
            make_backend(backend_name), SPARSIFIER_FACTORIES["fab-top-k"]
        )
        serial.run(8, k=12)
        fast.run(8, k=12)
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_adaptive_histories_identical(self, backend_name):
        def build(backend):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            policy = SignPolicy(
                SignOGD(SearchInterval(2.0, float(model.dimension)))
            )
            return AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                                    learning_rate=0.05, batch_size=8,
                                    eval_every=2, seed=5, backend=backend)
        fast = build(make_backend(backend_name))
        assert history_rows(build("serial").run(8)) == history_rows(
            fast.run(8)
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_always_send_all_identical(self, backend_name):
        def build(backend):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            return AlwaysSendAllTrainer(model, fed, timing, learning_rate=0.05,
                                        batch_size=8, eval_every=2, seed=5,
                                        backend=backend)
        fast = build(make_backend(backend_name))
        assert history_rows(build("serial").run(5)) == history_rows(
            fast.run(5)
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_sampler_subset_identical(self, backend_name):
        # Partial participation also exercises the sharded backend's lazy
        # client registration (clients join the pool on first selection).
        def build(backend):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            sampler = ClientSampler(
                [c.client_id for c in fed.clients], count=4, seed=5
            )
            return FLTrainer(model, fed, FABTopK(), timing=timing,
                             learning_rate=0.05, batch_size=8, eval_every=3,
                             sampler=sampler, seed=5, backend=backend)
        fast = build(make_backend(backend_name))
        assert history_rows(build("serial").run(8, k=12)) == history_rows(
            fast.run(8, k=12)
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_cnn_model_grouped_and_identical(self, backend_name):
        # Conv2D/MaxPool2D run the grouped im2col pass, so CNN configs
        # run blocks of grouped passes on the serial backend — and the
        # sharded workers' per-client passes must still produce bit-equal
        # histories, weights and residuals.
        fast = _cnn_trainer(make_backend(backend_name))
        serial = _cnn_trainer("serial")
        hs = serial.run(3, k=20)
        hf = fast.run(3, k=20)
        assert history_rows(hs) == history_rows(hf)
        assert contribution_rows(hs) == contribution_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)
        fast.close()

    @staticmethod
    def _async_trainer(backend):
        return _async_matrix_trainer(backend)[0]

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_async_commit_histories_identical(self, backend_name):
        # The event queue runs in the parent: virtual arrival times,
        # commit batching, and staleness discounts must be backend-blind.
        serial = self._async_trainer("serial")
        fast = self._async_trainer(make_backend(backend_name))
        hs = serial.run(10, k=15)
        hf = fast.run(10, k=15)
        assert history_rows(hs) == history_rows(hf)
        assert contribution_rows(hs) == contribution_rows(hf)
        assert serial.staleness_history == fast.staleness_history
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", ("serial",) + FAST_BACKENDS)
    def test_async_sync_equivalence_matches_plain_trainer(
        self, backend_name
    ):
        # Full barrier (commit_count=0), identity discount, everyone
        # participating: every commit is one whole fresh cohort in
        # cohort order, so the arrival queue must reproduce the plain
        # trainer byte for byte on every backend — no special mode.
        backend = make_backend(backend_name)
        plain = _fl_trainer(backend, SPARSIFIER_FACTORIES["fab-top-k"])
        hp = plain.run(10, k=15)
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        barrier = AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=4, seed=5,
            backend=make_backend(backend_name), commit_count=0,
        )
        hb = barrier.run(10, k=15)
        # Rows are (round, k, round_time, cumulative_time, loss, accuracy,
        # uplink, downlink): everything but the two clock columns is
        # byte-equal.  The clock is the same quantity through a different
        # float expression — (vclock + finish + downlink) − vclock versus
        # computation + uplink + downlink — so it agrees to rounding.
        for rp, rb in zip(history_rows(hp), history_rows(hb), strict=True):
            assert rp[:2] + rp[4:] == rb[:2] + rb[4:]
            assert rb[2:4] == pytest.approx(rp[2:4], rel=1e-12)
        assert contribution_rows(hp) == contribution_rows(hb)
        np.testing.assert_array_equal(
            plain.model.get_weights(), barrier.model.get_weights()
        )
        for cp, cb in zip(plain.clients, barrier.clients, strict=True):
            np.testing.assert_array_equal(cp.residual, cb.residual)
        assert all(s == 0.0 for s in barrier.staleness_history)
        plain.close()
        barrier.close()


def _cnn_trainer(backend, seed=5):
    ds = make_femnist_like(num_writers=6, samples_per_writer=12,
                           num_classes=6, image_size=8,
                           classes_per_writer=3, flatten=False, seed=seed)
    fed = partition_by_writer(ds, seed=seed)
    model = make_cnn(image_size=8, channels=1, num_classes=6,
                     dense_width=8, seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, FABTopK(), timing=timing,
                     learning_rate=0.05, batch_size=6, eval_every=2,
                     seed=seed, backend=backend)


def _async_matrix_trainer(backend, scenario_config=None, telemetry=None,
                          discount="polynomial"):
    """The async matrix row: every fourth client a 3x straggler, commits
    of 4 under the polynomial discount (or ``discount``) — optionally
    under a scenario (returned beside the trainer; None without one)."""
    from repro.simulation.heterogeneous import (
        ClientProfile,
        HeterogeneousTimingModel,
    )

    fed = _federation()
    model = make_mlp(64, 10, hidden=(12,), seed=5)
    profiles = [
        ClientProfile(
            client_id=c.client_id,
            compute_factor=3.0 if c.client_id % 4 == 0 else 1.0,
            comm_factor=3.0 if c.client_id % 4 == 0 else 1.0,
        )
        for c in fed.clients
    ]
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = None if scenario_config is None else DeploymentScenario.build(
        scenario_config, [c.client_id for c in fed.clients], timing, profiles
    )
    trainer = AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=4, seed=5, backend=backend,
        profiles=profiles, discount=discount, commit_count=4,
        scenario=scenario, telemetry=telemetry,
    )
    return trainer, scenario


def _learned_k_policy(model):
    return SignPolicy(SignOGD(SearchInterval(2.0, float(model.dimension))))


def _learned_k_fingerprint(trainer, history):
    """Everything a learned-k async run must reproduce byte for byte."""
    return (
        history_rows(history),
        contribution_rows(history),
        trainer.staleness_history,
        trainer.discount.exponent_history,
        trainer.model.get_weights().tobytes(),
        [c.residual.tobytes() for c in trainer.clients],
    )


@functools.lru_cache(maxsize=None)
def _learned_k_async_reference():
    trainer, _ = _async_matrix_trainer("serial", discount="adaptive")
    history = trainer.run(12, _learned_k_policy(trainer.model))
    return _learned_k_fingerprint(trainer, history)


class TestLearnedKUnderAsync:
    """The learned k is the engine's k rule, so it runs on async commits
    as on barrier rounds: one ``run(n, policy)`` on every engine."""

    @pytest.mark.parametrize("backend_name", ("serial",) + FAST_BACKENDS)
    def test_learned_k_async_histories_identical(self, backend_name):
        # Buffered commits of 4, stragglers, the learned staleness
        # discount: two learned knobs on one engine, backend-blind.
        trainer, _ = _async_matrix_trainer(
            make_backend(backend_name), discount="adaptive"
        )
        history = trainer.run(12, _learned_k_policy(trainer.model))
        trainer.close()
        assert (_learned_k_fingerprint(trainer, history)
                == _learned_k_async_reference())
        # The row means something: k moved, arrivals were stale, and
        # both knobs probed.
        assert len(set(history.ks())) > 1
        assert max(trainer.staleness_history) > 0
        assert len(set(trainer.discount.exponent_history)) > 1
        assert trainer.engine.k_rule.probe_int is not None

    @pytest.mark.parametrize("backend_name", ("serial",) + FAST_BACKENDS)
    def test_learned_k_async_barrier_matches_plain_trainer(
        self, backend_name
    ):
        # commit_count=0 + identity discount + everyone: the learned k
        # walks the same k, losses and weights as the barrier trainer.
        # The k' difference downlink is charged to each commit's
        # round_time as at a barrier; the clock is the same quantity
        # through a different float expression, so it agrees to rounding.
        plain = _fl_trainer(make_backend(backend_name),
                            SPARSIFIER_FACTORIES["fab-top-k"])
        hp = plain.run(30, _learned_k_policy(plain.model))
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        barrier = AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=4, seed=5,
            backend=make_backend(backend_name), commit_count=0,
        )
        hb = barrier.run(30, _learned_k_policy(model))
        plain.close()
        barrier.close()
        for rp, rb in zip(history_rows(hp), history_rows(hb), strict=True):
            assert rp[:2] + rp[4:] == rb[:2] + rb[4:]
            assert rb[2:4] == pytest.approx(rp[2:4], rel=1e-12)
        assert len(set(hp.ks())) > 1
        np.testing.assert_array_equal(
            plain.model.get_weights(), barrier.model.get_weights()
        )

    def test_learned_k_async_probe_events_validate(self, tmp_path):
        from repro.obs import JsonlSink, Telemetry
        from repro.obs.events import validate_event

        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced, _ = _async_matrix_trainer(
            "serial", telemetry=telemetry, discount="adaptive"
        )
        history = traced.run(12, _learned_k_policy(traced.model))
        telemetry.close()
        assert (_learned_k_fingerprint(traced, history)
                == _learned_k_async_reference())
        events = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        for event in events:
            validate_event(event)
        probes = [e for e in events if e["type"] == "probe"]
        assert [e["round"] for e in probes] == list(range(1, 13))
        assert [e["k_continuous"] for e in probes] == history.ks()


def _attacked_async_trainer(backend, attack, aggregator, telemetry=None):
    """The async matrix row with 30% adversaries (seed 5: clients 2, 4)."""
    return _async_matrix_trainer(backend, ScenarioConfig(
        availability="always", adversary=attack, adversary_fraction=0.3,
        aggregator=aggregator, seed=5,
    ), telemetry)


def _run_fingerprint(trainer, scenario, history):
    """Everything an attacked async run must reproduce byte for byte."""
    return (
        history_rows(history),
        contribution_rows(history),
        trainer.staleness_history,
        trainer.model.get_weights().tobytes(),
        [c.residual.tobytes() for c in trainer.clients],
        scenario.stats.corrupted_by_client,
        scenario.stats.flagged_by_client,
    )


@functools.lru_cache(maxsize=None)
def _attacked_async_reference(attack, aggregator):
    trainer, scenario = _attacked_async_trainer("serial", attack, aggregator)
    fingerprint = _run_fingerprint(trainer, scenario, trainer.run(10, k=15))
    assert scenario.stats.corrupted_by_client  # the attack actually ran
    return fingerprint


class TestAsyncAdversaryEquivalence:
    """The cell PR 24 opened: async commits × Byzantine uploads.

    Corruption, robust aggregation and the staleness discount all run
    in the parent on parent-owned state, so the attacked async run is
    backend-blind and telemetry-blind like every other matrix row.
    """

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    @pytest.mark.parametrize("aggregator", ("mean", "trimmed_mean"))
    @pytest.mark.parametrize("attack", ("sign_flip", "topk"))
    def test_histories_identical_across_backends(
        self, attack, aggregator, backend_name
    ):
        fast, scenario = _attacked_async_trainer(
            make_backend(backend_name), attack, aggregator
        )
        fingerprint = _run_fingerprint(fast, scenario, fast.run(10, k=15))
        fast.close()
        assert fingerprint == _attacked_async_reference(attack, aggregator)

    @pytest.mark.parametrize("aggregator", ("mean", "trimmed_mean"))
    @pytest.mark.parametrize("attack", ("sign_flip", "topk"))
    def test_identical_with_tracing(self, attack, aggregator, tmp_path):
        from repro.obs import JsonlSink, Telemetry
        from repro.obs.events import validate_event

        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced, scenario = _attacked_async_trainer(
            "serial", attack, aggregator, telemetry=telemetry
        )
        fingerprint = _run_fingerprint(traced, scenario, traced.run(10, k=15))
        telemetry.close()
        assert fingerprint == _attacked_async_reference(attack, aggregator)
        events = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        for event in events:
            validate_event(event)
        flagged = {}
        for event in events:
            if event["type"] == "flagged":
                for cid in event["client_ids"]:
                    flagged[cid] = flagged.get(cid, 0) + 1
        assert flagged == scenario.stats.flagged_by_client

    @pytest.mark.parametrize("backend_name", ("serial",) + FAST_BACKENDS)
    def test_async_barrier_under_attack_matches_plain_trainer(
        self, backend_name
    ):
        # The full-barrier identity with the adversary on: commit_count
        # 0 + identity discount is the synchronous attacked round, so
        # the adversary seam chained ahead of the commit hooks must do
        # exactly what the sync scenario's hooks do — byte for byte on
        # weights, residuals and losses.  This is what says the golden
        # ``async_adversary_fl_trainer`` pins the right semantics.
        config = ScenarioConfig(
            availability="always", adversary="sign_flip",
            adversary_fraction=0.3, aggregator="trimmed_mean", seed=5,
        )

        def build(trainer_class, **extra):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            scenario = DeploymentScenario.build(
                config, [c.client_id for c in fed.clients], timing
            )
            trainer = trainer_class(
                model, fed, FABTopK(), timing=timing, learning_rate=0.05,
                batch_size=8, eval_every=4, seed=5,
                backend=make_backend(backend_name), scenario=scenario,
                **extra,
            )
            return trainer, scenario

        plain, p_scn = build(FLTrainer)
        barrier, b_scn = build(AsyncFLTrainer, commit_count=0)
        hp = plain.run(10, k=15)
        hb = barrier.run(10, k=15)
        for rp, rb in zip(history_rows(hp), history_rows(hb), strict=True):
            assert rp[:2] + rp[4:] == rb[:2] + rb[4:]
            assert rb[2:4] == pytest.approx(rp[2:4], rel=1e-12)
        assert contribution_rows(hp) == contribution_rows(hb)
        np.testing.assert_array_equal(
            plain.model.get_weights(), barrier.model.get_weights()
        )
        for cp, cb in zip(plain.clients, barrier.clients, strict=True):
            np.testing.assert_array_equal(cp.residual, cb.residual)
        assert p_scn.stats.corrupted_by_client
        assert (p_scn.stats.corrupted_by_client
                == b_scn.stats.corrupted_by_client)
        assert p_scn.stats.flagged_by_client == b_scn.stats.flagged_by_client
        plain.close()
        barrier.close()


# ----------------------------------------------------------------------
# Batched kernels
# ----------------------------------------------------------------------
class TestVirtualEagerEquivalence:
    """A virtual federation equals its materialized eager twin bit for bit.

    The contract every population-scale claim rests on: training over
    :class:`~repro.data.virtual.VirtualFederation` (lazy datasets, lazy
    clients, LRU releases) must produce the same histories, weights and
    residuals as the same run over ``materialize(federation)`` — across
    sparsifier families, the asynchronous engine and every backend.
    """

    #: sparsifier factory per matrix row
    VARIANTS = {
        "fab-top-k": lambda: FABTopK(),
    }

    def _virtual_federation(self, seed=7):
        from repro.data.virtual import VirtualFederation

        return VirtualFederation.build(
            10, samples_per_client=14, num_classes=8, image_size=7,
            classes_per_writer=4, test_samples=32, seed=seed,
        )

    def _trainer(self, federation, sparsifier, backend="serial", seed=7):
        model = make_mlp(49, 8, hidden=(10,), seed=seed)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        return FLTrainer(
            model, federation, sparsifier, timing=timing,
            learning_rate=0.05, batch_size=6, eval_every=3, seed=seed,
            backend=backend,
        )

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_virtual_matches_materialized_twin(self, name):
        factory = self.VARIANTS[name]
        virtual = self._trainer(self._virtual_federation(), factory())
        eager = self._trainer(
            materialize(self._virtual_federation()), factory()
        )
        hv = virtual.run(8, k=12)
        he = eager.run(8, k=12)
        assert history_rows(hv) == history_rows(he)
        assert contribution_rows(hv) == contribution_rows(he)
        np.testing.assert_array_equal(
            virtual.model.get_weights(), eager.model.get_weights()
        )
        assert len(virtual.clients) == len(eager.clients)
        for cv, ce in zip(virtual.clients, eager.clients):
            assert cv.client_id == ce.client_id
            np.testing.assert_array_equal(cv.residual, ce.residual)

    def _population_async(self, federation, backend, seed=3):
        # Half of the 200 clients are 6x slow, so commits of 2 leave
        # stragglers' uploads (and their probe samples) in flight across
        # commits while the learned k probes.
        from repro.scenarios import build_population_scenario
        from repro.simulation.heterogeneous import HeterogeneousTimingModel
        from repro.simulation.population import PopulationModel

        config = ScenarioConfig(
            participants=5, slow_fraction=0.5, slow_factor=6, seed=seed
        )
        model = make_mlp(36, 8, hidden=(8,), seed=seed)
        population = PopulationModel.from_scenario_config(config, 200)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=population.profiles
        )
        return AsyncFLTrainer(
            model, federation, FABTopK(), timing=timing,
            scenario=build_population_scenario(config, population, timing),
            commit_count=2, learning_rate=0.05, batch_size=8, seed=seed,
            backend=backend,
        )

    @pytest.mark.parametrize("backend_name", ("serial",) + FAST_BACKENDS)
    def test_async_population_learned_k_matches_materialized_twin(
        self, backend_name
    ):
        from repro.data.virtual import VirtualFederation

        def federation():
            return VirtualFederation.build(
                200, samples_per_client=12, num_classes=8, image_size=6,
                classes_per_writer=4, test_samples=32, seed=3,
            )

        virtual = self._population_async(
            federation(), make_backend(backend_name)
        )
        eager = self._population_async(
            materialize(federation()), make_backend(backend_name)
        )
        hv = virtual.run(20, _learned_k_policy(virtual.model))
        he = eager.run(20, _learned_k_policy(eager.model))
        virtual.close()
        eager.close()
        assert history_rows(hv) == history_rows(he)
        assert contribution_rows(hv) == contribution_rows(he)
        assert virtual.staleness_history == eager.staleness_history
        assert virtual.model.get_weights().tobytes() == (
            eager.model.get_weights().tobytes()
        )
        eager_by_id = {c.client_id: c for c in eager.clients}
        for cv in virtual.clients:
            assert cv.residual.tobytes() == (
                eager_by_id[cv.client_id].residual.tobytes()
            )
        # The row means something: k moved, stragglers committed stale,
        # and only a cohort's worth of clients ever existed.
        assert len(set(hv.ks())) > 1
        assert max(virtual.staleness_history) > 0
        assert len(virtual.clients) < 200

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_virtual_equivalence_holds_on_fast_backends(self, backend_name):
        eager_fed = materialize(self._virtual_federation())
        eager = self._trainer(eager_fed, FABTopK())
        virtual = self._trainer(
            self._virtual_federation(), FABTopK(),
            backend=make_backend(backend_name),
        )
        he = eager.run(6, k=12)
        hv = virtual.run(6, k=12)
        assert history_rows(he) == history_rows(hv)
        np.testing.assert_array_equal(
            eager.model.get_weights(), virtual.model.get_weights()
        )
        virtual.close()


def _suite_stack(model_name, groups, seed):
    """A fresh model of the :data:`COHORT_GEOMETRIES` entry
    ``model_name`` and ``groups`` batch-32 minibatches for it."""
    build, sample_shape = COHORT_GEOMETRIES[model_name]
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((32, *sample_shape)) for _ in range(groups)]
    ys = [rng.integers(0, 62, size=32) for _ in range(groups)]
    return build(), xs, ys


class TestBatchedKernels:
    def test_gradients_batched_bitwise_equal(self):
        rng = np.random.default_rng(0)
        model = make_mlp(30, 6, hidden=(16, 8), seed=1)
        xs = [rng.standard_normal((8, 30)) for _ in range(20)]
        ys = [rng.integers(0, 6, size=8) for _ in range(20)]
        serial = np.stack([model.gradient(x, y) for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(serial, model.gradients_batched(xs, ys))

    def test_gradients_batched_rejects_ragged(self):
        model = make_logistic(4, 3, seed=0)
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((4, 4)), rng.standard_normal((5, 4))]
        ys = [rng.integers(0, 3, size=4), rng.integers(0, 3, size=5)]
        with pytest.raises(ValueError, match="batch size"):
            model.gradients_batched(xs, ys)

    def test_gradients_batched_cnn_bitwise_equal(self):
        # The grouped conv/pool pass must equal per-client gradients
        # exactly — this is what lets CNN configs ride the serial
        # backend's blocks.
        rng = np.random.default_rng(0)
        model = make_cnn(image_size=8, channels=1, num_classes=5,
                         conv_channels=(3, 4), dense_width=8, seed=2)
        xs = [rng.standard_normal((6, 1, 8, 8)) for _ in range(9)]
        ys = [rng.integers(0, 5, size=6) for _ in range(9)]
        serial = np.stack([model.gradient(x, y) for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(serial, model.gradients_batched(xs, ys))

    def test_gradients_batched_cnn_at_suite_geometry(self):
        # The benchmark's CNN (16x16 inputs, 62 classes, conv (8, 16),
        # dense 64: D = 21,726), 24 clients x batch 32.  Rows equal the
        # serial gradients and a digest taken before ReLU and MaxPool2D
        # went branch-free and the first layer dropped its input gradient.
        rng = np.random.default_rng(0)
        model = make_cnn(16, 1, 62, (8, 16), 64)
        xs = [rng.standard_normal((32, 1, 16, 16)) for _ in range(24)]
        ys = [rng.integers(0, 62, size=32) for _ in range(24)]
        batched = model.gradients_batched(xs, ys)
        serial = np.stack([model.gradient(x, y) for x, y in zip(xs, ys)])
        assert batched.tobytes() == serial.tobytes()
        assert hashlib.sha256(batched.tobytes()).hexdigest() == (
            "f9b5a3c4390343050c12edd849fd8c2d011aa21f7d3f97e2e17f75bbc81b8a23"
        )

    def test_gradient_cnn_at_paper_geometry(self):
        # The paper's CNN (28x28 inputs, 62 classes, conv (32, 64),
        # dense 128: D = 428,350), one client at batch 32.  Here conv 2's
        # columns (14.4 MB) leave the cache and c = 32, a second regime
        # for the conv kernels beside the suite geometry's.  Like every
        # gradient digest, the pin holds on the numeric host it was
        # taken on only: another gemm kernel may round differently
        # (ROADMAP item 21).
        rng = np.random.default_rng(0)
        model = make_cnn(28, 1, 62, (32, 64), 128)
        x = rng.standard_normal((32, 1, 28, 28))
        y = rng.integers(0, 62, size=32)
        grad = model.gradient(x, y)
        assert grad.shape == (428_350,)
        assert hashlib.sha256(grad.tobytes()).hexdigest() == (
            "a9a308769f37e02be5da8436d1a2aba2ccca010c318af602ecd946305b092118"
        )

    @pytest.mark.parametrize("model_name, groups", [
        pytest.param("cnn", 25, id="25"), pytest.param("cnn", 1, id="1"),
        pytest.param("mlp", 37, id="mlp-37"),
    ])
    def test_blocked_rows_equal_serial_gradients(self, model_name, groups):
        # 25 suite-CNN clients in blocks of 2 leave a one-group last
        # block; G = 1 is a single one-group block; 37 suite-MLP clients
        # in blocks of 8 leave a five-group one.  Either way every row
        # is the bytes of that client's own gradient() call.
        model, xs, ys = _suite_stack(model_name, groups, seed=1)
        assert groups == 1 or groups % model.groups_per_block(xs[0])
        batched = model.gradients_batched(xs, ys)
        serial = np.stack([model.gradient(x, y) for x, y in zip(xs, ys)])
        assert batched.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("model_name, groups, passes", [
        pytest.param("cnn", 24, [2] * 12, id="cnn-24"),
        pytest.param("mlp", 24, [8] * 3, id="mlp-24"),
        pytest.param("mlp", 32, [8] * 4, id="mlp-32"),
        pytest.param("mlp", 48, [8] * 6, id="mlp-48"),
    ])
    def test_block_count_at_suite_geometries(
        self, model_name, groups, passes, monkeypatch
    ):
        # Non-vacuity of the blocking: the suite CNN runs in blocks of 2
        # (its 512 KiB conv-1 output), the suite MLP in blocks of 8 (its
        # 128 KiB first-layer weight gradient).
        model, xs, ys = _suite_stack(model_name, groups, seed=2)
        seen = []
        real = model._backprop

        def spy(x, y):
            seen.append(x.shape[0])
            return real(x, y)

        monkeypatch.setattr(model, "_backprop", spy)
        model.gradients_batched(xs, ys)
        assert seen == passes

    @pytest.mark.parametrize("model_name, groups, block", [
        *(pytest.param("mlp", g, 8, id=f"churn_robust-{g}")
          for g in range(30, 41)),
        pytest.param("mlp_sharded", 3, 1, id="mlp_sharded-3"),
        pytest.param("paper_mlp", 3, 1, id="paper_mlp-3"),
    ])
    def test_block_count_bounds_every_stack_a_pass_holds(
        self, model_name, groups, block, monkeypatch
    ):
        # churn_robust's deadline leaves ragged cohorts of 30-40 clients,
        # most with a short last block (37 -> 8, 8, 8, 8, 5).  Every
        # parameter-gradient stack and layer output a pass holds stays
        # within BLOCK_BYTES, or is one group's where a single group
        # exceeds it: the paper MLP's 3.2 MB first-layer weight gradient
        # runs one group a pass, and mlp_sharded's 640 KB one does too.
        model, xs, ys = _suite_stack(model_name, groups, seed=4)
        passes, held = [], []  # groups a pass, (groups, bytes) it held
        real = model._backprop

        def spy(x, y):
            passes.append(x.shape[0])
            grads = real(x, y)
            held.extend((x.shape[0], g.nbytes) for g in grads)
            return grads

        def watch(layer_forward):
            def forward(h):
                out = layer_forward(h)
                held.append((h.shape[0], out.nbytes))
                return out
            return forward

        monkeypatch.setattr(model, "_backprop", spy)
        for layer in model.network.layers:
            monkeypatch.setattr(layer, "forward", watch(layer.forward))
        model.gradients_batched(xs, ys)
        full, rest = divmod(groups, block)
        assert passes == [block] * full + [rest] * (rest > 0)
        assert held and all(
            nbytes <= BLOCK_BYTES or g == 1 for g, nbytes in held
        )

    @pytest.mark.parametrize("model_name, groups, ceiling_mib", [
        # A quarter of the 94.8 MiB the whole-stack pass peaked at.
        pytest.param("cnn", 24, 94.8 / 4, id="cnn_fixedk"),
        # The 8.25 MiB peak in blocks of 8 groups plus 10%.
        pytest.param("mlp", 32, 9.1, id="churn_robust"),
    ])
    def test_one_call_peak_memory_at_suite_geometries(
        self, model_name, groups, ceiling_mib
    ):
        # The first call on a fresh model, so the block-size probe is
        # inside the peak too.
        model, xs, ys = _suite_stack(model_name, groups, seed=3)
        tracemalloc.start()
        try:
            model.gradients_batched(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling_mib * 2**20

    @pytest.mark.parametrize("backend_name", ("serial",) + FAST_BACKENDS)
    def test_first_conv_input_gradient_never_computed(
        self, backend_name, monkeypatch
    ):
        # dLoss/dImage has no reader, so layer 0's _col2im must never run
        # (serial, grouped, and in the sharded workers, which fork after
        # the patch and count into shared memory).  Layer 3's must run:
        # that proves the spy is live where the gradients are computed.
        if backend_name == "sharded" and preferred_start_method() != "fork":
            pytest.skip("workers inherit the spy only when forked")
        calls = multiprocessing.Array("i", 2)  # [image-shaped, other]
        real = layers._col2im

        def spy(cols, x_shape, kernel, padding):
            with calls.get_lock():
                calls[int(x_shape[1] != 1)] += 1
            return real(cols, x_shape, kernel, padding)

        monkeypatch.setattr(layers, "_col2im", spy)
        trainer = _cnn_trainer(make_backend(backend_name))
        trainer.run(2, k=20)
        trainer.close()
        assert calls[0] == 0
        assert calls[1] > 0

    @pytest.mark.parametrize("geometry, sizes, blocks", [
        # Blocks of 8 cut where the batch size changes: 32 x 10, 5, 5,
        # 7, 32 x 3.
        pytest.param("mlp", [32] * 10 + [5, 5, 7] + [32] * 3,
                     [8, 2, 2, 1, 3], id="mlp"),
        pytest.param("cnn", [32] * 5, [2, 2, 1], id="cnn"),
        pytest.param("paper_mlp", [32] * 3, [1, 1, 1], id="paper_mlp"),
    ])
    @pytest.mark.parametrize("draw_probes", [False, True])
    def test_serial_step_holds_one_block_at_a_time(
        self, monkeypatch, geometry, sizes, blocks, draw_probes
    ):
        # Each block's grouped call, then that block's folds, before the
        # next block exists: the serial round holds one block of rows,
        # never the cohort's gradients (cohort × D floats), and no block
        # is wider than the grouped pass's own rule.
        model, clients = make_cohort(geometry, sizes, seed=6)
        events = []
        grouped = model.gradients_batched
        accumulate = Client.accumulate_gradient

        def spy_grouped(xs, ys):
            assert len(xs) <= model.groups_per_block(xs[0])
            events.append(("g", len(xs)))
            return grouped(xs, ys)

        def spy_accumulate(client, grad):
            events.append(("a", client.client_id))
            accumulate(client, grad)

        monkeypatch.setattr(model, "gradients_batched", spy_grouped)
        monkeypatch.setattr(Client, "accumulate_gradient", spy_accumulate)
        SerialBackend().local_steps(
            model, clients, 8, FABTopK(), draw_probes=draw_probes
        )
        expected, ids = [], iter(range(len(sizes)))
        for width in blocks:
            expected.append(("g", width))
            expected.extend(("a", next(ids)) for _ in range(width))
        assert events == expected

    def test_serial_step_peak_memory_at_paper_geometry(self):
        # Six paper-MLP clients (D = 433,726; one group a block), their
        # residuals already materialized.  The per-client loop this
        # backend replaced peaked at 10.40 MiB (a gradient or two and the
        # selection's temporaries); the whole-cohort grouped call peaked
        # at 27.97 MiB, holding all six rows.  10% over the former.
        model, clients = make_cohort("paper_mlp", [32] * 6, seed=7)
        for client in clients:
            client.residual[:] = 0.0
        tracemalloc.start()
        try:
            SerialBackend().local_steps(model, clients, 1000, FABTopK())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.40 * 1.1 * 2**20


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestEngineBehaviour:
    def test_run_until_loss_no_redundant_evaluation(self):
        trainer = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        calls = {"n": 0}
        original = trainer.model.loss_value

        def counting(x, y):
            calls["n"] += 1
            return original(x, y)

        trainer.model.loss_value = counting
        trainer.run_until_loss(target_loss=0.0, k=12, max_rounds=6)
        # Exactly one global-loss evaluation per round: the stopping rule
        # reuses the engine's recorded value instead of re-evaluating.
        assert calls["n"] == len(trainer.history) == 6
        # Every round's loss is recorded (no NaN gaps) for the loop...
        assert all(r.loss == r.loss for r in trainer.history)
        # ...while accuracy keeps the eval_every=4 cadence.
        evaluated = [r.accuracy is not None for r in trainer.history]
        assert evaluated == [True, False, False, True, False, False]

    def test_run_until_loss_stops_at_target(self):
        # The async trainer inherits the same loop (one step = one commit).
        for trainer in (
            _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"]),
            TestBackendEquivalence._async_trainer("serial"),
        ):
            start = trainer.global_loss()
            trainer.run_until_loss(
                target_loss=start * 0.9, k=20, max_rounds=500
            )
            assert trainer.history.records[-1].loss <= start * 0.9
            assert len(trainer.history) < 500

    def test_run_round_requires_sparsifier(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        trainer = AlwaysSendAllTrainer(model, fed, timing, seed=5)
        with pytest.raises(RuntimeError, match="sparsifier"):
            trainer.engine.run_round(5)

    def test_trainers_share_engine_state(self):
        trainer = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        trainer.step(12)
        assert trainer.round_index == trainer.engine.round_index == 1
        assert trainer.clock == trainer.engine.clock
        assert trainer.history is trainer.engine.history

    def test_resolve_backend(self):
        assert BACKEND_NAMES == ("serial", "sharded")
        assert resolve_backend(None).name == "serial"
        assert resolve_backend("serial").name == "serial"
        # The retired name the frozen benchmark workloads still pass.
        assert type(resolve_backend("vectorized")) is SerialBackend
        sharded = resolve_backend("sharded")
        assert sharded.name == "sharded"
        sharded.close()
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("bogus", ["warp-drive", "", "Serial"])
    def test_resolve_backend_rejects_unknown_names(self, bogus):
        # The error must name every valid backend so a bad --backend or
        # config value is self-diagnosing.
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            resolve_backend(bogus)
        for name in BACKEND_NAMES:
            assert name in str(excinfo.value)

    def test_config_validates_backend(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.smoke().with_overrides(backend="serial")
        assert config.backend == "serial"
        assert ExperimentConfig.smoke().with_overrides(
            backend="sharded", jobs=2
        ).jobs == 2
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig.smoke().with_overrides(backend="bogus")
        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig.smoke().with_overrides(jobs=-1)

    def test_cli_exposes_backend_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig4", "--backend", "serial"])
        assert args.backend == "serial"
        args = build_parser().parse_args(
            ["fig4", "--backend", "sharded", "--jobs", "4"]
        )
        assert args.backend == "sharded" and args.jobs == 4

    @pytest.mark.parametrize("argv", [
        ["fig4", "--backend", "vectorized"],
        ["sweep", "--backends", "serial", "vectorized"],
    ], ids=["figure", "sweep"])
    def test_cli_and_config_reject_vectorized(self, argv, capsys):
        # The retired backend is no choice anywhere a user names one:
        # the CLI exits 2 naming both backends, and a config refuses it.
        from repro.cli import build_parser
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "'vectorized'" in error
        assert "'serial'" in error and "'sharded'" in error
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig.smoke().with_overrides(backend="vectorized")

    def test_engine_close_shuts_backend_down(self):
        backend = ShardedBackend(jobs=2)
        trainer = _fl_trainer(backend, SPARSIFIER_FACTORIES["fab-top-k"])
        trainer.run(2, k=12)
        assert backend._pool is not None and backend._pool.alive
        trainer.close()
        assert backend._pool is None
        with pytest.raises(RuntimeError, match="close"):
            trainer.step(12)


# ----------------------------------------------------------------------
# One wire: nothing records what a client sent apart from ctx.uploads
# ----------------------------------------------------------------------
#: names only a wire record needed: what a client sent, apart from the wire
WIRE_RECORD_NAMES = {
    "put_on_wire", "sent_uploads", "preprocess_uploads_counterfactual",
}
#: the reset's parameters: participants and J, never an upload
RESET_PARAMS = {
    "reset_residuals": ["self", "participants", "selected"],
    "reset_transmitted": ["self", "selected"],
}
#: the identifier an ast node names, by node type
IDENTIFIERS = {
    ast.Name: lambda n: n.id,
    ast.Attribute: lambda n: n.attr,
    ast.FunctionDef: lambda n: n.name,
    ast.arg: lambda n: n.arg,
    ast.keyword: lambda n: n.arg,
}


def _wire_record_uses(name, tree):
    """Every place in one module's ``tree`` that keeps a second wire: a
    wire-record name, a call of ``preprocess_uploads``, or a residual
    reset defined or called with an upload."""
    found = []
    for node in ast.walk(tree):
        get = IDENTIFIERS.get(type(node))
        if get is not None and get(node) in WIRE_RECORD_NAMES:
            found.append(f"{name}:{node.lineno} {get(node)}")
        if isinstance(node, ast.FunctionDef) and node.name in RESET_PARAMS:
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            if (params != RESET_PARAMS[node.name] or node.args.kwonlyargs
                    or node.args.vararg or node.args.kwarg):
                found.append(f"{name}:{node.lineno} def {node.name}{params}")
        if isinstance(node, ast.Call):
            func = node.func
            called = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)
            )
            if called == "preprocess_uploads":
                found.append(f"{name}:{node.lineno} {called}()")
            if called in RESET_PARAMS and (
                len(node.args) != len(RESET_PARAMS[called]) - 1
                or node.keywords
            ):
                found.append(f"{name}:{node.lineno} {called}(...)")
    return found


#: what ChainedHooks fans out: the two points that change a round, the
#: charge, and the one point that learns
HOOK_POINTS = {"after_local_steps", "before_select", "extra_round_time",
               "observe"}
#: never-called RoundHooks stubs, kept only because the frozen suite
#: tracer (benchmarks/suite/trace.py) wraps ScenarioHooks' methods of
#: these names
SUITE_STUBS = ("after_aggregate", "after_update", "round_timing")
#: names nothing under src/ may define or use any more
GONE_NAMES = ("RoundObservation", "record_k", "_stale")
#: hook points that only read the round: assigning the wire there would
#: be a swap/restore
READ_ONLY_POINTS = ("extra_round_time", "observe")


def _hook_surface_uses(name, tree):
    """Every place in one module's ``tree`` that breaks the hook
    surface: a suite stub defined outside ``RoundHooks`` (in
    ``fl/engine.py``) or read as an attribute (called, chained,
    wrapped), a gone name defined or used, or a read-only hook point
    assigning ``ctx.uploads``."""
    stubs = {
        method
        for node in ast.walk(tree)
        if name == "fl/engine.py" and isinstance(node, ast.ClassDef)
        and node.name == "RoundHooks"
        for method in node.body
        if isinstance(method, ast.FunctionDef)
        and method.name in SUITE_STUBS
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if (node.name in GONE_NAMES
                    or node.name in SUITE_STUBS and node not in stubs):
                found.append(f"{name}:{node.lineno} def {node.name}")
            if node.name in READ_ONLY_POINTS:
                found += [
                    f"{name}:{target.lineno} {node.name} assigns .uploads"
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and target.attr == "uploads"
                    and isinstance(target.ctx, ast.Store)
                ]
        if isinstance(node, ast.Attribute) and node.attr in SUITE_STUBS:
            found.append(f"{name}:{node.lineno} uses .{node.attr}")
        used = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if used in GONE_NAMES:
            found.append(f"{name}:{node.lineno} uses {used}")
    return found, stubs


class TestOneWire:
    """``ctx.uploads`` is the wire and nothing keeps a second one: the
    residual reset zeroes ``J ∩ J_i`` by index (Algorithm 1, lines
    16–17), so no hook records what a client sent and no reset takes
    an upload."""

    def test_no_wire_record_and_no_hook_restores(self):
        # Also: per-upload facts are keyed by client id (no positional
        # staleness list), the engine charges the round (no hook returns
        # a timing or a recorded k), hooks change a round at two points
        # and learn at one (no after_aggregate/after_update hook, no
        # second feedback record), and ChainedHooks only fans out.
        src = pathlib.Path(__file__).parents[1] / "src" / "repro"
        records, surface, stubs, chained = [], [], set(), None
        for path in sorted(src.rglob("*.py")):
            name = str(path.relative_to(src))
            tree = ast.parse(path.read_text())
            records += _wire_record_uses(name, tree)
            found, kept = _hook_surface_uses(name, tree)
            surface += found
            stubs |= {method.name for method in kept}
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef) and name == "fl/engine.py"
                        and node.name == "ChainedHooks"):
                    chained = {
                        f.name for f in node.body
                        if isinstance(f, ast.FunctionDef)
                    }
        assert records == [], f"a second wire under src/: {records}"
        assert surface == [], f"outside the hook surface: {surface}"
        assert stubs == set(SUITE_STUBS)
        assert chained == {"__init__"} | HOOK_POINTS

    def test_the_hook_surface_lint_reads_defs_uses_and_restores(self):
        # Guard against a vacuous lint: each form it forbids is found,
        # and the engine's own stubs pass.
        engine = (
            "class RoundHooks:\n"
            "    def after_aggregate(self, ctx):\n"
            "        del ctx\n"
            "    def after_update(self, ctx):\n"
            "        del ctx\n"
        )
        found, stubs = _hook_surface_uses("fl/engine.py", ast.parse(engine))
        assert found == [] and len(stubs) == 2
        source = (
            "from repro.online.policy import RoundObservation\n"
            "class Knob(RoundHooks):\n"
            "    def after_update(self, ctx):\n"
            "        pass\n"
            "    def observe(self, ctx):\n"
            "        ctx.uploads = self.saved\n"
            "        hooks.after_aggregate(ctx)\n"
        )
        found, stubs = _hook_surface_uses("m.py", ast.parse(source))
        assert sorted(found) == [
            "m.py:1 uses RoundObservation",
            "m.py:3 def after_update",
            "m.py:6 observe assigns .uploads",
            "m.py:7 uses .after_aggregate",
        ] and stubs == set()

    def test_the_wire_lint_reads_names_calls_and_reset_signatures(self):
        # Guard against a vacuous lint: each form it forbids is found,
        # and the tree's own stub and resets pass.
        source = (
            "def reset_residuals(self, participants, uploads, selected):\n"
            "    ctx.put_on_wire(wire)\n"
            "    client.reset_transmitted(selected, upload.payload)\n"
            "    return sparsifier.preprocess_uploads(uploads)\n"
            "def reset_transmitted(self, selected):\n"
            "    backend.reset_residuals(participants, selected)\n"
            "def preprocess_uploads(self, uploads):\n"
            "    sent = {}\n"
        )
        found = _wire_record_uses("m.py", ast.parse(source))
        assert sorted(found) == [
            "m.py:1 def reset_residuals['self', 'participants', 'uploads', "
            "'selected']",
            "m.py:2 put_on_wire",
            "m.py:3 reset_transmitted(...)",
            "m.py:4 preprocess_uploads()",
        ]


# ----------------------------------------------------------------------
# Hook event order: what a traced round emits, and when
# ----------------------------------------------------------------------
def _event_order(events):
    """One line per round, in emission order: each event's type (a
    span's name), grouped by consecutive equal round."""
    lines, last = [], None
    for event in events:
        label = event["name"] if event["type"] == "span" else event["type"]
        if event["round"] != last:
            lines.append(f"{event['round']}:")
            last = event["round"]
        lines[-1] += f" {label}"
    return lines


#: churn + over-selection, a sign-flip quarter under the trimmed mean,
#: the learned deadline (both replays) and the learned k
CHURN_EVENT_ORDER = [
    "1: drop deadline probe round",
    "2: recovery drop deadline probe round",
    "3: drop flagged deadline probe round",
    "4: drop flagged deadline probe round",
    "5: recovery drop flagged deadline probe round",
    "6: flagged deadline probe round",
    "7: recovery flagged deadline probe round",
    "8: deadline probe round",
]
#: adaptive-discount commits of 4 under a sign-flip 30% and the trimmed
#: mean, with the learned k (commit 6 flags nobody)
ASYNC_EVENT_ORDER = [
    f"{m}:" + " async.arrival" * 4
    + ("" if m == 6 else " flagged") + " probe round"
    for m in range(1, 9)
]


class TestHookEventOrder:
    """The hooks' telemetry lands where it always did: a deadline
    round's drop/recovery before its flags, the deadline walk, the k
    probe and the round record; a commit's arrivals before the same."""

    def test_churn_robust_adaptive_deadline_learned_k(self):
        config = ScenarioConfig(
            availability="markov", p_drop=0.2, p_recover=0.6,
            participants=6, over_selection=0.5, deadline=8.0,
            deadline_policy="adaptive", deadline_min=1.5,
            deadline_max=20.0, slow_fraction=0.25, slow_factor=4.0,
            adversary="sign_flip", adversary_fraction=0.25,
            aggregator="trimmed_mean", seed=9,
        )
        fed = _federation(num_writers=10, seed=9)
        model = make_mlp(64, 10, hidden=(6,), seed=9)
        ids = [c.client_id for c in fed.clients]
        profiles = config.build_profiles(ids)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        events = EventList()
        trainer = FLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.5,
            batch_size=8, eval_every=2, seed=9, backend="serial",
            scenario=DeploymentScenario.build(config, ids, timing, profiles),
            telemetry=Telemetry(sink=events),
        )
        trainer.run(8, _learned_k_policy(model))
        assert _event_order(events) == CHURN_EVENT_ORDER

    def test_adaptive_async_adversary_learned_k(self):
        events = EventList()
        trainer, _ = _async_matrix_trainer(
            "serial", ScenarioConfig(
                availability="always", adversary="sign_flip",
                adversary_fraction=0.3, aggregator="trimmed_mean", seed=5,
            ), Telemetry(sink=events), discount="adaptive",
        )
        trainer.run(8, _learned_k_policy(trainer.model))
        assert _event_order(events) == ASYNC_EVENT_ORDER
        rounds = [e for e in events if e["type"] == "round"]
        assert all("probe_exponent" in e for e in rounds)


# ----------------------------------------------------------------------
# One owner of client speeds: the timing model
# ----------------------------------------------------------------------
#: the two ``profiles`` parameters outside ``simulation/`` — kept, and
#: checked against the timing model's map, only because the frozen
#: benchmark suite passes them
SUITE_KEPT_PROFILES = {
    ("scenarios/scenario.py", "DeploymentScenario.build"),
    ("fl/async_engine.py", "AsyncFLTrainer.__init__"),
}


def _speed_owner_violations(src):
    """Every place under the package root ``src`` that keeps or computes
    client speeds beside the timing model: a ``profiles`` parameter or
    attribute outside ``simulation/`` (the suite-kept pair aside), an
    unbound ``TimingModel.<method>(...)`` call, and an import of
    ``repro.scenarios`` from ``fl/``."""
    found = []

    def visit(node, name, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.FunctionDef) and not name.startswith(
                "simulation/"):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                if (arg.arg == "profiles" and (name, ".".join(scope))
                        not in SUITE_KEPT_PROFILES):
                    found.append(f"{name}:{arg.lineno} profiles parameter")
        if (isinstance(node, ast.Attribute) and node.attr == "profiles"
                and isinstance(node.ctx, ast.Store)
                and not name.startswith("simulation/")):
            found.append(f"{name}:{node.lineno} .profiles attribute")
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id.endswith("TimingModel")):
            found.append(
                f"{name}:{node.lineno} {node.func.value.id}."
                f"{node.func.attr}()"
            )
        if name.startswith("fl/"):
            modules = (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
                if isinstance(node, ast.Import) else []
            )
            if any(m.startswith(("repro.scenarios", "scenarios"))
                   for m in modules):
                found.append(f"{name}:{node.lineno} imports repro.scenarios")
        for child in ast.iter_child_nodes(node):
            visit(child, name, scope)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()),
              path.relative_to(src).as_posix(), ())
    return found


def _speed_parts(profiles_fraction=0.5):
    fed = _federation(num_writers=4, seed=3)
    model = make_mlp(64, 10, hidden=(6,), seed=3)
    ids = [c.client_id for c in fed.clients]
    config = ScenarioConfig(availability="always", deadline=3.0,
                            slow_fraction=profiles_fraction, seed=3)
    return fed, model, ids, config, config.build_profiles(ids)


class TestOneOwnerOfClientSpeeds:
    """The timing model answers every per-client timing question — the
    slowest-participant round, each upload's arrival, the broadcast —
    from its one ``client id -> ClientProfile`` map; nothing else keeps
    a copy."""

    def test_no_second_map_and_no_second_formula(self):
        src = pathlib.Path(__file__).parents[1] / "src" / "repro"
        assert _speed_owner_violations(src) == []

    def test_the_speed_lint_reads_parameters_attributes_calls_imports(
            self, tmp_path):
        # Guard against a vacuous lint on a throwaway package: each form
        # it forbids is found, and simulation/ and the suite-kept pair
        # pass.
        for name, source in {
            "simulation/timing.py": (
                "class TimingModel:\n"
                "    def __init__(self, profiles):\n"
                "        self.profiles = profiles\n"
            ),
            "fl/engine.py": (
                "def charge(timing, profiles):\n"
                "    from repro.scenarios.deadline import gate\n"
                "    return TimingModel.sparse_round(timing, 0, 1)\n"
                "class Engine:\n"
                "    def __init__(self, timing):\n"
                "        self.profiles = timing.profiles\n"
            ),
            "fl/async_engine.py": (
                "import repro.scenarios\n"
                "class AsyncFLTrainer:\n"
                "    def __init__(self, timing, profiles=None):\n"
                "        HeterogeneousTimingModel.dense_round(timing)\n"
            ),
            "scenarios/scenario.py": (
                "from repro.scenarios.deadline import gate\n"
                "class DeploymentScenario:\n"
                "    def build(cls, config, timing, profiles=None):\n"
                "        return timing.arrival_times([], [])\n"
                "class ScenarioHooks:\n"
                "    def __init__(self, timing, *, profiles=None):\n"
                "        pass\n"
            ),
        }.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(source)
        assert _speed_owner_violations(tmp_path) == [
            "fl/async_engine.py:1 imports repro.scenarios",
            "fl/async_engine.py:4 HeterogeneousTimingModel.dense_round()",
            "fl/engine.py:1 profiles parameter",
            "fl/engine.py:2 imports repro.scenarios",
            "fl/engine.py:3 TimingModel.sparse_round()",
            "fl/engine.py:6 .profiles attribute",
            "scenarios/scenario.py:6 profiles parameter",
        ]

    def test_suite_kept_profiles_must_be_the_timing_models(self):
        fed, model, ids, config, profiles = _speed_parts()
        timing = HeterogeneousTimingModel(model.dimension, 10.0, profiles)
        # The timing's own profiles pass, as a list or as its own map.
        DeploymentScenario.build(config, ids, timing, profiles)
        DeploymentScenario.build(config, ids, timing, timing.profiles)
        AsyncFLTrainer(model, fed, FABTopK(), timing, profiles=profiles)
        other = [ClientProfile(cid, compute_factor=2.0) for cid in ids]
        for wrong in (other, profiles[:-1], profiles + profiles[:1],
                      dict(timing.profiles)):
            with pytest.raises(ValueError, match="timing model's own"):
                DeploymentScenario.build(config, ids, timing, wrong)
            with pytest.raises(ValueError, match="timing model's own"):
                AsyncFLTrainer(model, fed, FABTopK(), timing, profiles=wrong)
        with pytest.raises(ValueError, match="timing model's own"):
            AsyncFLTrainer(model, fed, FABTopK(), profiles=profiles)

    def test_stragglers_need_a_timing_that_knows_them(self):
        # Without this the gate would time every client at unit speed.
        fed, model, ids, config, profiles = _speed_parts()
        with pytest.raises(ValueError, match="carries no client profiles"):
            DeploymentScenario.build(
                config, ids, TimingModel(model.dimension, 10.0)
            )
        DeploymentScenario.build(
            config.with_overrides(slow_fraction=0.0), ids,
            TimingModel(model.dimension, 10.0),
        )

    def test_gate_and_engine_time_clients_with_the_one_map(self):
        # A straggler the timing knows misses the deadline, and the
        # broadcast after the gate's close is paced by its slow link.
        fed, model, ids, config, profiles = _speed_parts(0.25)
        timing = HeterogeneousTimingModel(model.dimension, 10.0, profiles)
        trainer = FLTrainer(
            model, fed, FABTopK(), timing=timing, seed=3,
            scenario=DeploymentScenario.build(config, ids, timing),
        )
        record = trainer.step(10)
        slow = [p.client_id for p in profiles if p.compute_factor > 1.0]
        assert len(slow) == 1
        assert trainer.engine.scenario_hooks.stats.rounds[0].dropped_ids == (
            tuple(slow)
        )
        assert record.round_time == 3.0 + timing.broadcast_time(
            ids, record.downlink_elements
        )


# ----------------------------------------------------------------------
# One J a round: the selection is J's one membership structure
# ----------------------------------------------------------------------
#: numpy's sorting set operations; under fl/ and sparsify/ J's membership
#: is the selection's position map (or a dense flag vector) instead
SORTING_SET_OPS = {
    "intersect1d", "isin", "in1d", "setdiff1d", "union1d", "unique",
}


def _sorting_set_op_calls(name, tree):
    """Every call of a sorting set operation in one module's ``tree``,
    as ``np.unique(...)`` or as a bare imported ``unique(...)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)
            )
            if called in SORTING_SET_OPS:
                found.append(f"{name}:{node.lineno} {called}()")
    return found


class TestNoSortingSetOps:
    """No module under ``fl/`` or ``sparsify/`` sorts to test set
    membership: the round's selection carries J's position map."""

    def test_fl_and_sparsify_call_no_sorting_set_operation(self):
        src = pathlib.Path(__file__).parents[1] / "src" / "repro"
        found, modules = [], 0
        for package in ("fl", "sparsify"):
            for path in sorted((src / package).rglob("*.py")):
                modules += 1
                found += _sorting_set_op_calls(
                    str(path.relative_to(src)), ast.parse(path.read_text())
                )
        assert modules >= 15
        assert found == [], f"sorting set operations: {found}"

    def test_the_set_operation_lint_reads_calls(self):
        # Guard against a vacuous lint: each forbidden call is found in
        # either spelling, and names that only resemble one are not.
        source = (
            "np.intersect1d(a, b, assume_unique=True)\n"
            "numpy.isin(a, b)\n"
            "np.in1d(a, b)\n"
            "np.setdiff1d(a, b)\n"
            "np.union1d(a, b)\n"
            "unique(a)\n"
            "np.sort(a); np.flatnonzero(flags); unique_ids = set(a)\n"
        )
        found = _sorting_set_op_calls("m.py", ast.parse(source))
        assert found == [
            "m.py:1 intersect1d()", "m.py:2 isin()", "m.py:3 in1d()",
            "m.py:4 setdiff1d()", "m.py:5 union1d()", "m.py:6 unique()",
        ]


def _churn_robust_round_trainer():
    """A small round shaped like the suite's ``churn_robust``: churn with
    over-selection, the learned deadline (its probes re-aggregate), a
    sign-flip quarter and the trimmed mean."""
    config = ScenarioConfig(
        availability="markov", p_drop=0.2, p_recover=0.6, participants=4,
        over_selection=0.5, deadline=2.0, deadline_policy="adaptive",
        deadline_min=1.5, deadline_max=9.0, slow_fraction=0.25,
        slow_factor=4.0, adversary="sign_flip", adversary_fraction=0.25,
        adversary_scale=1.0, aggregator="trimmed_mean", seed=9,
    )
    fed = _federation(num_writers=6, seed=9)
    model = make_mlp(64, 10, hidden=(6,), seed=9)
    ids = [c.client_id for c in fed.clients]
    profiles = config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    return FLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.5,
        batch_size=8, eval_every=2, seed=9, backend="serial",
        scenario=DeploymentScenario.build(config, ids, timing, profiles),
    )


class TestOneSelectionPerRound:
    """J's membership is built once a round: ``server_select`` builds the
    round's :class:`SelectionResult` (position map and contributions),
    and every aggregate — counterfactual re-aggregations included — the
    robust view and the residual reset read that one object."""

    @staticmethod
    def _spy(monkeypatch):
        built, read = [], []
        build = SelectionResult.__init__

        def counting_build(self, *args, **kwargs):
            built.append(self)
            build(self, *args, **kwargs)

        def reading(cls, method):
            original = getattr(cls, method)

            def spy(self, first, selection, *args, **kwargs):
                read.append((method, selection))
                return original(self, first, selection, *args, **kwargs)

            monkeypatch.setattr(cls, method, spy)

        monkeypatch.setattr(SelectionResult, "__init__", counting_build)
        reading(Server, "aggregate")
        reading(_CoordinateView, "__init__")
        reading(ExecutionBackend, "reset_residuals")
        return built, read

    @staticmethod
    def _rounds(trainer, k, monkeypatch, count):
        """Per round: (builds, consumers' reads) of its selections."""
        built, read = TestOneSelectionPerRound._spy(monkeypatch)
        rounds = []
        for _ in range(count):
            del built[:], read[:]
            trainer.step(k)
            rounds.append((list(built), list(read)))
        return rounds

    def _assert_one_build(self, rounds, aggregates):
        for built, read in rounds:
            assert len(built) == 1
            assert all(selection is built[0] for _, selection in read)
            assert [m for m, _ in read].count("reset_residuals") == 1
        # The shaped round really occurs: this many aggregate calls.
        assert any(
            [m for m, _ in read].count("aggregate") == aggregates
            for _, read in rounds
        )

    def test_churn_robust_round_builds_one_map(self, monkeypatch):
        trainer = _churn_robust_round_trainer()
        rounds = self._rounds(trainer, 10, monkeypatch, 8)
        self._assert_one_build(rounds, aggregates=3)
        # Every aggregate here is robust: each one's view read the map.
        for _, read in rounds:
            methods = [m for m, _ in read]
            assert methods.count("__init__") == methods.count("aggregate")

    def test_adaptive_async_commit_builds_one_map(self, monkeypatch):
        trainer = _golden_async_adaptive_trainer()
        self._assert_one_build(
            self._rounds(trainer, 30, monkeypatch, 8), aggregates=2
        )


# ----------------------------------------------------------------------
# Telemetry bit-identity: traced runs equal untraced runs exactly
# ----------------------------------------------------------------------
ALL_BACKENDS = ("serial",) + FAST_BACKENDS


class TestTelemetryBitIdentity:
    """Telemetry is observation-only on every backend.

    Enabling tracing must change nothing: histories, final weights, and
    residuals are byte-equal to the untraced run (the no-RNG /
    no-numeric-state invariant of :mod:`repro.obs`), including under a
    deployment scenario with the online-adapted deadline — the
    configuration with the most instrumented code paths (drop/recovery/
    deadline events plus counterfactual replays).
    """

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_fl_run_identical_with_tracing(self, backend_name, tmp_path):
        from repro.obs import ENGINE_PHASES, JsonlSink, Telemetry
        from repro.obs import summarize_trace

        factory = SPARSIFIER_FACTORIES["fab-top-k"]
        plain = _fl_trainer(make_backend(backend_name), factory)
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = _fl_trainer(make_backend(backend_name), factory,
                             telemetry=telemetry)
        hp = plain.run(8, k=12)
        ht = traced.run(8, k=12)
        telemetry.close()
        assert history_rows(hp) == history_rows(ht)
        assert contribution_rows(hp) == contribution_rows(ht)
        np.testing.assert_array_equal(
            plain.model.get_weights(), traced.model.get_weights()
        )
        for cp, ct in zip(plain.clients, traced.clients):
            np.testing.assert_array_equal(cp.residual, ct.residual)
        plain.close()
        traced.close()
        # The trace itself is schema-valid and covers every engine phase.
        summary = summarize_trace(tmp_path / "trace.jsonl")
        assert summary["rounds"] == 8
        assert summary["phases"] == sorted(ENGINE_PHASES)
        # A clean traced run raises no health alerts.
        assert summary["health"]["healthy"]
        if backend_name == "sharded":
            # Worker-side tracing rode the result pipe: merged spans are
            # attributed to worker processes, one per request per worker.
            workers = [p for p in summary["span_seconds_by_process"]
                       if p.startswith("worker-")]
            assert sorted(workers) == ["worker-0", "worker-1"]
            for worker in workers:
                spans = summary["span_seconds_by_process"][worker]
                assert set(spans) == {"worker.gradients"}

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_scenario_adaptive_deadline_identical_with_tracing(
        self, backend_name, tmp_path
    ):
        from repro.obs import JsonlSink, Telemetry, summarize_trace
        from repro.scenarios import DeploymentScenario, ScenarioConfig
        from repro.simulation.heterogeneous import HeterogeneousTimingModel

        churn = ScenarioConfig(
            availability="markov", p_drop=0.2, p_recover=0.6,
            participants=5, over_selection=0.4,
            deadline=(2.5, 2.5, 9.0), deadline_policy="adaptive",
            slow_fraction=0.25, slow_factor=4.0, seed=5,
        )

        def build(backend, telemetry=None):
            fed = _federation(seed=5)
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            ids = [c.client_id for c in fed.clients]
            profiles = churn.build_profiles(ids)
            timing = HeterogeneousTimingModel(
                model.dimension, comm_time=10.0, profiles=profiles
            )
            scenario = DeploymentScenario.build(churn, ids, timing, profiles)
            return FLTrainer(
                model, fed, FABTopK(), timing=timing, learning_rate=0.05,
                batch_size=8, eval_every=3, seed=5, backend=backend,
                scenario=scenario, telemetry=telemetry,
            )

        plain = build(make_backend(backend_name))
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = build(make_backend(backend_name), telemetry=telemetry)
        hp = plain.run(8, k=12)
        ht = traced.run(8, k=12)
        telemetry.close()
        assert history_rows(hp) == history_rows(ht)
        np.testing.assert_array_equal(
            plain.model.get_weights(), traced.model.get_weights()
        )
        for cp, ct in zip(plain.clients, traced.clients):
            np.testing.assert_array_equal(cp.residual, ct.residual)
        plain.close()
        traced.close()
        summary = summarize_trace(tmp_path / "trace.jsonl")
        assert summary["rounds"] == 8
        assert summary["events"].get("deadline", 0) == 8

    def test_adaptive_k_probe_events_identical_with_tracing(self, tmp_path):
        from repro.obs import JsonlSink, Telemetry, summarize_trace

        def build(telemetry=None):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            policy = SignPolicy(
                SignOGD(SearchInterval(2.0, float(model.dimension)))
            )
            return AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                                    learning_rate=0.05, batch_size=8,
                                    eval_every=2, seed=5,
                                    telemetry=telemetry)

        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = build(telemetry=telemetry)
        assert history_rows(build().run(6)) == history_rows(traced.run(6))
        telemetry.close()
        summary = summarize_trace(tmp_path / "trace.jsonl")
        assert summary["rounds"] == 6
        assert summary["events"]["probe"] == 6

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_async_adaptive_discount_identical_with_tracing(
        self, backend_name, tmp_path
    ):
        # The third learned knob is visible in the trace — every commit's
        # ``round`` event carries the exponent it played and the a' it
        # probed (None on stale-free commits) — and reading it changes
        # nothing.
        from repro.obs import JsonlSink, Telemetry
        from repro.obs.events import validate_event

        def build(backend, telemetry=None):
            fed = _federation(seed=5)
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            profiles, timing = _golden_async_profiles(model, fed)
            return AsyncFLTrainer(
                model, fed, FABTopK(), timing=timing, learning_rate=0.3,
                batch_size=8, eval_every=3, seed=5, backend=backend,
                discount="adaptive", commit_count=4, profiles=profiles,
                telemetry=telemetry,
            )

        plain = build(make_backend(backend_name))
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = build(make_backend(backend_name), telemetry=telemetry)
        hp = plain.run(10, k=12)
        ht = traced.run(10, k=12)
        telemetry.close()
        assert history_rows(hp) == history_rows(ht)
        assert (plain.discount.exponent_history
                == traced.discount.exponent_history)
        assert len(set(traced.discount.exponent_history)) > 1
        np.testing.assert_array_equal(
            plain.model.get_weights(), traced.model.get_weights()
        )
        for cp, ct in zip(plain.clients, traced.clients):
            np.testing.assert_array_equal(cp.residual, ct.residual)
        plain.close()
        traced.close()
        events = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        for event in events:
            validate_event(event)
        rounds = [e for e in events if e["type"] == "round"]
        assert [e["exponent"] for e in rounds] == (
            traced.discount.exponent_history[:-1]
        )
        probed = [e["probe_exponent"] for e in rounds]
        for event, a_probe in zip(rounds, probed):
            if event["staleness_max"] == 0:
                assert a_probe is None
            else:
                assert 0.0 < a_probe < event["exponent"]
        assert None in probed and any(p is not None for p in probed)
