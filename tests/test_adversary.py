"""Adversarial-robustness subsystem tests.

The PR's acceptance criteria, mirrored on the scenario suite's four
guarantees:

(a) **Backend bit-identity under attack** — every attack × defense
    configuration produces identical histories, weights and residuals
    on the serial, vectorized and sharded backends (corruption and
    robust aggregation are parent-side, like all scenario logic).
(b) **Residual honesty + exact poisoned recovery** — an adversary's
    error-feedback state evolves exactly as if the honest upload had
    been sent, and a deadline-dropped poisoned client's gradient
    re-enters through FAB/top-k residual accumulation exactly: the
    recovered wire payload is the attack applied to the honestly
    accumulated gradients.
(c) **Degenerate identity** — adversary "none" + aggregator "mean"
    reproduces the plain trainer byte for byte (no corruption seam, no
    aggregator object — the original server path runs unchanged).
(d) **Golden adversarial history** — a pinned churn + sign-flip +
    trimmed-mean run guards attack and defense semantics absolutely.

Plus unit coverage of the attack processes (property-based purity —
invariant (a) rests on it), the robust aggregators (scale
compatibility, outlier rejection, norm clipping of singleton-support
coordinates, the ``commit=False`` probe discipline), config validation,
``flagged`` telemetry, the panel driver, and the CLI/sweep threading.
"""

import json
import pathlib

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.engine import RoundHooks
from repro.fl.robust import (
    AGGREGATOR_KINDS,
    CosineReputationAggregator,
    MedianAggregator,
    TrimmedMeanAggregator,
    build_aggregator,
)
from repro.fl.server import Server
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.obs import EVENT_TYPES, open_telemetry, validate_event
from repro.parallel.sharded import ShardedBackend
from repro.scenarios import (
    ADVERSARY_KINDS,
    AdversaryModel,
    AdversaryProcess,
    DeploymentScenario,
    NoiseAdversary,
    ScenarioConfig,
    SignFlipAdversary,
    build_adversary,
)
from repro.scenarios.adversary import _PROCESS_CLASSES
from repro.simulation.heterogeneous import (
    ClientProfile,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.base import ClientUpload, SelectionResult, SparseVector
from repro.sparsify.fab_topk import FABTopK

from helpers import to_dense

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_histories.json"

ATTACK_KINDS = tuple(k for k in ADVERSARY_KINDS if k != "none")
ROBUST_KINDS = tuple(k for k in AGGREGATOR_KINDS if k != "mean")


def history_rows(history):
    return [
        (
            r.round_index, r.k, r.round_time, r.cumulative_time,
            None if np.isnan(r.loss) else r.loss, r.accuracy,
            r.uplink_elements, r.downlink_elements,
            tuple(sorted(r.contributions.items())),
        )
        for r in history
    ]


def _federation(seed=5, num_writers=8):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=16,
                           num_classes=8, image_size=8, classes_per_writer=4,
                           seed=seed)
    return partition_by_writer(ds, seed=seed)


#: churn + deadline + stragglers + sign-flip adversaries — the
#: bit-identity matrix's base regime (seed 5 designates clients 2 and 4
#: among the 8-writer federation).
ATTACK_CHURN = ScenarioConfig(
    availability="markov",
    p_drop=0.2,
    p_recover=0.6,
    participants=5,
    over_selection=0.4,
    deadline=(2.5, 2.5, 9.0),
    slow_fraction=0.25,
    slow_factor=4.0,
    adversary="sign_flip",
    adversary_fraction=0.3,
    aggregator="trimmed_mean",
    seed=5,
)


def _scenario_trainer(backend, scenario_config=ATTACK_CHURN, seed=5):
    fed = _federation(seed=seed)
    model = make_mlp(64, 8, hidden=(10,), seed=seed)
    ids = [c.client_id for c in fed.clients]
    profiles = scenario_config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = DeploymentScenario.build(scenario_config, ids, timing, profiles)
    trainer = FLTrainer(
        model, fed, FABTopK(), timing=timing,
        learning_rate=0.05, batch_size=8, eval_every=3, seed=seed,
        backend=backend, scenario=scenario,
    )
    return trainer, scenario


# ----------------------------------------------------------------------
# Attack-process purity
# ----------------------------------------------------------------------
class TestAdversaryProcessPurity:
    """Corruption is a pure function of (seed, cid, round, values)."""

    def test_designation_is_per_client_and_order_independent(self):
        first = AdversaryModel("sign_flip", 0.4, seed=9)
        second = AdversaryModel("scale", 0.4, seed=9)
        forward = [first.is_adversary(c) for c in range(32)]
        backward = [second.is_adversary(c) for c in reversed(range(32))]
        assert forward == backward[::-1]
        # The law is the documented tagged Bernoulli draw.
        for cid in range(32):
            draw = np.random.default_rng((9, 0xBAD0, cid)).random()
            assert first.is_adversary(cid) == (draw < 0.4)

    def test_designation_extremes(self):
        nobody = AdversaryModel("sign_flip", 0.0, seed=3)
        everyone = AdversaryModel("sign_flip", 1.0, seed=3)
        assert not any(nobody.is_adversary(c) for c in range(20))
        assert all(everyone.is_adversary(c) for c in range(20))

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_corruption_repeatable_across_instances(self, kind):
        values = np.linspace(-2.0, 3.0, 17)
        a = _PROCESS_CLASSES[kind](seed=7, scale=10.0)
        b = _PROCESS_CLASSES[kind](seed=7, scale=10.0)
        first = a.corrupt(values, client_id=4, round_index=3)
        # Interleave unrelated calls: purity means they cannot matter.
        a.corrupt(values, client_id=1, round_index=1)
        a.corrupt(np.ones(4), client_id=4, round_index=9)
        np.testing.assert_array_equal(
            first, a.corrupt(values, client_id=4, round_index=3)
        )
        np.testing.assert_array_equal(
            first, b.corrupt(values, client_id=4, round_index=3)
        )

    def test_noise_varies_by_client_and_round(self):
        adv = NoiseAdversary(seed=7, scale=1.0)
        values = np.ones(16)
        base = adv.corrupt(values, client_id=0, round_index=1)
        assert not np.array_equal(
            base, adv.corrupt(values, client_id=1, round_index=1)
        )
        assert not np.array_equal(
            base, adv.corrupt(values, client_id=0, round_index=2)
        )

    def test_corrupt_upload_is_wire_only(self):
        model = AdversaryModel("sign_flip", 1.0, seed=0, scale=10.0)
        indices = np.array([2, 5, 9], dtype=np.int64)
        values = np.array([1.0, -2.0, 0.5])
        honest = values.copy()
        upload = ClientUpload(
            client_id=3,
            payload=SparseVector.from_sorted(indices, values, 12),
            sample_count=4,
        )
        poisoned = model.corrupt_upload(upload, round_index=1)
        # Support is preserved by identity — the vectorized backend's
        # fast residual reset keys on the exact indices array object.
        assert poisoned.payload.indices is indices
        assert poisoned.payload.dimension == 12
        assert poisoned.sample_count == 4
        np.testing.assert_array_equal(poisoned.payload.values, -10.0 * honest)
        # The honest payload (and the client's bookkeeping it feeds)
        # is untouched.
        np.testing.assert_array_equal(upload.payload.values, honest)

    def test_build_adversary_degenerate(self):
        assert build_adversary(ScenarioConfig(availability="always")) is None
        assert build_adversary(ScenarioConfig(
            availability="always", adversary="scale", adversary_fraction=0.0,
        )) is None
        built = build_adversary(ScenarioConfig(
            availability="always", adversary="scale", adversary_fraction=0.5,
            adversary_scale=3.0, seed=2,
        ))
        assert built is not None and built.process.scale == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary kind"):
            AdversaryModel("gaussian", 0.5, seed=0)
        with pytest.raises(ValueError, match="fraction must be in"):
            AdversaryModel("sign_flip", 1.5, seed=0)
        with pytest.raises(ValueError, match="scale must be positive"):
            SignFlipAdversary(seed=0, scale=0.0)
        with pytest.raises(NotImplementedError):
            AdversaryProcess(seed=0).corrupt(np.ones(3), 0, 1)

    if HAVE_HYPOTHESIS:

        @settings(max_examples=50, deadline=None)
        @given(
            kind=st.sampled_from(ATTACK_KINDS),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            cid=st.integers(min_value=0, max_value=10_000),
            round_index=st.integers(min_value=1, max_value=10_000),
            values=st.lists(
                st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, width=32),
                min_size=1, max_size=32,
            ),
        )
        def test_corruption_is_pure(self, kind, seed, cid, round_index,
                                    values):
            array = np.array(values, dtype=np.float64)
            a = _PROCESS_CLASSES[kind](seed=seed, scale=10.0)
            b = _PROCESS_CLASSES[kind](seed=seed, scale=10.0)
            first = a.corrupt(array, cid, round_index)
            a.corrupt(array[::1], cid + 1, round_index)  # unrelated call
            np.testing.assert_array_equal(
                first, a.corrupt(array, cid, round_index)
            )
            np.testing.assert_array_equal(
                first, b.corrupt(array, cid, round_index)
            )
            np.testing.assert_array_equal(array, np.array(values))

        @settings(max_examples=50, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            fraction=st.floats(min_value=0.0, max_value=1.0,
                               allow_nan=False),
            cids=st.lists(st.integers(min_value=0, max_value=10_000),
                          min_size=1, max_size=32),
        )
        def test_designation_is_pure(self, seed, fraction, cids):
            a = AdversaryModel("topk", fraction, seed=seed)
            b = AdversaryModel("noise", fraction, seed=seed)
            assert [a.is_adversary(c) for c in cids] == [
                b.is_adversary(c) for c in reversed(cids)
            ][::-1]


# ----------------------------------------------------------------------
# Robust aggregator units
# ----------------------------------------------------------------------
def _upload(cid, indices, values, dimension=16, samples=8):
    return ClientUpload(
        client_id=cid,
        payload=SparseVector.from_sorted(
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            dimension,
        ),
        sample_count=samples,
    )


def _selection(indices):
    return SelectionResult(np.asarray(indices, dtype=np.int64), [], 16)


class TestRobustAggregators:

    def test_unanimous_uploads_reproduce_plain_mean(self):
        # With every client uploading the same support and values, every
        # robust center equals the per-uploader mean, and the support-
        # weight rescaling must reproduce the plain server's b_j exactly.
        uploads = [
            _upload(cid, [1, 4, 7], [0.5, -1.0, 2.0]) for cid in range(5)
        ]
        selection = _selection([1, 4, 7])
        reference = Server(16).aggregate(uploads, selection)
        for kind in ROBUST_KINDS:
            robust = build_aggregator(kind).aggregate(uploads, selection, 16)
            np.testing.assert_array_equal(
                to_dense(robust.payload),
                to_dense(reference.payload),
                err_msg=kind,
            )

    def test_trimmed_mean_rejects_outlier(self):
        aggregator = TrimmedMeanAggregator(trim_fraction=0.25)
        aggregator.clip_factor = None  # isolate the order statistic
        uploads = [_upload(c, [3], [1.0]) for c in range(4)]
        uploads.append(_upload(9, [3], [1000.0]))
        result = aggregator.aggregate(uploads, _selection([3]), 16)
        # trim = min(int(0.25·5), 2) = 1 each side -> mean of three 1.0s,
        # rescaled by the support-weight share (all 5 uploaded j).
        np.testing.assert_allclose(to_dense(result.payload)[3], 1.0)

    def test_median_ignores_minority(self):
        aggregator = MedianAggregator()
        aggregator.clip_factor = None
        uploads = [
            _upload(0, [3], [-500.0]), _upload(1, [3], [1.0]),
            _upload(2, [3], [1.0]), _upload(3, [3], [1.0]),
            _upload(4, [3], [500.0]),
        ]
        result = aggregator.aggregate(uploads, _selection([3]), 16)
        np.testing.assert_allclose(to_dense(result.payload)[3], 1.0)

    def test_norm_clipping_bounds_singleton_support(self):
        # A coordinate only the adversary uploaded has nothing to trim —
        # the norm clip is what bounds it to honest magnitude.
        honest = [_upload(c, [1], [1.0]) for c in range(4)]
        poisoned = _upload(9, [8], [100.0])
        aggregator = TrimmedMeanAggregator()
        result = aggregator.aggregate(
            honest + [poisoned], _selection([1, 8]), 16
        )
        dense = to_dense(result.payload)
        # clip bound = 2 × median norm = 2.0; the singleton coordinate's
        # center is at most that, times its 8/40 support-weight share.
        assert abs(dense[8]) <= 2.0 * (8.0 / 40.0) + 1e-12
        clipped = TrimmedMeanAggregator()
        clipped.clip_factor = None
        unbounded = clipped.aggregate(
            honest + [poisoned], _selection([1, 8]), 16
        )
        assert abs(to_dense(unbounded.payload)[8]) > abs(dense[8]) * 10

    def test_total_weight_seam(self):
        uploads = [_upload(c, [2], [1.0], samples=10) for c in range(3)]
        aggregator = MedianAggregator()
        arrived = aggregator.aggregate(
            uploads, _selection([2]), 16, total_weight=30.0
        )
        cohort = aggregator.aggregate(
            uploads, _selection([2]), 16, total_weight=60.0
        )
        np.testing.assert_allclose(
            to_dense(cohort.payload), to_dense(arrived.payload) / 2.0
        )

    def test_cosine_downweights_persistent_opponent(self):
        aggregator = CosineReputationAggregator()
        selection = _selection([1, 4, 7])
        honest_values = np.array([1.0, -1.0, 0.5])
        for round_index in range(3):
            uploads = [
                _upload(c, [1, 4, 7], honest_values) for c in range(4)
            ] + [_upload(9, [1, 4, 7], -10.0 * honest_values)]
            result = aggregator.aggregate(uploads, selection, 16)
        assert aggregator.reputation[9] < 0.0
        assert all(aggregator.reputation[c] > 0.9 for c in range(4))
        assert [cid for cid, _ in aggregator.last_flags] == [9]
        # Weighted out entirely: the robust center equals the honest
        # value, and the support-weight rescaling cancels (all five
        # uploaded every coordinate), so the aggregate equals the mean
        # over the honest clients alone.
        reference = Server(16).aggregate(
            [_upload(c, [1, 4, 7], honest_values) for c in range(4)],
            selection,
        )
        np.testing.assert_allclose(
            to_dense(result.payload), to_dense(reference.payload)
        )

    def test_commit_false_is_stateless(self):
        aggregator = CosineReputationAggregator()
        selection = _selection([1, 4])
        uploads = [
            _upload(0, [1, 4], [1.0, 2.0]),
            _upload(1, [1, 4], [1.2, 1.8]),
            _upload(2, [1, 4], [0.8, 2.2]),
            _upload(9, [1, 4], [-30.0, -60.0]),
        ]
        aggregator.aggregate(uploads, selection, 16)
        reputation = dict(aggregator.reputation)
        flags = list(aggregator.last_flags)
        assert flags  # the opponent was flagged on the committed round
        # A counterfactual probe (deadline re-aggregation) must read the
        # current reputations without advancing the EMA or overwriting
        # the committed round's flags.
        aggregator.aggregate(uploads[:3], selection, 16, commit=False)
        assert aggregator.reputation == reputation
        assert aggregator.last_flags == flags
        # Committing that same honest-only round, by contrast, advances
        # the EMA (the reference median shifts without the opponent).
        aggregator.aggregate(uploads[:3], selection, 16)
        assert aggregator.reputation != reputation

    def test_rank_flags_need_eligible_coordinates(self):
        # Two uploaders per coordinate: no trimming tail exists, so the
        # rank detector must stay silent rather than guess.
        aggregator = TrimmedMeanAggregator()
        uploads = [
            _upload(0, [1, 2, 3, 4, 5], [1.0] * 5),
            _upload(9, [1, 2, 3, 4, 5], [900.0] * 5),
        ]
        aggregator.aggregate(uploads, _selection([1, 2, 3, 4, 5]), 16)
        assert aggregator.last_flags == []

    def test_empty_selection_and_errors(self):
        aggregator = MedianAggregator()
        result = aggregator.aggregate(
            [_upload(0, [1], [1.0])], _selection([]), 16
        )
        assert result.payload.indices.size == 0
        with pytest.raises(ValueError, match="no uploads"):
            aggregator.aggregate([], _selection([1]), 16)
        with pytest.raises(ValueError, match="total_weight"):
            aggregator.aggregate(
                [_upload(0, [1], [1.0])], _selection([1]), 16,
                total_weight=0.0,
            )

    def test_non_finite_entry_does_not_poison_other_coordinates(self):
        # One inf at coordinate 1 used to turn coordinate 5 to NaN: the
        # clip scaled it by bound/inf = 0 into a NaN, which the global
        # running sum carried forward past coordinate 1's run.
        uploads = [_upload(c, [1, 5], [1.0, 2.0]) for c in range(4)]
        uploads.append(_upload(4, [1, 5], [np.inf, 2.0]))
        result = TrimmedMeanAggregator().aggregate(
            uploads, _selection([1, 5]), 16
        )
        np.testing.assert_array_equal(
            result.payload.values, [1.0 * 32 / 40, 2.0]
        )

    @pytest.mark.parametrize("clip_factor", [2.0, None])
    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_are_absent(self, special, kind, clip_factor):
        # A non-finite entry counts nowhere — not in n_j, the support
        # weight, the clip norm or its median: the aggregate, flags and
        # reputations equal those of the uploads with it deleted.
        rng = np.random.default_rng(3)
        selection = _selection([0, 2, 3, 5, 8, 9, 11])
        uploads, deleted = [], []
        for cid in range(7):
            indices = np.sort(rng.choice(12, 8, replace=False))
            values = rng.normal(size=8) * (10.0 if cid == 6 else 1.0)
            bad = rng.random(8) < 0.3
            uploads.append(_upload(
                cid, indices, np.where(bad, special, values), samples=cid + 1
            ))
            deleted.append(_upload(
                cid, indices[~bad], values[~bad], samples=cid + 1
            ))
        # an upload with nothing finite left: a zero norm, no hits
        uploads.append(_upload(7, [0, 2], [special, special]))
        deleted.append(_upload(7, [], []))
        results = []
        for batch in (uploads, deleted):
            aggregator = build_aggregator(kind)
            aggregator.clip_factor = clip_factor
            for _ in range(2):  # a second round reads the reputations
                message = aggregator.aggregate(batch, selection, 16)
            results.append((
                message.payload.values.tobytes(), aggregator.last_flags,
                getattr(aggregator, "reputation", None),
            ))
        assert np.all(np.isfinite(np.frombuffer(results[0][0])))
        assert results[0] == results[1]

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_no_uploaded_value_in_j_aggregates_to_zero(self, kind):
        # Nobody hit J (or only with non-finite values): every b_j is
        # 0 — the median used to index an empty run and raise.
        uploads = [_upload(0, [2], [1.0]), _upload(1, [4], [np.nan])]
        result = build_aggregator(kind).aggregate(
            uploads, _selection([3, 4]), 16
        )
        assert result.payload.values.tolist() == [0.0, 0.0]

    def test_build_aggregator_mapping(self):
        assert build_aggregator("mean") is None
        assert isinstance(
            build_aggregator("trimmed_mean", trim_fraction=0.1),
            TrimmedMeanAggregator,
        )
        assert build_aggregator("trimmed_mean", 0.1).trim_fraction == 0.1
        assert isinstance(build_aggregator("median"), MedianAggregator)
        assert isinstance(
            build_aggregator("cosine"), CosineReputationAggregator
        )
        with pytest.raises(ValueError, match="unknown aggregator"):
            build_aggregator("krum")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="trim_fraction"):
            TrimmedMeanAggregator(trim_fraction=0.5)
        with pytest.raises(ValueError, match="flag_threshold"):
            TrimmedMeanAggregator(flag_threshold=0.0)


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestAdversaryConfig:

    def test_roundtrip(self):
        config = ScenarioConfig(
            availability="always", adversary="noise",
            adversary_fraction=0.2, adversary_scale=5.0,
            aggregator="cosine", trim_fraction=0.1, seed=4,
        )
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            ScenarioConfig(adversary="dos")
        with pytest.raises(ValueError, match="needs an adversary kind"):
            ScenarioConfig(adversary_fraction=0.5)
        with pytest.raises(ValueError, match="adversary_fraction"):
            ScenarioConfig(adversary="scale", adversary_fraction=1.5)
        with pytest.raises(ValueError, match="adversary_scale"):
            ScenarioConfig(adversary="scale", adversary_fraction=0.5,
                           adversary_scale=0.0)
        with pytest.raises(ValueError, match="unknown aggregator"):
            ScenarioConfig(aggregator="krum")
        with pytest.raises(ValueError, match="trim_fraction"):
            ScenarioConfig(trim_fraction=0.5)

    def test_build_threads_adversary_and_aggregator(self):
        trainer, scenario = _scenario_trainer("serial")
        assert scenario.hooks.adversary is not None
        assert scenario.hooks.adversary.kind == "sign_flip"
        assert isinstance(scenario.aggregator, TrimmedMeanAggregator)
        assert trainer.engine.server.aggregator is scenario.aggregator


# ----------------------------------------------------------------------
# Acceptance (a): attack x defense backend bit-identity
# ----------------------------------------------------------------------
_SERIAL_CACHE = {}


def _serial_reference(attack, aggregator):
    key = (attack, aggregator)
    if key not in _SERIAL_CACHE:
        config = ATTACK_CHURN.with_overrides(
            adversary=attack, aggregator=aggregator
        )
        trainer, scenario = _scenario_trainer(
            "serial", scenario_config=config
        )
        history = trainer.run(6, k=12)
        _SERIAL_CACHE[key] = (trainer, scenario, history)
    return _SERIAL_CACHE[key]


class TestAttackDefenseBackendEquivalence:
    """Acceptance (a): the bit-identity matrix extends over attacks."""

    @pytest.mark.parametrize("backend_name", ["vectorized", "sharded"])
    @pytest.mark.parametrize("aggregator", ROBUST_KINDS)
    def test_sign_flip_histories_identical(self, aggregator, backend_name):
        self._assert_identical("sign_flip", aggregator, backend_name)

    @pytest.mark.parametrize("attack", ("scale", "noise", "topk"))
    def test_other_attacks_identical(self, attack):
        self._assert_identical(attack, "trimmed_mean", "vectorized")

    def test_mean_under_attack_identical(self):
        # The vulnerable aggregator must *also* be deterministic — the
        # panel's divergent mean curves are still bit-reproducible.
        self._assert_identical("sign_flip", "mean", "vectorized")

    def _assert_identical(self, attack, aggregator, backend_name):
        serial, s_scn, hs = _serial_reference(attack, aggregator)
        backend = (
            ShardedBackend(jobs=2) if backend_name == "sharded"
            else backend_name
        )
        config = ATTACK_CHURN.with_overrides(
            adversary=attack, aggregator=aggregator
        )
        fast, f_scn = _scenario_trainer(backend, scenario_config=config)
        hf = fast.run(6, k=12)
        assert history_rows(hs) == history_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)
        assert s_scn.stats.corrupted_by_client == \
            f_scn.stats.corrupted_by_client
        assert s_scn.stats.corrupted_by_client  # the attack actually ran
        assert s_scn.stats.flagged_by_client == f_scn.stats.flagged_by_client
        fast.close()


# ----------------------------------------------------------------------
# Acceptance (b): residual honesty and exact poisoned recovery
# ----------------------------------------------------------------------
class TestResidualHonesty:

    @staticmethod
    def _attacked_round_one():
        """One attacked full-participation round: the trainer, its
        adversary, a recorder of the wire and every client's honest
        round-1 gradient at w0."""
        attacked, a_scn = _scenario_trainer(
            "serial", scenario_config=ATTACK_CHURN.with_overrides(
                availability="always", participants=0, over_selection=0.0,
                deadline=None, deadline_policy="fixed", slow_fraction=0.0,
            ),
        )
        adversary = a_scn.hooks.adversary
        assert adversary is not None

        class Recorder(RoundHooks):
            def after_local_steps(self, ctx):
                self.wire = {
                    up.client_id: up.payload for up in ctx.uploads
                }

            def observe(self, ctx):
                self.selection = ctx.selection.indices

        recorder = Recorder()
        w0 = attacked.model.get_weights()
        # Honest replica of every client's round-1 gradient at w0.
        twin = _federation(seed=5)
        ref_model = make_mlp(64, 8, hidden=(10,), seed=5)
        gradients = {}
        for client in twin.clients:
            x, y = client.minibatch(8)
            ref_model.set_weights(w0)
            gradients[client.client_id] = ref_model.gradient(x, y)

        attacked.engine.run_round(12, hooks=recorder)
        assert a_scn.stats.corrupted_by_client  # someone was designated
        return attacked, adversary, recorder, gradients

    def test_residuals_hold_honest_gradients_despite_corruption(self):
        # Corruption is wire-only: after round 1, EVERY client's residual
        # equals its honest gradient with zeros exactly at J ∩ J_i (the
        # server-selected coordinates it uploaded) — never the ×(−10)
        # poisoned values — while the adversaries' wire uploads carry the
        # poison.  (Note the attacked run's J itself may legitimately
        # differ from an honest run's: selection ranks the corrupted
        # values.  The invariant is about state, not about J.)
        attacked, adversary, recorder, gradients = self._attacked_round_one()
        saw_adversary = False
        for client in attacked.clients:
            cid = client.client_id
            g = gradients[cid]
            uploaded = recorder.wire[cid].indices
            if adversary.is_adversary(cid):
                saw_adversary = True
                # The wire carried the poison...
                np.testing.assert_array_equal(
                    recorder.wire[cid].values, -10.0 * g[uploaded]
                )
            else:
                np.testing.assert_array_equal(
                    recorder.wire[cid].values, g[uploaded]
                )
            # ...and the reset subtracted the honest upload either way:
            # had it subtracted the poison, an adversary's residual would
            # hold 11·g at J ∩ J_i instead of zero.
            expected = g.copy()
            expected[np.intersect1d(recorder.selection, uploaded)] = 0.0
            np.testing.assert_array_equal(client.residual, expected)
        assert saw_adversary

    def test_dropped_poisoned_gradient_recovers_exactly(self):
        # The straggler is ALSO the adversary (seed 1 designates client
        # 1).  Round 1's tight deadline drops its poisoned upload; the
        # residual keeps the HONEST gradient g1; round 2's amnesty
        # re-sends — and the wire carries the attack applied to the
        # honestly accumulated g1 + g2, exactly.
        fed = _federation(seed=11, num_writers=2)
        model = make_mlp(64, 8, hidden=(6,), seed=11)
        ids = [c.client_id for c in fed.clients]
        profiles = [
            ClientProfile(ids[0]),
            ClientProfile(ids[1], compute_factor=50.0, comm_factor=50.0),
        ]
        config = ScenarioConfig(
            availability="always", deadline=(3.0, 1000.0),
            adversary="sign_flip", adversary_fraction=0.3,
            adversary_scale=10.0, aggregator="trimmed_mean", seed=1,
        )
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        scenario = DeploymentScenario.build(config, ids, timing)
        assert scenario.hooks.adversary.is_adversary(ids[1])
        assert not scenario.hooks.adversary.is_adversary(ids[0])
        trainer = FLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=1, seed=11, scenario=scenario,
        )
        straggler = trainer.clients[1]
        dimension = trainer.model.dimension
        w0 = trainer.model.get_weights()
        twin = _federation(seed=11, num_writers=2).clients[1]
        ref_model = make_mlp(64, 8, hidden=(6,), seed=11)

        class Recorder(RoundHooks):
            def __init__(self):
                self.uploads_by_round = {}

            def after_local_steps(self, ctx):
                # Scenario hooks run first: this is the corrupted wire.
                self.uploads_by_round[ctx.round_index] = list(ctx.uploads)

        recorder = Recorder()
        # ---- round 1: the poisoned upload is deadline-dropped ----
        trainer.engine.run_round(dimension, hooks=recorder)
        assert scenario.stats.rounds[0].dropped_ids == (ids[1],)
        # Only the honest client's upload survived to the hooks.
        assert [
            up.client_id for up in recorder.uploads_by_round[1]
        ] == [ids[0]]
        x1, y1 = twin.minibatch(8)
        ref_model.set_weights(w0)
        g1 = ref_model.gradient(x1, y1)
        # The corruption was charged (it happened before the drop) but
        # the residual kept the HONEST g1, not the ×(−10) poison.
        np.testing.assert_array_equal(straggler.residual, g1)

        # ---- round 2: amnesty — the recovered upload re-enters ----
        w1 = trainer.model.get_weights()
        trainer.engine.run_round(dimension, hooks=recorder)
        assert scenario.stats.rounds[1].dropped_ids == ()
        x2, y2 = twin.minibatch(8)
        ref_model.set_weights(w1)
        g2 = ref_model.gradient(x2, y2)
        wire2 = {
            up.client_id: up for up in recorder.uploads_by_round[2]
        }[ids[1]]
        # Exact recovery THROUGH the attack: honest residual
        # accumulation (g1 + g2), sign-flipped on the wire only.
        np.testing.assert_array_equal(
            to_dense(wire2.payload), -10.0 * (g1 + g2)
        )
        # k = D drained the (honest) residual completely.
        np.testing.assert_array_equal(
            straggler.residual, np.zeros(dimension)
        )
        assert scenario.stats.corrupted_by_client == {ids[1]: 2}


# ----------------------------------------------------------------------
# Acceptance (c): degenerate identity
# ----------------------------------------------------------------------
class TestDegenerateAdversary:

    def test_none_plus_mean_is_plain_trainer(self):
        fed = _federation()
        model = make_mlp(64, 8, hidden=(10,), seed=5)
        timing = TimingModel(model.dimension, comm_time=10.0)
        plain = FLTrainer(model, fed, FABTopK(), timing=timing,
                          learning_rate=0.05, batch_size=8, eval_every=3,
                          seed=5)
        idle = ScenarioConfig(
            availability="always", deadline=None, participants=0,
            slow_fraction=0.0, adversary="none", adversary_fraction=0.0,
            aggregator="mean", seed=5,
        )
        wrapped, scenario = _scenario_trainer("serial",
                                              scenario_config=idle)
        # "mean" builds no aggregator object and "none" no adversary —
        # the original code paths run, not equivalent reimplementations.
        assert scenario.aggregator is None
        assert scenario.hooks.adversary is None
        assert wrapped.engine.server.aggregator is None
        hp = plain.run(8, k=12)
        hw = wrapped.run(8, k=12)
        assert history_rows(hp) == history_rows(hw)
        np.testing.assert_array_equal(
            plain.model.get_weights(), wrapped.model.get_weights()
        )
        for cp, cw in zip(plain.clients, wrapped.clients):
            np.testing.assert_array_equal(cp.residual, cw.residual)


# ----------------------------------------------------------------------
# Flagged telemetry
# ----------------------------------------------------------------------
class TestFlaggedTelemetry:

    def test_event_type_registered(self):
        assert EVENT_TYPES["flagged"] == frozenset(
            {"round", "client_ids", "detector", "scores"}
        )

    def test_flagged_events_validate(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = open_telemetry(str(path))
        config = ATTACK_CHURN.with_overrides(
            availability="always", participants=0, over_selection=0.0,
            deadline=None, deadline_policy="fixed", slow_fraction=0.0, seed=0,
        )
        fed = _federation(seed=0)
        model = make_mlp(64, 8, hidden=(10,), seed=0)
        ids = [c.client_id for c in fed.clients]
        timing = TimingModel(model.dimension, comm_time=10.0)
        scenario = DeploymentScenario.build(config, ids, timing)
        trainer = FLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=1, seed=0, scenario=scenario,
            telemetry=telemetry,
        )
        trainer.run(3, k=400)  # dense-leaning k: flags fire every round
        telemetry.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            validate_event(event)
        flagged = [e for e in events if e["type"] == "flagged"]
        assert len(flagged) == 3
        for event in flagged:
            assert event["detector"] == "trimmed_mean"
            assert len(event["scores"]) == len(event["client_ids"])
            assert all(isinstance(c, int) for c in event["client_ids"])
        # The true adversary (seed 0 designates client 6) is flagged in
        # every round; telemetry and stats agree.
        assert all(6 in e["client_ids"] for e in flagged)
        assert scenario.stats.flagged_by_client[6] == 3
        assert scenario.stats.corrupted_by_client == {6: 3}

    def test_no_flags_without_telemetry_or_detector(self):
        # Honest run under a robust aggregator: stats may flag (noisy
        # detector) but the degenerate mean path never does.
        trainer, scenario = _scenario_trainer(
            "serial", scenario_config=ATTACK_CHURN.with_overrides(
                adversary="none", adversary_fraction=0.0, aggregator="mean",
            )
        )
        trainer.run(3, k=12)
        assert scenario.stats.flagged_by_client == {}
        assert scenario.stats.corrupted_by_client == {}


# ----------------------------------------------------------------------
# Acceptance (d): golden adversarial history
# ----------------------------------------------------------------------
def _golden_adversary_trainer():
    """The pinned attacked run: Markov churn + cycling deadline +
    sign-flip adversaries + trimmed-mean defense at tiny scale.  This
    construction must not change, or the golden loses its meaning."""
    config = ScenarioConfig(
        availability="markov",
        p_drop=0.2,
        p_recover=0.6,
        participants=4,
        over_selection=0.5,
        deadline=(2.5, 2.5, 9.0),
        deadline_policy="cycling",
        slow_fraction=0.25,
        slow_factor=4.0,
        adversary="sign_flip",
        adversary_fraction=0.3,
        adversary_scale=10.0,
        aggregator="trimmed_mean",
        trim_fraction=0.25,
        seed=3,
    )
    fed = _federation(seed=3, num_writers=6)
    model = make_mlp(64, 8, hidden=(6,), seed=3)
    ids = [c.client_id for c in fed.clients]
    profiles = config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = DeploymentScenario.build(config, ids, timing, profiles)
    trainer = FLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=2, seed=3, scenario=scenario,
    )
    return trainer, scenario


class TestGoldenAdversaryHistory:
    """Acceptance (d): attack + defense semantics are pinned absolutely.

    Cross-backend equality cannot catch a change that moves every
    backend together (a different trim boundary, a re-ordered corruption
    seam, a changed designation draw); this golden does.
    """

    def test_history_matches_golden(self):
        trainer, _ = _golden_adversary_trainer()
        trainer.run(6, k=10)
        golden = json.loads(GOLDEN_PATH.read_text())["adversary_fl_trainer"]
        expected = [
            (row["round_index"], row["k"], row["round_time"],
             row["cumulative_time"], row["loss"], row["accuracy"],
             row["uplink_elements"], row["downlink_elements"],
             tuple(
                 (int(cid), n) for cid, n in sorted(
                     row["contributions"].items(), key=lambda kv: int(kv[0])
                 )
             ))
            for row in golden
        ]
        assert history_rows(trainer.history) == expected

    def test_corruption_and_flags_match_golden(self):
        trainer, scenario = _golden_adversary_trainer()
        trainer.run(6, k=10)
        golden = json.loads(GOLDEN_PATH.read_text())
        stats = scenario.stats.to_dict()
        assert stats["corrupted_by_client"] == \
            golden["adversary_fl_trainer_corrupted"]
        assert stats["flagged_by_client"] == \
            golden["adversary_fl_trainer_flagged"]
        assert stats["corrupted_by_client"]  # the attack really fired


# ----------------------------------------------------------------------
# Panel driver, CLI and sweep threading
# ----------------------------------------------------------------------
class TestAdversaryPanel:

    @pytest.fixture(scope="class")
    def panel(self):
        from repro.experiments.adversary import run_adversary_panel
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.smoke().with_overrides(num_rounds=15)
        return config, run_adversary_panel(config)

    def test_grid_structure(self, panel):
        config, result = panel
        labels = {s.label for s in result.final_loss.series}
        assert labels == {
            f"{agg} ({regime})"
            for agg in ("mean", "trimmed_mean", "median")
            for regime in ("sparse", "dense")
        }
        assert len(result.histories) == 18  # 3 aggregators x 2 x 3 fractions
        for series in result.final_loss.series:
            assert series.x == [0.0, 0.25, 0.5]
        assert result.attack == "sign_flip"

    def test_defenses_recover_where_mean_diverges(self, panel):
        config, result = panel
        for regime in ("sparse", "dense"):
            mean = result.final_losses("mean", regime)
            trimmed = result.final_losses("trimmed_mean", regime)
            median = result.final_losses("median", regime)
            # Honest baseline: all defenses near the mean's loss.
            assert trimmed[0] < mean[0] * 1.5
            # Heavy attack: the mean diverges, robust defenses hold
            # near their honest-baseline loss.
            assert mean[-1] > 2.0 * trimmed[-1], regime
            assert mean[-1] > 2.0 * median[-1], regime
            assert trimmed[-1] < trimmed[0] * 1.5, regime

    def test_degenerate_cell_is_plain_trainer(self, panel):
        config, result = panel
        from repro.experiments.runner import build_federation, build_model

        model = build_model(config)
        federation = build_federation(config)
        timing = TimingModel(model.dimension, comm_time=config.comm_time)
        plain = FLTrainer(
            model, federation, FABTopK(), timing=timing,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size, eval_every=config.eval_every,
            eval_max_samples=config.eval_max_samples, seed=config.seed,
        )
        plain.run(config.num_rounds, k=result.k)
        cell = result.histories[
            result.cell_label("mean", "sparse", 0.0)
        ]
        assert history_rows(plain.history) == history_rows(cell)

    def test_traced_cells_carry_method_beside_the_grid_keys(self, tmp_path):
        # Every other driver's events group by ``method``; the panel's
        # had only aggregator/regime/fraction until PR 17.
        from repro.experiments.adversary import run_adversary_panel
        from repro.experiments.config import ExperimentConfig

        path = tmp_path / "trace.jsonl"
        config = ExperimentConfig.smoke().with_overrides(num_rounds=2)
        grid = dict(fractions=(0.0, 0.5), aggregators=("mean", "median"),
                    regimes=("sparse",))
        untraced = run_adversary_panel(config, **grid)
        traced = run_adversary_panel(
            config.with_overrides(telemetry=str(path)), **grid
        )
        events = [json.loads(line) for line in path.read_text().splitlines()]
        rounds = [e for e in events if e["type"] == "round"]
        assert {e["method"] for e in rounds} == set(traced.histories)
        for event in rounds:
            validate_event(event)
            assert event["figure"] == "adversary"
            assert event["method"] == traced.cell_label(
                event["aggregator"], event["regime"], event["fraction"]
            )
        for label, history in untraced.histories.items():
            assert history_rows(history) == history_rows(
                traced.histories[label]
            )

    def test_resolver_defaults_to_always_available(self):
        from repro.experiments.adversary import resolve_adversary_config
        from repro.experiments.config import ExperimentConfig

        resolved = resolve_adversary_config(ExperimentConfig.smoke())
        scenario = ScenarioConfig.from_dict(resolved.scenario)
        assert scenario.availability == "always"
        assert scenario.deadline is None

    def test_named_fraction_and_aggregator_join_the_grid(self):
        from repro.experiments.adversary import run_adversary_panel
        from repro.experiments.config import ExperimentConfig

        scenario = ScenarioConfig(
            availability="always", adversary="scale",
            adversary_fraction=0.4, aggregator="cosine", seed=0,
        )
        config = ExperimentConfig.smoke().with_overrides(
            num_rounds=2, scenario=scenario.to_dict(),
        )
        result = run_adversary_panel(
            config, fractions=(0.0, 0.5), aggregators=("mean",),
            regimes=("sparse",),
        )
        assert result.attack == "scale"
        labels = {s.label for s in result.final_loss.series}
        assert labels == {"mean (sparse)", "cosine (sparse)"}
        for series in result.final_loss.series:
            assert series.x == [0.0, 0.4, 0.5]


class TestAdversaryCLI:

    def test_scenario_flags_thread_into_config(self):
        from repro.cli import _scenario_overrides, build_parser

        args = build_parser().parse_args([
            "scenario", "--adversary-fraction", "0.5",
            "--aggregator", "median", "--trim-fraction", "0.1",
        ])
        scenario = ScenarioConfig.from_dict(_scenario_overrides(args, 7))
        # A positive fraction implies the headline attack.
        assert scenario.adversary == "sign_flip"
        assert scenario.adversary_fraction == 0.5
        assert scenario.aggregator == "median"
        assert scenario.trim_fraction == 0.1
        assert scenario.seed == 7

    def test_explicit_kind_kept(self):
        from repro.cli import _scenario_overrides, build_parser

        args = build_parser().parse_args([
            "adversary", "--adversary-kind", "noise",
            "--adversary-fraction", "0.3", "--adversary-scale", "2.0",
        ])
        scenario = ScenarioConfig.from_dict(
            _scenario_overrides(
                args, 0, base=ScenarioConfig(availability="always")
            )
        )
        assert scenario.availability == "always"
        assert scenario.adversary == "noise"
        assert scenario.adversary_scale == 2.0

    def test_adversary_command_writes_artifacts(self, tmp_path):
        from repro.cli import main

        rc = main([
            "adversary", "--scale", "smoke", "--rounds", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        final = json.loads(
            (tmp_path / "adversary_final_loss.json").read_text()
        )
        assert final["kind"] == "figure"
        assert (tmp_path / "adversary_loss_vs_time.json").exists()
        assert (tmp_path / "adversary_final_loss.csv").exists()
        histories = list(tmp_path.glob("adversary_history_*.json"))
        assert len(histories) == 18

    def test_scenario_command_accepts_adversary_flags(self, tmp_path):
        from repro.cli import main

        rc = main([
            "scenario", "--scale", "smoke", "--rounds", "2",
            "--adversary-fraction", "0.5", "--aggregator",
            "trimmed_mean", "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads(
            (tmp_path / "scenario_loss_vs_time.json").read_text()
        )
        note = next(n for n in payload["notes"] if "adversary" in n)
        assert '"adversary": "sign_flip"' in note

    def test_sweep_includes_adversary(self):
        from repro.experiments.config import ExperimentConfig
        from repro.parallel.sweep import (
            SWEEP_FIGURES, SweepSpec, collect_artifacts,
        )

        assert "adversary" in SWEEP_FIGURES
        SweepSpec(figures=("adversary",))  # validates
        config = ExperimentConfig.smoke().with_overrides(num_rounds=2)
        artifacts = collect_artifacts("adversary", config)
        assert "adversary_final_loss" in artifacts
        assert "adversary_loss_vs_time" in artifacts
        assert sum(
            1 for name in artifacts if name.startswith("adversary_history_")
        ) == 18
        for payload in artifacts.values():
            json.dumps(payload)  # artifacts must be JSON-ready
