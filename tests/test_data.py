"""Tests for synthetic datasets and partitioners."""

import ast
import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    ClientDataset,
    partition_by_class,
    partition_by_writer,
    partition_dirichlet,
)
from repro.data.synthetic import (
    SyntheticDataset,
    make_cifar_like,
    make_femnist_like,
)
from repro.fl.engine import RoundEngine
from repro.nn.models import make_mlp
from repro.simulation.timing import TimingModel

from helpers import make_gaussian_blobs, materialize, partition_iid


class TestFemnistLike:
    def test_shapes_and_ranges(self):
        ds = make_femnist_like(num_writers=5, samples_per_writer=10, image_size=8)
        assert len(ds) == 50
        assert ds.x.shape == (50, 64)
        assert ds.num_classes == 62
        assert ds.y.min() >= 0 and ds.y.max() < 62
        assert np.unique(ds.writer).size == 5

    def test_unflattened_shape(self):
        ds = make_femnist_like(num_writers=3, samples_per_writer=5, image_size=8,
                               flatten=False)
        assert ds.x.shape == (15, 1, 8, 8)

    def test_writer_class_subset(self):
        ds = make_femnist_like(num_writers=4, samples_per_writer=50,
                               classes_per_writer=3, seed=1)
        for w in range(4):
            labels = np.unique(ds.y[ds.writer == w])
            assert labels.size <= 3

    def test_determinism(self):
        a = make_femnist_like(num_writers=3, samples_per_writer=5, seed=9)
        b = make_femnist_like(num_writers=3, samples_per_writer=5, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seeds_differ(self):
        a = make_femnist_like(num_writers=3, samples_per_writer=5, seed=1)
        b = make_femnist_like(num_writers=3, samples_per_writer=5, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_test_pool_present(self):
        ds = make_femnist_like(num_writers=5, samples_per_writer=20)
        assert ds.test_x is not None and ds.test_y is not None
        assert ds.test_x.shape[0] == ds.test_y.shape[0] > 0

    def test_classes_per_writer_validation(self):
        with pytest.raises(ValueError):
            make_femnist_like(num_classes=5, classes_per_writer=10)

    def test_class_separability(self):
        # Same-class samples must be closer than cross-class on average,
        # otherwise the learning experiments are meaningless.
        ds = make_femnist_like(num_writers=10, samples_per_writer=30,
                               classes_per_writer=4, num_classes=6, seed=3)
        same, cross = [], []
        for i in range(0, 200, 5):
            for j in range(i + 1, 200, 7):
                d = np.linalg.norm(ds.x[i] - ds.x[j])
                (same if ds.y[i] == ds.y[j] else cross).append(d)
        assert np.mean(same) < np.mean(cross)


class TestCifarLike:
    def test_one_class_per_client(self):
        ds = make_cifar_like(num_clients=20, samples_per_client=10)
        for client in range(20):
            labels = np.unique(ds.y[ds.writer == client])
            assert labels.size == 1
            assert labels[0] == client % 10

    def test_three_channels(self):
        ds = make_cifar_like(num_clients=10, samples_per_client=5, image_size=8,
                             flatten=False)
        assert ds.x.shape == (50, 3, 8, 8)

    def test_flat_dim(self):
        ds = make_cifar_like(num_clients=10, samples_per_client=5, image_size=8)
        assert ds.feature_dim == 3 * 8 * 8


class TestGaussianBlobs:
    def test_learnable(self):
        ds = make_gaussian_blobs(num_samples=100, num_classes=3, separation=5.0)
        # Nearest-class-mean classification should beat chance easily.
        means = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(
            ((ds.x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1
        )
        assert (pred == ds.y).mean() > 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticDataset(
                x=np.zeros((3, 2)), y=np.zeros(2, dtype=int),
                writer=np.zeros(3, dtype=int), num_classes=2,
            )
        with pytest.raises(ValueError):
            SyntheticDataset(
                x=np.zeros((3, 2)), y=np.array([0, 1, 5]),
                writer=np.zeros(3, dtype=int), num_classes=2,
            )


class TestClientDataset:
    def test_minibatch_sizes(self):
        c = ClientDataset(0, np.arange(20).reshape(10, 2).astype(float),
                          np.arange(10) % 2)
        x, y = c.minibatch(4)
        assert x.shape == (4, 2) and y.shape == (4,)

    def test_minibatch_full_when_small(self):
        c = ClientDataset(0, np.zeros((3, 2)), np.zeros(3, dtype=int))
        x, y = c.minibatch(10)
        assert x.shape[0] == 3

    def test_minibatch_no_duplicates(self):
        c = ClientDataset(0, np.arange(10).reshape(10, 1).astype(float),
                          np.zeros(10, dtype=int))
        x, _ = c.minibatch(8)
        assert np.unique(x).size == 8

    def test_empty_client_rejected(self):
        with pytest.raises(ValueError):
            ClientDataset(0, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            ClientDataset(0, np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_label_histogram(self):
        c = ClientDataset(0, np.zeros((4, 1)), np.array([0, 0, 2, 2]))
        np.testing.assert_array_equal(c.label_histogram(3), [2, 0, 2])

    def test_deterministic_sampling(self):
        data = np.arange(40).reshape(20, 2).astype(float)
        y = np.zeros(20, dtype=int)
        a = ClientDataset(0, data, y, seed=4).minibatch(5)[0]
        b = ClientDataset(0, data, y, seed=4).minibatch(5)[0]
        np.testing.assert_array_equal(a, b)


class TestPartitioners:
    @pytest.fixture
    def femnist(self):
        return make_femnist_like(num_writers=8, samples_per_writer=20, seed=0)

    def test_by_writer_counts(self, femnist):
        fed = partition_by_writer(femnist)
        assert fed.num_clients == 8
        assert fed.total_samples == len(femnist)
        np.testing.assert_array_equal(fed.sample_counts, [20] * 8)

    def test_by_writer_non_iid(self, femnist):
        fed = partition_by_writer(femnist)
        assert fed.non_iid_degree() > 0.3

    def test_iid_partition_low_skew(self, femnist):
        fed = partition_iid(femnist, num_clients=4, seed=0)
        assert fed.num_clients == 4
        assert fed.total_samples == len(femnist)
        assert fed.non_iid_degree() < partition_by_writer(femnist).non_iid_degree()

    def test_iid_too_many_clients(self, femnist):
        with pytest.raises(ValueError):
            partition_iid(femnist, num_clients=10_000)

    def test_by_class_single_label(self):
        ds = make_cifar_like(num_clients=5, samples_per_client=40, num_classes=5,
                             seed=0)
        fed = partition_by_class(ds, num_clients=10, seed=0)
        assert fed.num_clients == 10
        for c in fed.clients:
            assert np.unique(c.y).size == 1

    def test_by_class_needs_enough_clients(self):
        ds = make_cifar_like(num_clients=10, samples_per_client=10, num_classes=10)
        with pytest.raises(ValueError):
            partition_by_class(ds, num_clients=5)

    def test_by_class_preserves_samples(self):
        ds = make_cifar_like(num_clients=5, samples_per_client=40, num_classes=5)
        fed = partition_by_class(ds, num_clients=10)
        assert fed.total_samples == len(ds)

    def test_dirichlet_extreme_alpha_is_skewed(self):
        ds = make_gaussian_blobs(num_samples=500, num_classes=5, seed=0)
        skewed = partition_dirichlet(ds, num_clients=5, alpha=0.05, seed=0)
        uniform = partition_dirichlet(ds, num_clients=5, alpha=100.0, seed=0)
        assert skewed.non_iid_degree() > uniform.non_iid_degree()

    def test_dirichlet_no_empty_clients(self):
        ds = make_gaussian_blobs(num_samples=60, num_classes=3, seed=1)
        fed = partition_dirichlet(ds, num_clients=15, alpha=0.05, seed=1)
        for c in fed.clients:
            assert len(c) >= 1

    def test_dirichlet_alpha_validation(self):
        ds = make_gaussian_blobs(num_samples=50)
        with pytest.raises(ValueError):
            partition_dirichlet(ds, num_clients=3, alpha=0.0)

    def test_global_pool(self, femnist):
        fed = partition_by_writer(femnist)
        x, y = fed.global_pool()
        assert x.shape[0] == y.shape[0] == len(femnist)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_iid_partition_conserves_everything(self, num_clients, seed):
        ds = make_gaussian_blobs(num_samples=100, num_classes=4, seed=seed)
        fed = partition_iid(ds, num_clients=num_clients, seed=seed)
        assert fed.total_samples == 100
        x, y = fed.global_pool()
        # Every original sample appears exactly once (order may differ).
        assert sorted(map(tuple, x.round(9))) == sorted(map(tuple, ds.x.round(9)))
        np.testing.assert_array_equal(np.sort(y), np.sort(ds.y))


# ----------------------------------------------------------------------
# Per-client materialization (the virtual-population data contract)
# ----------------------------------------------------------------------
def _small_femnist(seed=0):
    return make_femnist_like(num_writers=6, samples_per_writer=12,
                             num_classes=8, image_size=6,
                             classes_per_writer=3, seed=seed)


#: (partitioner name, eager builder, per-cid materializer, num_clients)
PARTITIONERS = {
    "writer": (
        lambda ds, seed: partition_by_writer(ds, seed=seed),
        lambda ds, seed, cid: partition_by_writer(ds, seed=seed, client_id=cid),
        6,
    ),
    "class": (
        lambda ds, seed: partition_by_class(ds, num_clients=10, seed=seed),
        lambda ds, seed, cid: partition_by_class(
            ds, num_clients=10, seed=seed, client_id=cid
        ),
        10,
    ),
    "dirichlet": (
        lambda ds, seed: partition_dirichlet(
            ds, num_clients=7, alpha=0.5, seed=seed
        ),
        lambda ds, seed, cid: partition_dirichlet(
            ds, num_clients=7, alpha=0.5, seed=seed, client_id=cid
        ),
        7,
    ),
}


class TestPerClientMaterialization:
    """``materialize(cid)`` must be bit-identical to eager slicing."""

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_matches_eager_partition(self, name):
        eager_build, materialize, num_clients = PARTITIONERS[name]
        ds = _small_femnist()
        eager = eager_build(ds, 3)
        for cid in range(num_clients):
            lone = materialize(ds, 3, cid)
            ref = eager.clients[cid]
            assert lone.client_id == ref.client_id == cid
            np.testing.assert_array_equal(lone.x, ref.x)
            np.testing.assert_array_equal(lone.y, ref.y)
            # Same minibatch stream too: the materialized client can
            # substitute for the eager one mid-simulation.
            np.testing.assert_array_equal(
                lone.minibatch(4)[0], ref.minibatch(4)[0]
            )

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_rejects_out_of_range_cid(self, name):
        _, materialize, num_clients = PARTITIONERS[name]
        ds = _small_femnist()
        with pytest.raises(ValueError, match="outside"):
            materialize(ds, 3, num_clients)
        with pytest.raises(ValueError, match="outside"):
            materialize(ds, 3, -1)

    @given(
        seed=st.integers(min_value=0, max_value=30),
        queries=st.lists(
            st.integers(min_value=0, max_value=6), min_size=1, max_size=10
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_dirichlet_purity_under_query_order(self, seed, queries):
        # Same (seed, cid) -> byte-equal arrays regardless of which
        # clients were materialized before, in what order, how often.
        ds = _small_femnist(seed=seed % 3)
        reference = {
            cid: partition_dirichlet(
                ds, num_clients=7, alpha=0.5, seed=seed, client_id=cid
            )
            for cid in range(7)
        }
        for cid in queries:
            again = partition_dirichlet(
                ds, num_clients=7, alpha=0.5, seed=seed, client_id=cid
            )
            assert again.x.tobytes() == reference[cid].x.tobytes()
            assert again.y.tobytes() == reference[cid].y.tobytes()


# ----------------------------------------------------------------------
# Virtual federations
# ----------------------------------------------------------------------
from repro.data.virtual import (  # noqa: E402  (grouped with its tests)
    ENUMERATION_LIMIT,
    VirtualFederation,
    VirtualSpec,
)

SPEC = dict(samples_per_client=9, num_classes=6, image_size=5,
            classes_per_writer=3, test_samples=16, seed=7)


def _virtual(population=12):
    return VirtualFederation.build(population, **SPEC)


class TestVirtualSpec:
    def test_round_trips_through_dict(self):
        spec = VirtualSpec(population=50, **SPEC)
        assert VirtualSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            VirtualSpec(population=0)
        with pytest.raises(ValueError, match="exceed"):
            VirtualSpec(population=5, num_classes=3, classes_per_writer=4)

    def test_feature_dim(self):
        assert VirtualSpec(population=1, image_size=5).feature_dim == 25


class TestVirtualFederation:
    def test_satisfies_federated_dataset_surface(self):
        fed = _virtual()
        assert fed.num_clients == 12
        assert list(fed.client_ids) == list(range(12))
        np.testing.assert_array_equal(fed.sample_counts, np.full(12, 9))
        assert fed.total_samples == 108
        assert fed.test_x.shape[0] == fed.test_y.shape[0] == 16
        dataset = fed.client_dataset(3)
        assert len(dataset) == 9
        assert dataset.x.shape == (9, 25)
        np.testing.assert_array_equal(
            dataset.label_histogram(6),
            np.bincount(dataset.y, minlength=6),
        )

    def test_client_dataset_identity_stable(self):
        fed = _virtual()
        assert fed.client_dataset(4) is fed.client_dataset(4)
        with pytest.raises(ValueError, match="outside"):
            fed.client_dataset(12)

    def test_materialize_is_the_bit_identical_eager_twin(self):
        fed = _virtual()
        eager = materialize(fed)
        assert eager.num_clients == 12
        for cid in range(12):
            lazy = fed.client_dataset(cid)
            np.testing.assert_array_equal(lazy.x, eager.clients[cid].x)
            np.testing.assert_array_equal(lazy.y, eager.clients[cid].y)
            # ... and the minibatch streams coincide draw for draw.
            np.testing.assert_array_equal(
                lazy.minibatch(4)[0], eager.clients[cid].minibatch(4)[0]
            )
        np.testing.assert_array_equal(fed.test_x, eager.test_x)
        np.testing.assert_array_equal(fed.test_y, eager.test_y)

    def test_release_and_regenerate_is_exact(self):
        fed = _virtual()
        dataset = fed.client_dataset(5)
        x_before = dataset.x.copy()
        batch_ref = _virtual().client_dataset(5)  # never-released twin
        np.testing.assert_array_equal(
            dataset.minibatch(4)[0], batch_ref.minibatch(4)[0]
        )
        dataset.release()
        assert dataset._x is None
        np.testing.assert_array_equal(dataset.x, x_before)
        # The draw stream survived the release: next draws still match
        # the twin that never released.
        np.testing.assert_array_equal(
            dataset.minibatch(4)[0], batch_ref.minibatch(4)[0]
        )

    def test_lru_bounds_resident_arrays(self, monkeypatch):
        monkeypatch.setattr(VirtualFederation, "CACHE_SIZE", 3)
        fed = _virtual(population=10)
        datasets = [fed.client_dataset(cid) for cid in range(10)]
        for dataset in datasets:
            dataset.x  # materialize in order
        resident = [d.client_id for d in datasets if d._x is not None]
        assert resident == [7, 8, 9]  # only the LRU tail holds arrays
        # Touching an evicted client regenerates and evicts the oldest.
        datasets[0].x
        assert datasets[0]._x is not None and datasets[7]._x is None

    def test_eval_pool_matches_eager_construction(self):
        fed = _virtual()
        x, y = fed.eval_pool(max_samples=20, seed=11)
        gx, gy = materialize(fed).global_pool()
        rng = np.random.default_rng((11, 0xE0A1))
        rows = rng.choice(108, size=20, replace=False)
        np.testing.assert_array_equal(x, gx[rows])
        np.testing.assert_array_equal(y, gy[rows])
        # Small pools short-circuit to the full pool.
        fx, fy = fed.eval_pool(max_samples=1000, seed=11)
        np.testing.assert_array_equal(fx, gx)
        np.testing.assert_array_equal(fy, gy)

    def test_enumeration_guard(self):
        fed = _virtual(population=ENUMERATION_LIMIT + 1)
        with pytest.raises(RuntimeError, match="O\\(population\\)"):
            fed.clients
        with pytest.raises(RuntimeError, match="O\\(population\\)"):
            fed.global_pool()
        # Point queries stay fine at any size.
        assert fed.client_dataset(ENUMERATION_LIMIT).x.shape == (9, 25)

    def test_virtual_spec_reaches_the_backend(self):
        fed = _virtual()
        assert fed.is_virtual
        assert fed.client_dataset(2).virtual_spec is fed.spec

    @given(
        cid=st.integers(min_value=0, max_value=11),
        queries=st.lists(
            st.integers(min_value=0, max_value=11),
            min_size=0, max_size=8,
        ),
        spec_seed=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_client_arrays_are_pure(self, cid, queries, spec_seed):
        # Same (seed, cid) -> byte-equal arrays across calls,
        # instances and query orders: the invariant LRU releases
        # and worker-side regeneration rest on.
        spec = dict(SPEC, seed=spec_seed)
        fresh = VirtualFederation.build(12, **spec)
        reference_x, reference_y = fresh.client_arrays(cid)
        warmed = VirtualFederation.build(12, **spec)
        for other in queries:  # materialize others first, any order
            warmed.client_arrays(other)
        x, y = warmed.client_arrays(cid)
        assert x.tobytes() == reference_x.tobytes()
        assert y.tobytes() == reference_y.tobytes()
        again_x, again_y = warmed.client_arrays(cid)
        assert again_x.tobytes() == reference_x.tobytes()
        assert again_y.tobytes() == reference_y.tobytes()


# ----------------------------------------------------------------------
# Absolute pins: the relative tests above ("per-client equals eager",
# "virtual equals its eager twin") would still pass if both sides drifted
# together, so what each path produces is also pinned by SHA-256.
# ----------------------------------------------------------------------
def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _dataset_digest(ds) -> str:
    return _sha(ds.x, ds.y, ds.writer, ds.test_x, ds.test_y)


def _shard_digest(shard) -> str:
    """A shard's arrays and the first two draws of its minibatch stream."""
    return _sha(shard.client_id, shard.x, shard.y,
                *shard.minibatch(4), *shard.minibatch(4))


def _federation_digest(fed) -> str:
    return _sha(*(_shard_digest(c) for c in fed.clients),
                fed.test_x, fed.test_y)


def _lone_digest(name, seed) -> str:
    _, materialize, num_clients = PARTITIONERS[name]
    ds = _small_femnist()
    return _sha(*(_shard_digest(materialize(ds, seed, cid))
                  for cid in range(num_clients)))


def _engine_pool_digest(fed) -> str:
    model = make_mlp(fed.test_x.shape[1], fed.num_classes, hidden=(4,))
    engine = RoundEngine(model, fed, None, TimingModel(model.dimension, 1.0),
                         eval_max_samples=20, seed=5)
    return _sha(engine._eval_x, engine._eval_y)


def _lazy_stream_digest() -> str:
    dataset = _virtual(population=20).client_dataset(4)
    draws = [dataset.minibatch(4) for _ in range(3)]
    dataset.release()
    draws += [dataset.minibatch(4) for _ in range(3)]
    return _sha(*(array for batch in draws for array in batch))


_PIN_CIFAR = dict(num_clients=6, samples_per_client=10, num_classes=5,
                  image_size=4, seed=5)
_PIN_VIRTUAL = VirtualFederation.build(1000, **SPEC)

DATA_PINS = {
    "femnist_flat": lambda: _dataset_digest(_small_femnist(seed=5)),
    "femnist_image": lambda: _dataset_digest(make_femnist_like(
        num_writers=6, samples_per_writer=12, num_classes=8, image_size=6,
        classes_per_writer=3, flatten=False, seed=5,
    )),
    "cifar_flat": lambda: _dataset_digest(make_cifar_like(**_PIN_CIFAR)),
    "cifar_image": lambda: _dataset_digest(
        make_cifar_like(**_PIN_CIFAR, flatten=False)
    ),
    **{
        f"{name}_eager_seed{seed}": (
            lambda build=PARTITIONERS[name][0], seed=seed:
            _federation_digest(build(_small_femnist(), seed))
        )
        for name in PARTITIONERS for seed in (3, 11)
    },
    **{
        f"{name}_client_id_seed{seed}": (
            lambda name=name, seed=seed: _lone_digest(name, seed)
        )
        for name in PARTITIONERS for seed in (3, 11)
    },
    **{
        f"iid_eager_seed{seed}": (
            lambda seed=seed: _federation_digest(
                partition_iid(_small_femnist(), num_clients=5, seed=seed)
            )
        )
        for seed in (3, 11)
    },
    **{
        f"virtual_client_arrays_cid{cid}": (
            lambda cid=cid: _sha(*_PIN_VIRTUAL.client_arrays(cid))
        )
        for cid in (0, 1, 999)
    },
    "virtual_test_pool": lambda: _sha(_PIN_VIRTUAL.test_x,
                                      _PIN_VIRTUAL.test_y),
    "engine_eval_pool_eager": lambda: _engine_pool_digest(
        partition_by_writer(_small_femnist(), seed=3)
    ),
    "engine_eval_pool_virtual": lambda: _engine_pool_digest(_virtual()),
    "lazy_minibatch_stream_with_release": _lazy_stream_digest,
}

#: generated once, before the eager and per-client paths were merged;
#: never regenerate — a mismatch is a changed dataset
DATA_DIGESTS = {
    "cifar_flat": "cafacb26c27754adf74a09aeb47ca169379b7a872f8b960a2076dbbe1052e5fe",
    "cifar_image": "4d38edd44966c381c7352a7e2a081924dc6fbc22172124cddfe1e35926c701a1",
    "class_client_id_seed11": "ac73c20cd3cf7d5e332a4016e4019cc4e269e6664b44ff6a486b88689621def3",
    "class_client_id_seed3": "fda994e3e7f328a5d7bd00b8ed13da0ac6b9a01a29ad430ccf9752a79fb939bd",
    "class_eager_seed11": "db1a85f098e1c429ebd25f5eaf8c758f22d0a8a90a582707ef61717cde4661d1",
    "class_eager_seed3": "74bed986c273eae347f535b20c42a5e84e5231a8474259a19dbdb08922d2b5d8",
    "dirichlet_client_id_seed11": "0d5689a7e9e61de29e9abce06eab4f5a1e967883665865134071ec8b3fb4984e",
    "dirichlet_client_id_seed3": "ff29a8e26d93990e5132384875b35f89723f592cd3e22cdf2a0744e65c6df0dd",
    "dirichlet_eager_seed11": "9afce877b87c791f1d4348121c238623a07e4626b13637aa94fea345cd762629",
    "dirichlet_eager_seed3": "52829ac1efbcea215c8535e68fb660ad9352ff645bd82489a5559a0faa5c80a6",
    "engine_eval_pool_eager": "028eb378ea8b36345a642d1b0cbf07c5acbbc33a71c1738af0d55f6ec988989f",
    "engine_eval_pool_virtual": "e564745fed819b1f3bd4d953f2ceaff59c567dd3343428aa230a8b1594888029",
    "femnist_flat": "6a30295e3968dcc836b1308e6a0f27bbc136f006157f942c9654c34bc1738120",
    "femnist_image": "387506a9b4b12cf7cfb0343625a6a7bf9bbde4c03764bf3b157894d86e4c2ae3",
    "iid_eager_seed11": "13bd445a02a87439960c7be0093c24a2475643a50f748d57acf06d8eed4a9295",
    "iid_eager_seed3": "70314f8d22d1d1aac3f8d5941531029b22be75a2c4a91cd8b4e751865f7f1031",
    "lazy_minibatch_stream_with_release": "7ae52476f87e5ec014e27960d973791eb15d56ffad09748d6355faf5f3b00053",
    "virtual_client_arrays_cid0": "c5cb5bd11e1639e05906b836f2994c07d8597ba4197bc74c34f6c9272f9345d6",
    "virtual_client_arrays_cid1": "de13432ae9c0e5b15e1f1b8653e4c5722e8396dc423aeacb7d28436e6f314011",
    "virtual_client_arrays_cid999": "7c13f2616ed75cd49af9ae471e643688ed5b9faaf608c15aedd9e0dc7c5fd648",
    "virtual_test_pool": "ac715dac4830dfc870cbd7d39abe732f0c98cc4af34aa097a9282e7e39b599a0",
    "writer_client_id_seed11": "ccf9c397fc3f11d2757469741cb3f55990d2a8434d660379537356e9738593e7",
    "writer_client_id_seed3": "79ea192acb1a067e7a9fd8527b67e0495e78c8466baebad6ef5470c3bf3cc7a8",
    "writer_eager_seed11": "95f894df9f6ec84dd43d4a932ddd9c311cc3ed09aec70504bdc38b978a4bcd4f",
    "writer_eager_seed3": "22ceeca325113c879166c44a72f4f7f057b4cff199bad636252a6022be2ad90e",
}


class TestAbsolutePins:
    @pytest.mark.parametrize("case", sorted(DATA_PINS))
    def test_digest(self, case):
        assert DATA_PINS[case]() == DATA_DIGESTS[case]

    def test_every_pin_has_a_digest(self):
        assert sorted(DATA_DIGESTS) == sorted(DATA_PINS)


# ----------------------------------------------------------------------
# Lint: one shard path
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _src_nodes():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            yield relative, node


def _compares_client_id_with_none(test) -> bool:
    return any(
        isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id == "client_id"
                for n in ast.walk(node))
        and any(isinstance(n, ast.Constant) and n.value is None
                for n in ast.walk(node))
        for node in ast.walk(test)
    )


class TestOneShardPath:
    """Eager and virtual clients share one minibatch stream and one
    eval-pool rule, and the partitioners one rows-to-shards step."""

    def test_one_minibatch(self):
        sites = [f"{rel}:{node.lineno}" for rel, node in _src_nodes()
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "minibatch"]
        assert len(sites) == 1, sites

    def test_one_eval_pool_tag(self):
        sites = [f"{rel}:{node.lineno}" for rel, node in _src_nodes()
                 if isinstance(node, ast.Constant)
                 and type(node.value) is int and node.value == 0xE0A1]
        assert len(sites) == 1, sites

    def test_partition_branches_on_client_id_once(self):
        tree = ast.parse((SRC / "data" / "partition.py").read_text())
        sites = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.If, ast.IfExp))
                 and _compares_client_id_with_none(node.test)]
        assert len(sites) == 1, sites
