"""Test fixtures and conversions no entry point needs.

A Gaussian-mixture dataset, its uniform split and a logistic-regression
model are the fastest federation and model to train in a unit test; a
sparse vector's dense form and a virtual federation's eager twin are
what the equality checks compare against; a results store's key listing
is what the cache checks read; an in-memory event list is the telemetry
sink traced runs are read back from.  None of them is
library surface: every CLI command, benchmark and example builds its
data with ``repro.data`` and its model with ``repro.nn.models``.
"""

import numpy as np

from repro.data.partition import ClientDataset, FederatedDataset, _shards
from repro.data.synthetic import SyntheticDataset
from repro.nn.flat import FlatModel
from repro.nn.layers import Linear, Sequential


def make_gaussian_blobs(
    num_samples: int = 200,
    num_classes: int = 4,
    feature_dim: int = 10,
    separation: float = 3.0,
    seed: int = 0,
) -> SyntheticDataset:
    """Tiny Gaussian-mixture dataset for fast unit tests.

    Class means are drawn on a sphere of radius ``separation``; features
    are unit-variance Gaussians around the class mean.  Writers are
    assigned round-robin so writer-based partitioning stays usable.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, feature_dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    y = rng.integers(0, num_classes, num_samples).astype(np.int64)
    x = means[y] + rng.standard_normal((num_samples, feature_dim))
    writer = (np.arange(num_samples) % max(1, num_samples // 10)).astype(np.int64)
    test_y = rng.integers(0, num_classes, max(10, num_samples // 10)).astype(np.int64)
    test_x = means[test_y] + rng.standard_normal((test_y.size, feature_dim))
    return SyntheticDataset(
        x=x, y=y, writer=writer, num_classes=num_classes, name="gaussian-blobs",
        test_x=test_x, test_y=test_y,
    )


def partition_iid(
    dataset: SyntheticDataset, num_clients: int, seed: int = 0
) -> FederatedDataset:
    """Uniform random split — the datacenter-style IID baseline."""
    if num_clients > len(dataset):
        raise ValueError("more clients than samples")
    rng = np.random.default_rng(seed)
    rows = np.array_split(rng.permutation(len(dataset)), num_clients)
    return _shards(dataset, rows, seed)


def make_logistic(input_dim: int, num_classes: int, seed: int = 0) -> FlatModel:
    """Multinomial logistic regression — the smallest useful model.

    D = input_dim*classes + classes.
    """
    rng = np.random.default_rng(seed)
    network = Sequential([Linear(input_dim, num_classes, rng)])
    return FlatModel(network)


def to_dense(vector) -> np.ndarray:
    """The dense D-vector of a :class:`~repro.sparsify.base.SparseVector`."""
    dense = np.zeros(vector.dimension)
    dense[vector.indices] = vector.values
    return dense


def materialize(federation) -> FederatedDataset:
    """The eager twin of a ``VirtualFederation``: every client as a plain
    ``ClientDataset``.  A training run over the virtual federation must
    equal the same run over this eager federation exactly."""
    spec = federation.spec
    clients = [
        ClientDataset(client_id=cid, x=x, y=y, seed=spec.seed)
        for cid in federation.client_ids
        for x, y in (federation.client_arrays(cid),)
    ]
    return FederatedDataset(
        clients=clients,
        num_classes=spec.num_classes,
        test_x=federation.test_x,
        test_y=federation.test_y,
        name=spec.name,
    )


def store_keys(store) -> list[str]:
    """The content keys a :class:`~repro.parallel.store.ResultsStore`
    holds an entry for, sorted."""
    if not store.root.is_dir():
        return []
    return sorted(path.stem for path in store.root.glob("*.json"))


class EventList(list):
    """A telemetry sink that keeps the (validated) events in memory."""

    write = list.append

    def flush(self):
        pass

    def close(self):
        pass
