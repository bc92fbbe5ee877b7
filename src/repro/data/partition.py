"""Partition a dataset pool into per-client shards.

The paper's two evaluation settings map to :func:`partition_by_writer`
(FEMNIST: "pre-partitioned according to the writer where each writer
corresponds to a client") and :func:`partition_by_class` (CIFAR-10: "each
client only has one class of images that is randomly partitioned among all
the clients with this image class").  A Dirichlet partitioner is provided
for the label-skew ablation.

A partition is an index map: each partitioner computes every client's
rows of the pool once, and client ``i`` holds the samples at ``rows[i]``.
With ``client_id`` set, a partitioner returns that one client's
:class:`ClientDataset` from the same rows instead of the whole federation
(index bookkeeping for all, sample arrays for one).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.synthetic import SyntheticDataset

#: evaluation-pool stream tag (disjoint from every other stream tag in
#: the repo: 0xC11E client RNG, 0xDA7A virtual client data, 0x5CE2
#: sampler, ...)
EVAL_POOL_TAG = 0xE0A1


@dataclass
class ClientDataset:
    """One client's local shard with seeded minibatch sampling.

    The minibatch stream is seeded ``(seed, client_id)`` on the first
    draw and depends on nothing else — in particular not on where ``x``
    and ``y`` come from (:class:`~repro.data.virtual.LazyClientDataset`
    regenerates them on demand).
    """

    client_id: int
    x: np.ndarray
    y: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have equal sample counts")
        if self.x.shape[0] == 0:
            raise ValueError(f"client {self.client_id} received no samples")

    def __len__(self) -> int:
        return self.x.shape[0]

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.client_id))

    def minibatch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample a minibatch with replacement-free draw when possible.

        When ``batch_size`` >= local sample count the full shard is
        returned (matching common FL simulators).
        """
        n = len(self)
        if batch_size >= n:
            return self.x, self.y
        idx = self._rng.choice(n, size=batch_size, replace=False)
        return self.x[idx], self.y[idx]

    def label_histogram(self, num_classes: int) -> np.ndarray:
        """Count of samples per class on this client."""
        return np.bincount(self.y, minlength=num_classes)


@dataclass
class FederatedDataset:
    """A full federation: client shards plus the global test pool."""

    clients: list[ClientDataset]
    num_classes: int
    test_x: np.ndarray | None = None
    test_y: np.ndarray | None = None
    name: str = "federated"

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def sample_counts(self) -> np.ndarray:
        """``C_i`` of the paper: per-client sample counts."""
        return np.array([len(c) for c in self.clients])

    @property
    def total_samples(self) -> int:
        """``C`` of the paper."""
        return int(self.sample_counts.sum())

    def global_pool(self) -> tuple[np.ndarray, np.ndarray]:
        """All training samples concatenated (for global-loss evaluation)."""
        x = np.concatenate([c.x for c in self.clients])
        y = np.concatenate([c.y for c in self.clients])
        return x, y

    def eval_pool(
        self, max_samples: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The engine's loss-evaluation pool: the :meth:`global_pool`
        rows :func:`_eval_rows` picks."""
        x, y = self.global_pool()
        rows = _eval_rows(len(y), max_samples, seed)
        return x[rows], y[rows]

    def non_iid_degree(self) -> float:
        """Mean total-variation distance between client and global label
        distributions; 0 for perfectly IID shards, → 1 for disjoint ones."""
        global_hist = np.zeros(self.num_classes)
        for c in self.clients:
            global_hist += c.label_histogram(self.num_classes)
        global_dist = global_hist / global_hist.sum()
        tvs = []
        for c in self.clients:
            h = c.label_histogram(self.num_classes)
            dist = h / h.sum()
            tvs.append(0.5 * np.abs(dist - global_dist).sum())
        return float(np.mean(tvs))


def _eval_rows(total: int, max_samples: int, seed: int) -> np.ndarray:
    """Which of a federation's ``total`` pooled rows the engine evaluates
    on: all of them in order, or ``max_samples`` drawn without replacement
    from the ``(seed, EVAL_POOL_TAG)`` stream."""
    if total <= max_samples:
        return np.arange(total)
    rng = np.random.default_rng((seed, EVAL_POOL_TAG))
    return rng.choice(total, size=max_samples, replace=False)


def partition_by_writer(
    dataset: SyntheticDataset, seed: int = 0, *, client_id: int | None = None
):
    """One client per writer (the FEMNIST setting)."""
    rows = [
        np.flatnonzero(dataset.writer == w) for w in np.unique(dataset.writer)
    ]
    return _shards(dataset, rows, seed, client_id)


def partition_by_class(
    dataset: SyntheticDataset, num_clients: int, seed: int = 0,
    *, client_id: int | None = None,
):
    """Each client holds a single class (the paper's CIFAR-10 setting).

    Clients are assigned classes round-robin; the samples of each class
    are split randomly and evenly among the clients holding that class.
    Requires ``num_clients >= num_classes`` so every class is covered.
    """
    if num_clients < dataset.num_classes:
        raise ValueError(
            f"need at least num_classes={dataset.num_classes} clients, "
            f"got {num_clients}"
        )
    rng = np.random.default_rng(seed)
    class_of_client = np.arange(num_clients) % dataset.num_classes
    rows: list[np.ndarray] = [None] * num_clients
    for cls in range(dataset.num_classes):
        holders = np.flatnonzero(class_of_client == cls)
        idx = np.flatnonzero(dataset.y == cls)
        if idx.size < holders.size:
            raise ValueError(
                f"class {cls} has {idx.size} samples but {holders.size} clients"
            )
        rng.shuffle(idx)
        for cid, part in zip(holders, np.array_split(idx, holders.size)):
            rows[cid] = part
    return _shards(dataset, rows, seed, client_id)


def partition_dirichlet(
    dataset: SyntheticDataset, num_clients: int, alpha: float = 0.5,
    seed: int = 0, *, client_id: int | None = None,
):
    """Dirichlet(alpha) label-skew partition (smaller alpha = more skew)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    for cls in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.y == cls)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        cuts = (np.cumsum(proportions)[:-1] * idx.size).astype(int)
        for cid, part in enumerate(np.split(idx, cuts)):
            buckets[cid].extend(part.tolist())
    # Guarantee every client has at least one sample by stealing from the
    # largest bucket; Dirichlet draws with small alpha can empty a client.
    for bucket in buckets:
        if not bucket:
            donor = max(range(num_clients), key=lambda c: len(buckets[c]))
            bucket.append(buckets[donor].pop())
    rows = [np.array(sorted(bucket)) for bucket in buckets]
    return _shards(dataset, rows, seed, client_id)


def _shards(
    dataset: SyntheticDataset, rows: list[np.ndarray], seed: int,
    client_id: int | None = None,
) -> FederatedDataset | ClientDataset:
    """Client ``i`` holds ``dataset``'s ``rows[i]``: the federation, or
    with ``client_id`` set that one client's shard."""

    def shard(cid: int) -> ClientDataset:
        return ClientDataset(client_id=cid, x=dataset.x[rows[cid]],
                             y=dataset.y[rows[cid]], seed=seed)

    if client_id is not None:
        if not 0 <= int(client_id) < len(rows):
            raise ValueError(f"client_id {client_id} outside [0, {len(rows)})")
        return shard(int(client_id))
    return FederatedDataset(
        clients=[shard(cid) for cid in range(len(rows))],
        num_classes=dataset.num_classes,
        test_x=dataset.test_x,
        test_y=dataset.test_y,
        name=dataset.name,
    )
