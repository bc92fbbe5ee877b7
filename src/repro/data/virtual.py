"""Population-scale virtual federations.

The eager generators in :mod:`repro.data.synthetic` draw every writer from
ONE sequential RNG, so they cannot produce client ``i`` without producing
clients ``0..i-1`` first — fine at 96 clients, structurally O(population)
at a million.  This module provides a *generative family with per-client
pure streams*: every quantity a client needs is a function of
``(dataset_seed, client_id)`` alone (plus class prototypes, themselves a
pure function of the seed), so any client can be regenerated on demand,
byte-identically, in any order, in any process.

Three pieces:

* :class:`VirtualSpec` — the picklable value object describing the whole
  federation (what the sharded backend ships to workers instead of
  datasets).
* :class:`LazyClientDataset` — a :class:`~repro.data.partition.
  ClientDataset` whose arrays materialize on first access and can be
  released and regenerated at will; the minibatch stream is the base
  class's and survives releases.
* :class:`VirtualFederation` — the :class:`~repro.data.partition.
  FederatedDataset` surface over ``population`` virtual clients with a
  bounded LRU over recently *materialized* clients and an ``eval_pool``
  that draws its rows by the eager rule but only materializes the
  O(max_samples) clients that own one.

A client is drawn by the same writer draw as :func:`~repro.data.
synthetic.make_femnist_like` (per-client class subset, gain/style/noise
around shared prototypes), from a per-cid generator instead of one shared
one — so it is a *new* dataset, not a reordering of the eager one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from repro.data.partition import ClientDataset, _eval_rows
from repro.data.synthetic import _draw_writer, _make_prototypes, _make_test_pool
from repro.obs import NULL_TELEMETRY

#: per-cid client-data stream tag (disjoint from every other stream tag
#: in the repo: 0xC11E client RNG, 0x5CE2 sampler, ...)
CLIENT_DATA_TAG = 0xDA7A
#: prototype stream tag (shared across the federation, pure in the seed)
PROTOTYPE_TAG = 0x9707
#: held-out test-pool stream tag
TEST_POOL_TAG = 0x7E57

#: refuse O(population) conveniences (``.clients``/``global_pool``) above
#: this size — they exist so small virtual federations can be compared
#: against their eager twin, not for production populations
ENUMERATION_LIMIT = 200_000


@dataclass(frozen=True)
class VirtualSpec:
    """Everything needed to regenerate any client of the federation.

    A frozen value object of primitives: picklable (the sharded backend
    registers a virtual client with this instead of its dataset) and
    JSON-ready via :meth:`to_dict` (bench/CI manifests).
    """

    population: int
    samples_per_client: int = 30
    num_classes: int = 62
    image_size: int = 12
    classes_per_writer: int = 8
    channels: int = 1
    noise_std: float = 0.25
    flatten: bool = True
    test_samples: int = 256
    seed: int = 0
    name: str = "virtual-femnist"

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be positive")
        if self.samples_per_client < 1:
            raise ValueError("samples_per_client must be positive")
        if self.classes_per_writer > self.num_classes:
            raise ValueError("classes_per_writer cannot exceed num_classes")
        if self.classes_per_writer < 1 or self.num_classes < 1:
            raise ValueError("need at least one class")
        if self.channels < 1 or self.image_size < 1:
            raise ValueError("invalid image shape")
        if self.test_samples < 1:
            raise ValueError("test_samples must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VirtualSpec":
        return cls(**data)

    @property
    def feature_dim(self) -> int:
        return self.channels * self.image_size**2


class LazyClientDataset(ClientDataset):
    """One virtual client's shard; arrays regenerate on demand.

    A :class:`~repro.data.partition.ClientDataset` that differs only in
    where ``x``/``y`` come from.  The minibatch stream is *not* part of
    the releasable state: :meth:`release` drops only the arrays, so a
    client the LRU evicted and later rematerialized continues its draw
    stream where it left off — as if it had never released.
    """

    def __init__(
        self,
        federation: "VirtualFederation",
        client_id: int,
        sample_count: int,
        seed: int,
    ) -> None:
        self.client_id = int(client_id)
        self.seed = seed
        self._federation = federation
        self._count = int(sample_count)
        self.release()

    def __len__(self) -> int:
        return self._count

    @property
    def virtual_spec(self) -> VirtualSpec:
        """The federation spec this client regenerates from.

        The sharded backend ships this tiny value object to the worker
        owning the client instead of pickling sample arrays; the worker
        rebuilds the dataset from ``(spec, client_id)`` bit-identically.
        """
        return self._federation.spec

    def _ensure(self) -> None:
        if self._x is None:
            self._x, self._y = self._federation.client_arrays(self.client_id)
            tel = self._federation.telemetry
            if tel.enabled:
                tel.count("virtual.regenerate")
        self._federation._touch(self)

    @property
    def x(self) -> np.ndarray:
        self._ensure()
        return self._x

    @property
    def y(self) -> np.ndarray:
        self._ensure()
        return self._y

    def release(self) -> None:
        """Drop the sample arrays (regenerated on next access)."""
        self._x = None
        self._y = None


class VirtualFederation:
    """``FederatedDataset`` surface over ``population`` virtual clients.

    Only ever-touched clients exist as objects; only the ``CACHE_SIZE``
    most recently accessed hold their sample arrays (older ones are
    released and regenerate on demand).  Per-round cost of a training run
    is O(cohort); memory is O(ever-sampled clients).
    """

    #: duck-typed marker the engine/runner check instead of isinstance
    is_virtual = True
    #: observation-only; the engine replaces this with its telemetry so
    #: LRU hits/evictions/regenerations get counted (parent process only).
    telemetry = NULL_TELEMETRY
    CACHE_SIZE = 256

    def __init__(self, spec: VirtualSpec) -> None:
        self.spec = spec
        self.num_classes = spec.num_classes
        self.name = spec.name
        self._prototypes: np.ndarray | None = None
        self._test: tuple[np.ndarray, np.ndarray] | None = None
        #: ever-touched clients, identity-stable across queries
        self._datasets: dict[int, LazyClientDataset] = {}
        #: LRU over clients whose arrays are resident
        self._resident: OrderedDict[int, LazyClientDataset] = OrderedDict()

    @classmethod
    def build(cls, population: int, **spec_kwargs):
        """Convenience constructor: ``population`` plus spec keywords."""
        return cls(VirtualSpec(population=population, **spec_kwargs))

    # ------------------------------------------------------------------
    # FederatedDataset surface
    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return self.spec.population

    @property
    def client_ids(self) -> range:
        return range(self.spec.population)

    @property
    def sample_counts(self) -> np.ndarray:
        return np.full(self.spec.population, self.spec.samples_per_client)

    @property
    def total_samples(self) -> int:
        return self.spec.population * self.spec.samples_per_client

    @property
    def clients(self) -> list[LazyClientDataset]:
        """All clients as (unmaterialized) lazy datasets.

        O(population) object construction — only allowed for federations
        small enough to compare against an eager twin."""
        self._check_enumerable("clients")
        return [self.client_dataset(cid) for cid in self.client_ids]

    @property
    def test_x(self) -> np.ndarray:
        return self._test_pool()[0]

    @property
    def test_y(self) -> np.ndarray:
        return self._test_pool()[1]

    def global_pool(self) -> tuple[np.ndarray, np.ndarray]:
        """All training samples concatenated — O(population), guarded."""
        self._check_enumerable("global_pool")
        xs, ys = zip(*(self.client_arrays(cid) for cid in self.client_ids))
        return np.concatenate(xs), np.concatenate(ys)

    # ------------------------------------------------------------------
    # Virtual construction
    # ------------------------------------------------------------------
    def client_dataset(self, client_id: int) -> LazyClientDataset:
        """The (identity-stable) lazy dataset for one client."""
        cid = int(client_id)
        dataset = self._datasets.get(cid)
        if dataset is None:
            if not 0 <= cid < self.spec.population:
                raise ValueError(
                    f"client_id {cid} outside population "
                    f"[0, {self.spec.population})"
                )
            dataset = LazyClientDataset(
                self, cid, self.spec.samples_per_client, self.spec.seed
            )
            self._datasets[cid] = dataset
        return dataset

    def client_arrays(self, client_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Regenerate one client's ``(x, y)`` from ``(seed, cid)`` alone.

        Pure: same ``(spec, client_id)`` gives byte-equal arrays across
        calls, instances, processes and query orders (the invariant LRU
        releases and worker-side construction rest on).
        """
        spec = self.spec
        cid = int(client_id)
        if not 0 <= cid < spec.population:
            raise ValueError(
                f"client_id {cid} outside population [0, {spec.population})"
            )
        rng = np.random.default_rng((spec.seed, CLIENT_DATA_TAG, cid))
        return _draw_writer(
            rng, self._prototype_array(), spec.classes_per_writer,
            spec.samples_per_client, spec.noise_std, spec.flatten,
        )

    def eval_pool(
        self, max_samples: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The engine's evaluation pool without touching the population.

        The :meth:`global_pool` rows the eager ``FederatedDataset.
        eval_pool`` rule picks, gathered from only the clients that own
        one (every client holds ``samples_per_client`` rows, so row ``r``
        lives at ``(r // spc)[r % spc]``).  numpy's no-replacement
        ``choice`` is O(max_samples) in memory at any population size
        (verified: no permutation of ``total`` is built).
        """
        rows = _eval_rows(self.total_samples, max_samples, seed)
        cids, offsets = np.divmod(rows, self.spec.samples_per_client)
        x = np.empty((rows.size, *self._sample_shape()))
        y = np.empty(rows.size, dtype=np.int64)
        for cid in np.unique(cids):
            cx, cy = self.client_arrays(int(cid))
            mask = cids == cid
            x[mask] = cx[offsets[mask]]
            y[mask] = cy[offsets[mask]]
        return x, y

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sample_shape(self) -> tuple[int, ...]:
        spec = self.spec
        if spec.flatten:
            return (spec.feature_dim,)
        return (spec.channels, spec.image_size, spec.image_size)

    def _prototype_array(self) -> np.ndarray:
        if self._prototypes is None:
            rng = np.random.default_rng((self.spec.seed, PROTOTYPE_TAG))
            self._prototypes = _make_prototypes(
                rng, self.spec.num_classes, self.spec.channels,
                self.spec.image_size,
            )
        return self._prototypes

    def _test_pool(self) -> tuple[np.ndarray, np.ndarray]:
        if self._test is None:
            rng = np.random.default_rng((self.spec.seed, TEST_POOL_TAG))
            self._test = _make_test_pool(
                rng, self._prototype_array(), self.spec.noise_std,
                self.spec.test_samples, self.spec.flatten,
            )
        return self._test

    def _touch(self, dataset: LazyClientDataset) -> None:
        """LRU bookkeeping: ``dataset`` was just accessed while resident."""
        tel = self.telemetry
        cid = dataset.client_id
        if cid in self._resident:
            self._resident.move_to_end(cid)
            if tel.enabled:
                tel.count("virtual.lru_hit")
            return
        self._resident[cid] = dataset
        while len(self._resident) > self.CACHE_SIZE:
            _, evicted = self._resident.popitem(last=False)
            evicted.release()
            if tel.enabled:
                tel.count("virtual.lru_evict")

    def _check_enumerable(self, what: str) -> None:
        if self.spec.population > ENUMERATION_LIMIT:
            raise RuntimeError(
                f"{what} is O(population) and this federation has "
                f"{self.spec.population} clients; use client_dataset(cid) "
                "/ eval_pool() instead"
            )
