"""Federated dataset substrate.

The paper evaluates on FEMNIST (62 classes, pre-partitioned by writer —
naturally non-i.i.d.) and CIFAR-10 under an extreme partition where each
client holds a single class.  Neither dataset can be downloaded in this
offline environment, so :mod:`repro.data.synthetic` generates statistically
analogous datasets — class prototypes with per-writer style transforms and
additive noise — and :mod:`repro.data.partition` reproduces the paper's
partitioning schemes (by writer, one class per client, Dirichlet).
The methods under study only see per-client gradients, so what the
substitution must keep — and does — is the label/style skew across clients.
"""

from repro.data.partition import (
    ClientDataset,
    FederatedDataset,
    partition_by_class,
    partition_by_writer,
    partition_dirichlet,
)
from repro.data.synthetic import (
    SyntheticDataset,
    make_cifar_like,
    make_femnist_like,
)
from repro.data.virtual import (
    LazyClientDataset,
    VirtualFederation,
    VirtualSpec,
)

__all__ = [
    "ClientDataset",
    "FederatedDataset",
    "LazyClientDataset",
    "SyntheticDataset",
    "VirtualFederation",
    "VirtualSpec",
    "make_cifar_like",
    "make_femnist_like",
    "partition_by_class",
    "partition_by_writer",
    "partition_dirichlet",
]
