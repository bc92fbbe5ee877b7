"""Synthetic dataset generators standing in for FEMNIST and CIFAR-10.

Generation model
----------------
Each class ``c`` has a fixed prototype image drawn once from a seeded RNG.
Each *writer* (FEMNIST terminology; "style group" in general) has a style
transform — a small affine distortion of pixel intensities plus a writer
bias pattern — applied to every sample the writer produces.  A sample is::

    x = clip(gain_w * prototype_c + style_w + noise, lo, hi)

This reproduces the two statistical properties the paper's experiments rely
on: samples of a class are mutually similar but not identical, and samples
from the same writer share correlated structure that differs between
writers (the source of non-i.i.d.-ness when partitioning by writer).

The images are intentionally low-resolution (default 12x12 for the
"FEMNIST-like" data, 8x8x3 for the "CIFAR-like" data) so that the
experiment sweeps complete at laptop scale; pass a larger ``image_size``
for higher fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SyntheticDataset:
    """A flat pool of labelled samples plus provenance metadata.

    Attributes
    ----------
    x:
        Sample array.  Shape ``(n, features)`` for flat models or
        ``(n, channels, h, w)`` for CNNs.
    y:
        Integer labels, shape ``(n,)``.
    writer:
        Writer (style-group) id of each sample, shape ``(n,)``.  Used by
        :func:`repro.data.partition.partition_by_writer`.
    num_classes:
        Total number of classes.
    name:
        Human-readable dataset name.
    """

    x: np.ndarray
    y: np.ndarray
    writer: np.ndarray
    num_classes: int
    name: str = "synthetic"
    test_x: np.ndarray | None = field(default=None, repr=False)
    test_y: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = self.x.shape[0]
        if self.y.shape != (n,) or self.writer.shape != (n,):
            raise ValueError("x, y, writer must agree on sample count")
        if n and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def feature_dim(self) -> int:
        """Number of features per sample after flattening."""
        return int(np.prod(self.x.shape[1:]))


def make_femnist_like(
    num_writers: int = 30,
    samples_per_writer: int = 40,
    num_classes: int = 62,
    image_size: int = 12,
    classes_per_writer: int = 8,
    noise_std: float = 0.25,
    test_fraction: float = 0.1,
    flatten: bool = True,
    seed: int = 0,
) -> SyntheticDataset:
    """FEMNIST-like data: 62 classes, writer-partitioned, non-i.i.d.

    Each writer draws from a writer-specific subset of
    ``classes_per_writer`` classes (real FEMNIST writers likewise cover
    only the characters they wrote), with writer-specific style.  The
    paper's setup (156 writers, 34,659 samples) is reproduced by scaling
    ``num_writers`` and ``samples_per_writer`` up.

    Returns a dataset with held-out test samples (drawn from the same
    writers) in ``test_x`` / ``test_y``.
    """
    if classes_per_writer > num_classes:
        raise ValueError("classes_per_writer cannot exceed num_classes")
    rng = np.random.default_rng(seed)
    prototypes = _make_prototypes(rng, num_classes, 1, image_size)
    xs, ys = zip(*(
        _draw_writer(rng, prototypes, classes_per_writer, samples_per_writer,
                     noise_std, flatten)
        for _ in range(num_writers)
    ))
    test_n = max(1, int(test_fraction * num_writers * samples_per_writer))
    test_x, test_y = _make_test_pool(rng, prototypes, noise_std, test_n, flatten)
    return SyntheticDataset(
        x=np.concatenate(xs), y=np.concatenate(ys),
        writer=np.repeat(np.arange(num_writers, dtype=np.int64),
                         samples_per_writer),
        num_classes=num_classes, name="femnist-like",
        test_x=test_x, test_y=test_y,
    )


def make_cifar_like(
    num_clients: int = 20,
    samples_per_client: int = 50,
    num_classes: int = 10,
    image_size: int = 8,
    noise_std: float = 0.3,
    test_fraction: float = 0.1,
    flatten: bool = True,
    seed: int = 0,
) -> SyntheticDataset:
    """CIFAR-10-like data for the one-class-per-client partition.

    Color (3-channel) prototypes.  The ``writer`` field holds the client id
    under the paper's strong non-i.i.d. assignment: client ``i`` receives
    samples of class ``i % num_classes`` only, so partitioning by writer
    reproduces "each client only has one class of images".
    """
    rng = np.random.default_rng(seed)
    prototypes = _make_prototypes(rng, num_classes, 3, image_size)
    shape = prototypes[0].shape
    xs = []
    for client in range(num_clients):
        gain = rng.uniform(0.8, 1.2)
        style = rng.normal(0.0, 0.15, size=shape)
        noise = rng.normal(0.0, noise_std, size=(samples_per_client, *shape))
        prototype = prototypes[client % num_classes]
        xs.append(_flat(np.clip(gain * prototype + style + noise, -3.0, 3.0),
                        flatten))
    writer = np.repeat(np.arange(num_clients, dtype=np.int64),
                       samples_per_client)
    test_n = max(1, int(test_fraction * num_classes * samples_per_client))
    test_x, test_y = _make_test_pool(rng, prototypes, noise_std, test_n, flatten)
    return SyntheticDataset(
        x=np.concatenate(xs), y=writer % num_classes, writer=writer,
        num_classes=num_classes, name="cifar-like",
        test_x=test_x, test_y=test_y,
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _make_prototypes(
    rng: np.random.Generator, num_classes: int, channels: int, image_size: int
) -> np.ndarray:
    """Smooth random prototype image per class, shape (classes, c, h, w)."""
    raw = rng.standard_normal((num_classes, channels, image_size, image_size))
    # Box-blur once so prototypes have spatial structure rather than
    # white noise; classes stay well separated because the blur is shared.
    blurred = (
        raw
        + np.roll(raw, 1, axis=2)
        + np.roll(raw, -1, axis=2)
        + np.roll(raw, 1, axis=3)
        + np.roll(raw, -1, axis=3)
    ) / 5.0
    return blurred * 1.5


def _draw_writer(
    rng: np.random.Generator,
    prototypes: np.ndarray,
    classes_per_writer: int,
    samples: int,
    noise_std: float,
    flatten: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One writer's ``(x, y)``: a class subset, a gain and a style shared
    by all its samples.  Eager datasets pass one generator through every
    writer, virtual federations a fresh one per client id."""
    classes = rng.choice(len(prototypes), size=classes_per_writer, replace=False)
    gain = rng.uniform(0.7, 1.3)
    style = rng.normal(0.0, 0.2, size=prototypes[0].shape)
    labels = rng.choice(classes, size=samples)
    noise = rng.normal(0.0, noise_std, size=(samples, *prototypes[0].shape))
    x = np.clip(gain * prototypes[labels] + style + noise, -3.0, 3.0)
    return _flat(x, flatten), labels.astype(np.int64)


def _make_test_pool(
    rng: np.random.Generator,
    prototypes: np.ndarray,
    noise_std: float,
    test_n: int,
    flatten: bool,
) -> tuple[np.ndarray, np.ndarray]:
    test_y = rng.integers(0, len(prototypes), test_n).astype(np.int64)
    noise = rng.normal(0.0, noise_std, size=(test_n, *prototypes[0].shape))
    test_x = np.clip(prototypes[test_y] + noise, -3.0, 3.0)
    return _flat(test_x, flatten), test_y


def _flat(x: np.ndarray, flatten: bool) -> np.ndarray:
    """``(n, c, h, w)`` samples as ``(n, c·h·w)`` rows when ``flatten``."""
    return x.reshape(x.shape[0], -1) if flatten else x
