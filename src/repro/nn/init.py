"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so that
every model in the repository is reproducible from a single seed.  The
federated-learning experiments rely on this: all clients must start from an
identical ``w(0)`` (Algorithm 1, line 1 of the paper).
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    Suitable for tanh/linear layers.  ``fan_in`` and ``fan_out`` are taken
    from the first two axes for dense weights and from the full receptive
    field for convolution kernels shaped ``(out, in, kh, kw)``.
    """
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He normal initialization, suited to ReLU activations."""
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zeros initialization (biases)."""
    del rng  # deterministic; accepted for interface uniformity
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weight shapes."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        # Dense weight of shape (in, out).
        return shape[0], shape[1]
    if len(shape) == 4:
        # Convolution kernel of shape (out_channels, in_channels, kh, kw).
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape for fan computation: {shape}")
