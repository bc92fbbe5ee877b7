"""Model zoo used by the experiments.

The paper trains a CNN with two convolutional and two dense layers
(architecture of Wang et al. [16], D > 400,000).  We provide that shape
(:func:`make_cnn`) together with a cheaper MLP configuration whose flat
dimension D is in the 10k–120k range, which keeps
the full experiment sweeps laptop-scale while exercising identical
sparsification code paths (sparsifiers only see FlatModel's D-vector).
"""

from __future__ import annotations

import numpy as np

from repro.nn.flat import FlatModel
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
)


def make_mlp(
    input_dim: int,
    num_classes: int,
    hidden: tuple[int, ...] = (64,),
    seed: int = 0,
) -> FlatModel:
    """Multilayer perceptron with ReLU activations.

    With the defaults and FEMNIST-like inputs (784 features, 62 classes)
    the flat dimension is ~54k, comparable in order of magnitude to the
    paper's setup while fast enough for hundreds of simulated rounds.
    """
    rng = np.random.default_rng(seed)
    layers = []
    prev = input_dim
    for width in hidden:
        layers.append(Linear(prev, width, rng))
        layers.append(ReLU())
        prev = width
    layers.append(Linear(prev, num_classes, rng))
    return FlatModel(Sequential(layers))


def make_cnn(
    image_size: int,
    channels: int,
    num_classes: int,
    conv_channels: tuple[int, int] = (8, 16),
    dense_width: int = 64,
    seed: int = 0,
) -> FlatModel:
    """CNN mirroring the paper's architecture: conv-pool-conv-pool-dense-dense.

    ``image_size`` must be divisible by 4 (two 2x2 poolings).  With
    ``image_size=28, channels=1`` and the default widths the flat dimension
    is ~53k.  Larger ``conv_channels``/``dense_width`` reach the paper's
    D > 400k if desired.
    """
    if image_size % 4:
        raise ValueError("image_size must be divisible by 4 for two 2x2 poolings")
    rng = np.random.default_rng(seed)
    c1, c2 = conv_channels
    final_spatial = image_size // 4
    network = Sequential(
        [
            Conv2D(channels, c1, kernel_size=3, rng=rng, padding=1),
            ReLU(),
            MaxPool2D(2),
            Conv2D(c1, c2, kernel_size=3, rng=rng, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Linear(c2 * final_spatial * final_spatial, dense_width, rng),
            ReLU(),
            Linear(dense_width, num_classes, rng),
        ]
    )
    return FlatModel(network)
