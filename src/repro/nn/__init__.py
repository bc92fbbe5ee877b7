"""Pure-numpy neural-network substrate.

The paper trains PyTorch CNNs; no deep-learning framework is available in
this environment, so this subpackage provides what the paper's model
family needs, and nothing else:

- explicit-backward layers with one pass on a grouped
  ``(groups, batch, ...)`` stack (:mod:`repro.nn.layers`),
- softmax cross-entropy with per-sample access (:mod:`repro.nn.losses`,
  required by the derivative-sign estimator of Section IV-E of the paper),
- seeded weight initializers (:mod:`repro.nn.init`),
- a flat-parameter view of a whole model (:mod:`repro.nn.flat`), which is
  the object gradient sparsifiers operate on, and
- a model zoo (:mod:`repro.nn.models`) mirroring the paper's CNN plus
  a cheaper MLP configuration for laptop-scale runs.
"""

from repro.nn.flat import FlatModel
from repro.nn.init import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Layer,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import make_cnn, make_mlp

__all__ = [
    "Conv2D",
    "Flatten",
    "FlatModel",
    "Layer",
    "Linear",
    "MaxPool2D",
    "ReLU",
    "Sequential",
    "SoftmaxCrossEntropy",
    "glorot_uniform",
    "he_normal",
    "make_cnn",
    "make_mlp",
    "zeros_init",
]
