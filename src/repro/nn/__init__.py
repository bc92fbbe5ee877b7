"""Pure-numpy neural-network substrate.

The paper trains PyTorch CNNs; no deep-learning framework is available in
this environment, so this subpackage provides the minimal-but-complete
substrate the federated-learning simulation needs:

- explicit-backward layers (:mod:`repro.nn.layers`),
- classification/regression losses with per-sample access
  (:mod:`repro.nn.losses`, required by the derivative-sign estimator of
  Section IV-E of the paper),
- seeded weight initializers (:mod:`repro.nn.init`),
- a flat-parameter view of a whole model (:mod:`repro.nn.flat`), which is
  the object gradient sparsifiers operate on, and
- a model zoo (:mod:`repro.nn.models`) mirroring the paper's CNN plus
  cheaper MLP / logistic-regression configurations for laptop-scale runs.
"""

from repro.nn.flat import FlatModel
from repro.nn.init import glorot_uniform, he_normal, normal_init, zeros_init
from repro.nn.layers import (
    BatchNorm1D,
    Conv2D,
    Dropout,
    Flatten,
    Layer,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import Loss, MSELoss, SoftmaxCrossEntropy
from repro.nn.models import make_cnn, make_logistic, make_mlp

__all__ = [
    "BatchNorm1D",
    "Conv2D",
    "Dropout",
    "Flatten",
    "FlatModel",
    "Layer",
    "Linear",
    "Loss",
    "MaxPool2D",
    "MSELoss",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "SoftmaxCrossEntropy",
    "Tanh",
    "glorot_uniform",
    "he_normal",
    "make_cnn",
    "make_logistic",
    "make_mlp",
    "normal_init",
    "zeros_init",
]
