"""repro — reproduction of "Adaptive Gradient Sparsification for Efficient
Federated Learning: An Online Learning Approach" (Han, Wang, Leung,
IEEE ICDCS 2020, arXiv:2001.04756).

Subpackages
-----------
- :mod:`repro.nn` — pure-numpy neural-network substrate (layers, losses,
  flat-parameter models, model zoo).
- :mod:`repro.data` — synthetic federated datasets (FEMNIST-like,
  CIFAR-like) and non-i.i.d. partitioners.
- :mod:`repro.sparsify` — gradient sparsification schemes: the paper's
  FAB-top-k plus the FUB-top-k / unidirectional / periodic-k baselines.
- :mod:`repro.fl` — the synchronized sparse-gradient FL loop
  (Algorithm 1; always-send-all is its k = D case), the FedAvg
  baseline, metrics.
- :mod:`repro.online` — online learning of the sparsity k: Algorithms 2
  and 3, the derivative-sign estimator, bandit baselines, regret bounds,
  and the full adaptive-k trainer.
- :mod:`repro.simulation` — normalized-time model and synthetic convex
  cost oracles for testing the online algorithms in isolation.
- :mod:`repro.experiments` — drivers regenerating every evaluation figure
  of the paper (Figs. 1, 4–8).

Quick start
-----------
>>> from repro.data import make_femnist_like, partition_by_writer
>>> from repro.nn import make_mlp
>>> from repro.fl import FLTrainer
>>> from repro.sparsify import FABTopK
>>> from repro.simulation import TimingModel
>>> ds = make_femnist_like(num_writers=8, samples_per_writer=20,
...                        num_classes=10, image_size=8, seed=0)
>>> fed = partition_by_writer(ds)
>>> model = make_mlp(ds.feature_dim, 10, hidden=(16,), seed=0)
>>> trainer = FLTrainer(model, fed, FABTopK(),
...                     timing=TimingModel(model.dimension, comm_time=10.0),
...                     learning_rate=0.05, batch_size=16)
>>> history = trainer.run(num_rounds=20, k=50)
>>> history.final_loss < history.records[0].loss
True
"""

import logging as _logging

# Library convention: the package logger stays silent unless the
# application (or the CLI's --verbose flag) attaches a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "data",
    "experiments",
    "fl",
    "nn",
    "online",
    "simulation",
    "sparsify",
]
