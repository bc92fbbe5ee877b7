"""Federated-learning core: Algorithm 1 of the paper plus baselines.

- :class:`~repro.fl.engine.RoundEngine`: the shared Algorithm-1 round
  skeleton all trainers delegate to, extensible via
  :class:`~repro.fl.engine.RoundHooks`.
- :mod:`repro.fl.backends`: pluggable execution backends for the
  local-step phase — :class:`~repro.fl.backends.SerialBackend` (in
  process, the grouped pass one block of clients at a time) and the
  worker pool's ``"sharded"`` backend (identical histories).
- :class:`~repro.fl.client.Client`: local data, residual accumulator
  ``a_i``, gradient computation, one-sample loss probes.
- :class:`~repro.fl.server.Server`: weighted aggregation
  ``b_j = (1/C) Σ_i C_i a_ij 1[j ∈ J_i]``.
- :class:`~repro.fl.trainer.FLTrainer`: the synchronized sparse-gradient
  training loop (Algorithm 1) with pluggable sparsifier and timing model.
- :mod:`repro.fl.fedavg`: the FedAvg send-all-every-E-rounds baseline and
  the always-send-all baseline of Fig. 4.
- :mod:`repro.fl.metrics`: round records and history containers shared by
  all trainers.
"""

from repro.fl.backends import (
    ExecutionBackend,
    SerialBackend,
    resolve_backend,
)
from repro.fl.client import Client
from repro.fl.engine import RoundEngine, RoundHooks
from repro.fl.async_engine import (
    STALENESS_DISCOUNT_KINDS,
    AdaptiveStalenessDiscount,
    AsyncFLTrainer,
    AsyncRoundEngine,
    ConstantDiscount,
    PolynomialDiscount,
    StalenessDiscount,
    build_staleness_discount,
)
from repro.fl.fedavg import AlwaysSendAllTrainer, FedAvgTrainer
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.server import Server
from repro.fl.trainer import FLTrainer

__all__ = [
    "STALENESS_DISCOUNT_KINDS",
    "AdaptiveStalenessDiscount",
    "AlwaysSendAllTrainer",
    "AsyncFLTrainer",
    "AsyncRoundEngine",
    "Client",
    "ConstantDiscount",
    "ExecutionBackend",
    "FedAvgTrainer",
    "FLTrainer",
    "PolynomialDiscount",
    "RoundEngine",
    "RoundHooks",
    "RoundRecord",
    "SerialBackend",
    "Server",
    "StalenessDiscount",
    "TrainingHistory",
    "build_staleness_discount",
    "resolve_backend",
]
