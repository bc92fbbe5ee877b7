"""Send-all-or-nothing baselines of Fig. 4: FedAvg and always-send-all.

FedAvg [2]: each client performs local SGD steps on its own weight copy;
every ``aggregation_period`` rounds the server averages the weights
(weighted by sample counts ``C_i``) and redistributes them.  For the
comm-matched comparison of Fig. 4 the period is ⌊D/(2k)⌋ (paper
footnote 5) so the *average* per-round communication equals k-element GS.

Always-send-all: the degenerate GS with k = D and dense encoding — full
gradient aggregation every round.

Both trainers run their (non-sparse) local phases themselves and reuse
the shared :class:`repro.fl.engine.RoundEngine` for everything a round
has in common with Algorithm 1 — the round counter, normalized-time
clock, evaluation cadence, and record/history bookkeeping — so none of
that logic is duplicated.  Always-send-all computes its per-client dense
gradients through the engine's execution backend and therefore runs
the grouped pass too; FedAvg's clients each hold *different*
weights, which a single grouped model pass cannot express, so its local
phase is inherently serial (``backend`` is accepted for interface
uniformity and not used by its local steps).
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import FederatedDataset
from repro.fl.engine import EngineFacade, RoundEngine
from repro.fl.metrics import RoundRecord
from repro.nn.flat import FlatModel
from repro.simulation.timing import TimingModel


class _BaselineTrainer(EngineFacade):
    """Shared engine plumbing for the two dense baselines: keywords are
    engine settings, forwarded to a sparsifier-less ``RoundEngine``."""

    def __init__(
        self,
        model: FlatModel,
        federation: FederatedDataset,
        timing: TimingModel,
        **engine_settings,
    ) -> None:
        self.engine = RoundEngine(
            model, federation, None, timing, **engine_settings
        )

    def step(self) -> RoundRecord:
        raise NotImplementedError


class FedAvgTrainer(_BaselineTrainer):
    """FedAvg with periodic weight averaging (the paper's Fig. 4 baseline)."""

    def __init__(
        self,
        model: FlatModel,
        federation: FederatedDataset,
        timing: TimingModel,
        aggregation_period: int,
        **engine_settings,
    ) -> None:
        if aggregation_period < 1:
            raise ValueError("aggregation_period must be >= 1")
        super().__init__(model, federation, timing, **engine_settings)
        self.period = aggregation_period
        # Per-client local weight copies, initially synchronized.
        w0 = model.get_weights()
        self._local_weights = [w0.copy() for _ in self.clients]

    def global_loss(self) -> float:
        """Loss of the weighted-average model (the quantity FedAvg reports)."""
        return self.engine.loss_at(self._average_weights())

    def _average_weights(self) -> np.ndarray:
        counts = np.array([c.sample_count for c in self.clients], dtype=float)
        weights = counts / counts.sum()
        return np.sum(
            [w * lw for w, lw in zip(weights, self._local_weights)], axis=0
        )

    def _evaluate_average(self) -> float:
        """Install the averaged weights and return their global loss; the
        round's accuracy, evaluated next, reads them where they are."""
        self.model.set_weights(self._average_weights())
        return self.engine.global_loss()

    def step(self) -> RoundRecord:
        """One local SGD step everywhere; aggregate if the period elapsed."""
        round_index = self.engine.begin_round()
        for client, w in zip(self.clients, self._local_weights):
            self.model.set_weights(w)
            x, y = client.draw_minibatch()
            grad = self.model.gradient(x, y)
            w -= self.learning_rate * grad

        aggregated = round_index % self.period == 0
        if aggregated:
            avg = self._average_weights()
            for w in self._local_weights:
                w[...] = avg
            round_timing = self.timing.dense_round()
        else:
            round_timing = self.timing.local_round()

        dimension = self.model.dimension
        return self.engine.finish_round(
            k=float(dimension if aggregated else 0),
            round_time=round_timing.total,
            uplink_elements=dimension if aggregated else 0,
            downlink_elements=dimension if aggregated else 0,
            loss_fn=self._evaluate_average,
        )


class AlwaysSendAllTrainer(_BaselineTrainer):
    """Full dense gradient aggregation every round (Fig. 4 baseline)."""

    def step(self) -> RoundRecord:
        self.engine.begin_round()
        counts = np.array([c.sample_count for c in self.clients], dtype=float)
        total = counts.sum()
        steps = self.engine.backend.compute_gradients(self.model, self.clients)
        aggregate = np.zeros(self.model.dimension)
        for (grad, _), count in zip(steps, counts):
            aggregate += (count / total) * grad
        self.model.set_weights(
            self.model.get_weights() - self.learning_rate * aggregate
        )
        dimension = self.model.dimension
        return self.engine.finish_round(
            k=float(dimension),
            round_time=self.timing.dense_round().total,
            uplink_elements=dimension,
            downlink_elements=dimension,
        )
