"""FedAvg, the send-everything-every-E-rounds baseline of Fig. 4.

FedAvg [2]: each client performs local SGD steps on its own weight copy;
every ``aggregation_period`` rounds the server averages the weights
(weighted by sample counts ``C_i``) and redistributes them.  For the
comm-matched comparison of Fig. 4 the period is ⌊D/(2k)⌋ (paper
footnote 5) so the *average* per-round communication equals k-element GS.

Its clients each hold *different* weights, which a single grouped model
pass cannot express, so the local phase runs here, client by client
(``backend`` is accepted for interface uniformity and not used by its
local steps); everything a round has in common with Algorithm 1 — the
round counter, normalized-time clock, evaluation cadence, and
record/history bookkeeping — is the shared
:class:`repro.fl.engine.RoundEngine`'s.

Fig. 4's other dense baseline, always-send-all, is Algorithm 1 itself at
k = D: ``FLTrainer(..., FABTopK(), ...)`` run at ``k = model.dimension``
uploads every residual whole, sends back the full weighted mean and is
charged a dense round.
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import FederatedDataset
from repro.fl.engine import EngineFacade, RoundEngine
from repro.fl.metrics import RoundRecord
from repro.nn.flat import FlatModel
from repro.simulation.timing import TimingModel


class FedAvgTrainer(EngineFacade):
    """FedAvg with periodic weight averaging (the paper's Fig. 4 baseline).

    Keywords are engine settings, forwarded to a sparsifier-less
    ``RoundEngine``."""

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
        self.engine = RoundEngine(
            model, federation, None, timing, **engine_settings
        )
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
