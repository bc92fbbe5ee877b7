"""Adaptive-k federated training: Algorithm 1 + a k-policy + the estimator.

This is the full system of the paper's Fig. 3.  Each round m:

1. The policy proposes a continuous k_m; stochastic rounding (Definition 2)
   yields the integer sparsity actually played.
2. Clients run the Algorithm-1 local step at the synchronized weights
   w(m−1) and each draws one probe sample h from its minibatch, reporting
   f_{i,h}(w(m−1)).
3. The server runs the sparsifier's selection and aggregation to produce
   w(m), and — when the policy requests a probe k' < k — derives the
   k'-element GS update from the k-element result (top-k' of the
   aggregated downlink values, transmitted as a small "difference"
   message, step ③ of Fig. 3) to form the probe weights w'(m).
4. Clients report f_{i,h}(w(m)) and f_{i,h}(w'(m)); the server averages
   them and the policy consumes the :class:`RoundObservation` (for the
   proposed method this computes ŝ_m via eqs. (10)–(11) and steps
   Algorithm 2/3).
5. The timing model charges the round: computation, k-pair uplink, |J|-
   pair downlink, plus the (k − k')-pair probe difference downlink.

The Algorithm-1 skeleton itself (steps 2–3 and the timing/eval/record
bookkeeping) is :class:`repro.fl.engine.RoundEngine`; this trainer adds
the probe machinery through a :class:`repro.fl.engine.RoundHooks` object
and keeps only the policy interaction here.  The k'-GS probe derivation
differs per sparsifier in principle; we use the generic server-side
derivation (largest-|value| k' elements of the aggregated downlink) which
is available for every scheme and matches the paper's requirement that
the probe be derivable from the k-element result without extra uplink.
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import FederatedDataset
from repro.fl.engine import EngineFacade, RoundContext, RoundEngine, RoundHooks
from repro.fl.trainer import _apply_scenario
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.nn.flat import FlatModel
from repro.online.interval import stochastic_round
from repro.online.policy import KPolicy, RoundObservation
from repro.simulation.timing import TimingModel
from repro.sparsify.base import Sparsifier
from repro.sparsify.topk import top_k_indices


class _ProbeHooks(RoundHooks):
    """One round's probe measurements and policy feedback (Fig. 3 ③–④)."""

    wants_probes = True

    def __init__(
        self,
        trainer: "AdaptiveKTrainer",
        k_continuous: float,
        probe_continuous: float | None,
        probe_int: int | None,
    ) -> None:
        self.trainer = trainer
        self.k_continuous = k_continuous
        self.probe_continuous = probe_continuous
        self.probe_int = probe_int
        self.loss_prev = float("nan")
        self.loss_now = float("nan")
        self.loss_probe: float | None = None
        self.w_probe: np.ndarray | None = None

    def after_local_steps(self, ctx: RoundContext) -> None:
        # The record stores the policy's continuous k_m, not the played k.
        ctx.recorded_k = self.k_continuous
        # f_{i,h}(w(m-1)), averaged over the round's participants.
        model = ctx.engine.model
        self.loss_prev = float(
            np.mean([c.probe_loss(model, ctx.w_prev) for c in ctx.participants])
        )

    def after_aggregate(self, ctx: RoundContext) -> None:
        if self.probe_int is None:
            return
        payload = ctx.downlink.payload
        keep = top_k_indices(payload.values, self.probe_int)
        self.w_probe = ctx.engine.sgd_step(
            ctx.w_prev, payload.indices[keep], payload.values[keep]
        )

    def after_update(self, ctx: RoundContext) -> None:
        model = ctx.engine.model
        self.loss_now = float(
            np.mean([c.probe_loss(model, ctx.w_new) for c in ctx.participants])
        )
        if self.w_probe is not None:
            self.loss_probe = float(
                np.mean(
                    [c.probe_loss(model, self.w_probe) for c in ctx.participants]
                )
            )

    def extra_round_time(self, ctx: RoundContext) -> float:
        if not (
            self.trainer.charge_probe_communication
            and self.probe_int is not None
        ):
            return 0.0
        # Step ③ of Fig. 3: the downlink difference message lets each
        # client reconstruct the k'-GS result from the k-GS one.
        diff_elements = max(0, ctx.k - self.probe_int)
        return ctx.engine.timing.sparse_round(0, diff_elements).communication

    def observe(self, ctx: RoundContext) -> None:
        timing = ctx.engine.timing
        probe_round_time = None
        if self.probe_int is not None:
            probe_round_time = timing.sparse_round(
                self.probe_int, self.probe_int
            ).total
        loss_decrease = self.loss_prev - self.loss_now
        cost = ctx.round_time / loss_decrease if loss_decrease > 0 else None
        tel = ctx.engine.telemetry
        if tel.enabled:
            tel.event(
                "probe",
                round=ctx.round_index,
                k_continuous=self.k_continuous,
                probe_k=self.probe_int,
                loss_prev=self.loss_prev,
                loss_now=self.loss_now,
                loss_probe=self.loss_probe,
            )
        self.trainer.policy.observe(RoundObservation(
            k=self.k_continuous,
            round_time=ctx.round_time,
            loss_prev=self.loss_prev,
            loss_now=self.loss_now,
            loss_probe=self.loss_probe,
            probe_k=(
                self.probe_continuous if self.probe_int is not None else None
            ),
            probe_round_time=probe_round_time,
            cost=cost,
        ))


class AdaptiveKTrainer(EngineFacade):
    """Federated training with online-learned sparsity k (``seed`` also
    seeds k's stochastic rounding; other keywords as in ``FLTrainer``)."""

    def __init__(
        self,
        model: FlatModel,
        federation: FederatedDataset,
        sparsifier: Sparsifier,
        policy: KPolicy,
        timing: TimingModel,
        charge_probe_communication: bool = True,
        scenario=None,
        seed: int = 0,
        **engine_settings,
    ) -> None:
        self.engine = RoundEngine(
            model, federation, sparsifier, timing, seed=seed,
            **_apply_scenario(scenario, engine_settings),
        )
        self.policy = policy
        self.charge_probe_communication = charge_probe_communication
        self._rng = np.random.default_rng((seed, 0xADA9))

    # ------------------------------------------------------------------
    def step(self) -> RoundRecord:
        """Run one adaptive round; returns its record."""
        dimension = self.engine.model.dimension
        k_continuous = float(self.policy.propose())
        k_int = stochastic_round(
            min(max(k_continuous, 1.0), float(dimension)), self._rng
        )
        k_int = max(1, min(k_int, dimension))

        probe_continuous = self.policy.probe_k()
        probe_int = self._round_probe(probe_continuous, k_int)

        hooks = _ProbeHooks(self, k_continuous, probe_continuous, probe_int)
        return self.engine.run_round(k_int, hooks=hooks)

    def _round_probe(self, probe_continuous: float | None, k_int: int) -> int | None:
        """Stochastic-round the probe k' and keep it in [1, k_int)."""
        if probe_continuous is None:
            return None
        probe_int = stochastic_round(max(probe_continuous, 1.0), self._rng)
        probe_int = min(probe_int, k_int - 1)
        if probe_int < 1:
            return None
        return probe_int

    def run(self, num_rounds: int) -> TrainingHistory:
        for _ in range(num_rounds):
            self.step()
        return self.history
