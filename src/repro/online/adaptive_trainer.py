"""The learned k: Algorithm 1 played at a k that Algorithms 2/3 learn.

This is the full system of the paper's Fig. 3, as one persistent
:class:`~repro.fl.engine.RoundHooks` object, :class:`LearnedK`, that the
engine holds as its k rule (:meth:`repro.fl.engine.RoundEngine.use_k`
with a :class:`~repro.online.policy.KPolicy`).  Each round m:

1. The policy proposes a continuous k_m; stochastic rounding (Definition 2)
   on the engine's rounding stream yields the integer sparsity actually
   played, then the probe k' is drawn on the same stream.
2. Clients run the Algorithm-1 local step at the synchronized weights
   w(m−1) and each draws one probe sample h from its minibatch.
3. The server runs the sparsifier's selection and aggregation to produce
   w(m), and — when the policy requests a probe k' < k — derives the
   k'-element GS update from the k-element result (top-k' of the
   aggregated downlink values, transmitted as a small "difference"
   message, step ③ of Fig. 3) to form the probe weights w'(m).
4. Clients report f_{i,h} at w(m−1), w(m) and w'(m); the server averages
   each and the policy consumes the :class:`RoundObservation` (for the
   proposed method this computes ŝ_m via eqs. (10)–(11) and steps
   Algorithm 2/3).
5. The timing model charges the round: computation, k-pair uplink, |J|-
   pair downlink, plus the (k − k')-pair probe difference downlink.

The Algorithm-1 skeleton itself (steps 2–3 and the timing/eval/record
bookkeeping) is :class:`repro.fl.engine.RoundEngine`, so the learned k
runs on every engine — barrier rounds and async commits alike — through
the one ``FLTrainer(...).run(n, policy)``.  The k'-GS probe derivation
differs per sparsifier in principle; we use the generic server-side
derivation (largest-|value| k' elements of the aggregated downlink) which
is available for every scheme and matches the paper's requirement that
the probe be derivable from the k-element result without extra uplink.
"""

from __future__ import annotations

import numpy as np

from repro.fl.engine import RoundContext, RoundHooks
from repro.fl.trainer import FLTrainer
from repro.online.interval import stochastic_round
from repro.online.policy import KPolicy, RoundObservation
from repro.sparsify.topk import top_k_indices


class LearnedK(RoundHooks):
    """The k rule a policy learns: each round's (k, k') draw, its probe
    measurements and the policy feedback (Fig. 3 ①–④)."""

    wants_probes = True

    def __init__(self, policy: KPolicy, rng: np.random.Generator) -> None:
        self.policy = policy
        self.rng = rng
        self.k_continuous = float("nan")
        self.probe_continuous: float | None = None
        self.probe_int: int | None = None
        self.loss_prev = float("nan")
        self.loss_now = float("nan")
        self.loss_probe: float | None = None
        self.w_probe: np.ndarray | None = None

    def next_k(self, round_index: int, dimension: int) -> int:
        """Draw the round's k, then its probe k' in [1, k) (None when
        none fits), both stochastically rounded on ``rng``."""
        del round_index
        self.k_continuous = float(self.policy.propose())
        k_int = stochastic_round(
            min(max(self.k_continuous, 1.0), float(dimension)), self.rng
        )
        k_int = max(1, min(k_int, dimension))
        self.probe_continuous = self.policy.probe_k()
        self.probe_int = None
        if self.probe_continuous is not None:
            probe_int = min(
                stochastic_round(max(self.probe_continuous, 1.0), self.rng),
                k_int - 1,
            )
            if probe_int >= 1:
                self.probe_int = probe_int
        self.w_probe = None
        return k_int

    def after_local_steps(self, ctx: RoundContext) -> None:
        # The record stores the policy's continuous k_m, not the played k.
        ctx.recorded_k = self.k_continuous

    def after_aggregate(self, ctx: RoundContext) -> None:
        if self.probe_int is None:
            return
        payload = ctx.downlink.payload
        keep = top_k_indices(payload.values, self.probe_int)
        self.w_probe = ctx.engine.sgd_step(
            ctx.w_prev, payload.indices[keep], payload.values[keep]
        )

    def after_update(self, ctx: RoundContext) -> None:
        # f_{i,h} at w(m-1), w(m) and w'(m), each averaged over the round's
        # participants: one evaluation of their stacked probe samples h.
        samples = [c.probe_sample for c in ctx.participants]
        if None in samples:
            raise RuntimeError("probe losses requested before draw_probe_sample")
        x, y = (np.concatenate(part) for part in zip(*samples))
        self.loss_prev, self.loss_now, *probe = [
            float(np.mean(ctx.engine.model.per_sample_losses_at(w, x, y)))
            for w in (ctx.w_prev, ctx.w_new, self.w_probe) if w is not None
        ]
        self.loss_probe = probe[0] if probe else None

    def extra_round_time(self, ctx: RoundContext) -> float:
        if self.probe_int is None:
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
        self.policy.observe(RoundObservation(
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


class AdaptiveKTrainer(FLTrainer):
    """An :class:`FLTrainer` whose engine plays the k ``policy`` learns:
    ``FLTrainer(...).run(n, policy)`` under a name callers still build."""

    def __init__(self, model, federation, sparsifier, policy: KPolicy,
                 timing=None, **settings) -> None:
        super().__init__(model, federation, sparsifier, timing, **settings)
        self.engine.use_k(policy)

    @property
    def policy(self) -> KPolicy:
        return self.engine.k_rule.policy
