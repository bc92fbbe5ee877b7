"""Seeded Byzantine clients: upload corruption as a deployment process.

Determinism contract
--------------------
Adversaries follow the same law as every other scenario process: pure
functions of ``(seed, client_id, round)``.  Which clients are malicious
is decided by one Bernoulli draw per client from the tagged stream
``(seed, 0xBAD0, cid)`` — fixed for the whole run, independent of call
order, round count, or execution backend.  The only stochastic attack
(additive Gaussian noise) draws from a *fresh* generator keyed
``(seed, 0xBAD1, cid, round)`` on every call, so corrupting the same
upload twice — or on a different backend, or after a counterfactual
probe — yields byte-equal results.  All corruption happens parent-side
in :class:`AdversaryHooks` (run first by the synchronous scenario's
hooks, chained ahead of the commit hooks under async), after the backend
returns honest uploads; backends never see the adversary, which is what
lets the serial/vectorized/sharded bit-identity matrix extend over every
attack × defense configuration unchanged.

Threat model
------------
Attacks corrupt the *wire payload only*: the values of the client's
top-k upload change, its index support does not, and the client's
residual bookkeeping proceeds as if the honest values had been sent
(the poison goes on through ``ctx.put_on_wire``, so the engine's
error-feedback reset subtracts the honest upload).  This mirrors the
dropped-upload design: scenario effects live at the transport seam,
client learning state stays honest, and what the optimizer ultimately
recovers through FAB/top-k is the honest gradient information.

The ``topk`` attack is the threat unique to this paper's setting: the
adversary knows its sparsifier selected exactly the coordinates the
server is most likely to include in ``J``, and poisons precisely those —
maximal damage per uploaded byte.
"""

from __future__ import annotations

import numpy as np

from repro.fl.engine import RoundContext, RoundHooks
from repro.sparsify.base import ClientUpload, SparseVector

#: ``ScenarioConfig.adversary`` values.  ``"none"`` maps to no adversary
#: object at all, keeping the degenerate scenario byte-identical to the
#: plain trainer.
ADVERSARY_KINDS = ("none", "sign_flip", "scale", "noise", "topk")

_DESIGNATION_TAG = 0xBAD0
_NOISE_TAG = 0xBAD1


class AdversaryProcess:
    """One attack law: ``corrupt(values, cid, round)`` → poisoned values.

    Pure in ``(seed, cid, round)`` and the honest values: repeated calls
    with the same arguments are byte-equal, across instances and call
    orders.  Subclasses must not keep mutable state.
    """

    name = "abstract"

    def __init__(self, seed: int, scale: float = 10.0) -> None:
        if scale <= 0.0:
            raise ValueError("adversary scale must be positive")
        self.seed = seed
        self.scale = scale

    def corrupt(
        self, values: np.ndarray, client_id: int, round_index: int
    ) -> np.ndarray:
        """Return the poisoned copy of ``values`` (input untouched)."""
        raise NotImplementedError


class SignFlipAdversary(AdversaryProcess):
    """Model-poisoning classic: upload ``−scale · v`` — push the global
    model *up* the loss surface, amplified."""

    name = "sign_flip"

    def corrupt(self, values, client_id, round_index):
        return -self.scale * values


class ScaleAdversary(AdversaryProcess):
    """Magnitude inflation: ``scale · v``.  Direction stays honest, so
    this probes pure-magnitude defenses (trimming catches it, cosine
    similarity alone does not)."""

    name = "scale"

    def corrupt(self, values, client_id, round_index):
        return self.scale * values


class NoiseAdversary(AdversaryProcess):
    """Additive Gaussian noise at ``scale ×`` the upload's RMS.

    The draw comes from a fresh ``default_rng((seed, 0xBAD1, cid,
    round))`` per call — the generator is never stored, so corruption
    stays a pure function of its arguments no matter how often or in
    what order uploads are corrupted.
    """

    name = "noise"

    def corrupt(self, values, client_id, round_index):
        rng = np.random.default_rng(
            (self.seed, _NOISE_TAG, client_id, round_index)
        )
        rms = float(np.sqrt(np.mean(values**2))) if values.size else 0.0
        if rms == 0.0:
            rms = 1.0
        return values + self.scale * rms * rng.standard_normal(values.size)


class TopKAwareAdversary(AdversaryProcess):
    """Sparsification-aware poisoning: every selected coordinate is set
    to ``−scale · max|v| · sign(v)`` — the largest-magnitude wrong-way
    value the attacker can justify.  Because top-k selection already
    concentrated the upload on the residual's heaviest coordinates,
    this poisons exactly the entries the server's selection ``J`` is
    most likely to keep."""

    name = "topk"

    def corrupt(self, values, client_id, round_index):
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        return -self.scale * peak * np.sign(values)


_PROCESS_CLASSES = {
    cls.name: cls
    for cls in (
        SignFlipAdversary,
        ScaleAdversary,
        NoiseAdversary,
        TopKAwareAdversary,
    )
}


class AdversaryModel:
    """Designation law + attack process for one deployment.

    Holds no per-round state: :meth:`is_adversary` replays the client's
    designation draw from its tagged stream on every call (cached per
    cid purely as an optimization — the draw is deterministic), and
    :meth:`corrupt_upload` delegates to the pure attack process.  Works
    unchanged at population scale (the law is per-cid, never per-roster).
    """

    def __init__(
        self, kind: str, fraction: float, seed: int, scale: float = 10.0
    ) -> None:
        if kind not in _PROCESS_CLASSES:
            raise ValueError(
                f"unknown adversary kind {kind!r}; "
                f"expected one of {ADVERSARY_KINDS[1:]}"
            )
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("adversary fraction must be in [0, 1]")
        self.kind = kind
        self.fraction = fraction
        self.seed = seed
        self.process: AdversaryProcess = _PROCESS_CLASSES[kind](
            seed, scale=scale
        )
        self._designation_cache: dict[int, bool] = {}

    def is_adversary(self, client_id: int) -> bool:
        """Whether ``client_id`` is Byzantine — fixed for the whole run."""
        cached = self._designation_cache.get(client_id)
        if cached is None:
            draw = np.random.default_rng(
                (self.seed, _DESIGNATION_TAG, client_id)
            ).random()
            cached = bool(draw < self.fraction)
            self._designation_cache[client_id] = cached
        return cached

    def corrupt_upload(
        self, upload: ClientUpload, round_index: int
    ) -> ClientUpload:
        """The poisoned wire payload: same support, corrupted values."""
        payload = upload.payload
        poisoned = self.process.corrupt(
            payload.values, upload.client_id, round_index
        )
        return ClientUpload(
            client_id=upload.client_id,
            payload=SparseVector.from_sorted(
                payload.indices, poisoned, payload.dimension
            ),
            sample_count=upload.sample_count,
        )


class AdversaryHooks(RoundHooks):
    """The adversary seam of a round: poison the designated clients'
    wire payloads (before any deadline gate, so finish times, probes,
    preprocessing and aggregation all see what the server would) and
    report whom the robust aggregator flagged.  ``adversary=None`` and a
    plain-mean server make every call a no-op."""

    def __init__(self, adversary: AdversaryModel | None, stats) -> None:
        self.adversary = adversary
        self.stats = stats

    def after_local_steps(self, ctx: RoundContext) -> None:
        adversary = self.adversary
        if adversary is None:
            return
        poisoned = [adversary.is_adversary(up.client_id) for up in ctx.uploads]
        if any(poisoned):
            ctx.put_on_wire([
                adversary.corrupt_upload(up, ctx.round_index) if bad else up
                for up, bad in zip(ctx.uploads, poisoned)
            ])
            self.stats.record_corrupted([
                up.client_id for up, bad in zip(ctx.uploads, poisoned) if bad
            ])

    def after_aggregate(self, ctx: RoundContext) -> None:
        aggregator = ctx.engine.server.aggregator
        if aggregator is None or not aggregator.last_flags:
            return
        flagged_ids = [cid for cid, _ in aggregator.last_flags]
        self.stats.record_flagged(flagged_ids)
        tel = ctx.engine.telemetry
        if tel.enabled:
            tel.event(
                "flagged",
                round=ctx.round_index,
                client_ids=flagged_ids,
                detector=aggregator.name,
                scores=[score for _, score in aggregator.last_flags],
            )


def build_adversary(config) -> AdversaryModel | None:
    """The adversary a :class:`~repro.scenarios.config.ScenarioConfig`
    names; ``"none"`` or fraction 0 returns ``None`` (no corruption seam
    at all — the degenerate scenario stays byte-identical)."""
    if config.adversary == "none" or config.adversary_fraction == 0.0:
        return None
    return AdversaryModel(
        kind=config.adversary,
        fraction=config.adversary_fraction,
        seed=config.seed,
        scale=config.adversary_scale,
    )
