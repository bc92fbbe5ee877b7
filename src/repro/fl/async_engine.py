"""Asynchronous staleness-weighted aggregation: commit-point rounds.

The paper's protocol is synchronous: every round waits for its slowest
participant before the server aggregates.  The asynchronous variant is
the *same* Algorithm-1 round (:meth:`repro.fl.engine.RoundEngine.
run_round`, unmodified) with a different **upload source** and two
**commit hooks**: clients compute continuously, their uploads arrive at
the server in virtual time, and "round m" is the server's m-th commit
point — the moment it folds the next batch of arrivals into the
synchronized weights.

Upload source (:class:`AsyncRoundEngine` overrides the engine's three
upload-source steps and nothing else of the round):

1. **Who starts a local step** — the first commit dispatches the whole
   cohort (everyone, or one draw of the sampler); every later commit
   re-dispatches exactly the clients the previous commit freed.
   Stragglers stay in flight with their original arrival times.
2. **Which uploads the round aggregates** — the wave's uploads are
   computed eagerly at the current weights ``w(v)`` (one
   ``backend.local_steps`` call per wave, so the serial and sharded
   backends stay interchangeable) and scheduled to *arrive* at
   ``now + finish_time``, each upload's compute + uplink time at its
   own client's speed — the timing model's
   :meth:`~repro.simulation.timing.TimingModel.arrival_times`, the
   same arrivals the deadline gate judges.  The server
   then pops arrivals in ``(arrival_time, client_id)`` order until
   ``commit_count`` uploads are buffered (``0`` = wait for every
   in-flight upload, the full-cohort barrier) and orders the batch by
   dispatch sequence, so float sums accumulate in cohort order.  Each
   upload's staleness ``s`` is the number of commits since the version
   it was computed at (``ctx.staleness``, keyed by client id, so a hook
   may drop an arrival), and the last arrival is the round's close
   (``ctx.close_time``).
3. **What the commit costs** — each commit's ``round_time`` is the
   virtual-clock delta from the previous commit's completion to this
   one's (the close plus the downlink broadcast, paced by the batch's
   slowest link: :meth:`~repro.simulation.timing.TimingModel.
   broadcast_time`), so
   ``history.cumulative_time`` is simulated elapsed time and
   convergence-vs-time comparisons against the synchronous baseline are
   direct.

Commit hooks (:class:`_CommitHooks`, the last of the engine's persistent
hooks — a scenario's adversary seam is chained ahead of them):

- **Discount the wire** — in ``after_local_steps``, once every earlier
  hook has filtered or corrupted the uploads, each upload's values are
  scaled by the staleness discount ``d(s)`` on ``ctx.uploads``:
  selection and aggregation see the discounted values, while the
  residual reset zeroes ``J ∩ J_i`` by index and never reads the wire —
  the same wire-only rule as the adversary seam, and the two compose.
- **Probe the exponent** — in ``observe``, where the commit's weights
  are installed and its charge is final (see ``adaptive`` below).

A non-accumulating sparsifier discards the residual of every client
whose upload arrived, an arrival a hook dropped too: the engine's reset
covers the whole cohort.

Full-barrier identity: with ``commit_count=0``, the identity discount
and full participation, every commit is a whole fresh cohort in cohort
order, and the run equals the plain :class:`~repro.fl.trainer.FLTrainer`
byte for byte on weights, residuals, losses and element counts on every
backend; only the clock is a different float expression for the same
quantity (``tests/test_engine.py`` pins both).

Staleness discounts (:func:`build_staleness_discount`):

- ``constant`` — ``d(s) = 1``: pure FedAsync-style buffered
  aggregation, no staleness correction;
- ``polynomial`` — ``d(s) = (1 + s)^{-a}``, the standard polynomial
  staleness attenuation;
- ``adaptive`` — the polynomial form with the exponent ``a`` *learned
  online*, a third dual of the paper's learned k:
  :class:`AdaptiveStalenessDiscount` is a thin adapter over
  :class:`repro.online.knob.OnlineKnob` (the walk, the probe point and
  the sign estimate live there).  What a probe means here: each commit
  with stale arrivals re-aggregates the same batch under the probe
  exponent ``a'`` through :meth:`~repro.fl.engine.RoundEngine.
  counterfactual_weights` — pure server-side arithmetic, no extra
  communication — and compares evaluation-pool loss progress; the
  commit cadence does not depend on ``a``, so both "round times" in
  eq. (10)/(11) are equal and the estimated sign reduces to the
  loss-progress comparison.

Telemetry rides the existing registry — per-arrival ``span`` events
named ``async.arrival`` (``seconds`` is the upload's *virtual* flight
time) and ``staleness`` / ``staleness_max`` (plus ``exponent`` /
``probe_exponent`` under the adaptive discount) fields on the ordinary
``round`` event — no new stream, so ``trace-report``, the health
monitor, and the JSONL tooling consume async runs unchanged.
"""

from __future__ import annotations

import heapq

from repro.fl.engine import (
    ChainedHooks,
    RoundContext,
    RoundEngine,
    RoundHooks,
)
from repro.fl.trainer import FLTrainer, _apply_scenario
from repro.online.interval import SearchInterval
from repro.online.knob import OnlineKnob, Reading
from repro.simulation.heterogeneous import check_profiles
from repro.simulation.timing import RoundTiming, TimingModel
from repro.sparsify.base import ClientUpload, SparseVector, Sparsifier

STALENESS_DISCOUNT_KINDS = ("constant", "polynomial", "adaptive")
#: accepted shorthands, normalized wherever a kind string enters
STALENESS_ALIASES = {"poly": "polynomial", "const": "constant"}

#: Exponent search interval of the adaptive discount.  The lower edge is
#: strictly positive (the search interval's invariant, and it keeps the
#: probe point, floored at ``a/2``, strictly below ``a``); the upper
#: edge ``2`` already discounts staleness 3 by a factor of 16 — steeper
#: attenuation than that is indistinguishable from dropping the upload.
DEFAULT_EXPONENT_INTERVAL = (0.05, 2.0)


# ----------------------------------------------------------------------
# Staleness discounts: how much weight an s-commits-old upload keeps
# ----------------------------------------------------------------------
def polynomial_factor(staleness: int, exponent: float) -> float:
    """``(1 + s)^{-a}`` — the standard polynomial attenuation."""
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    return float((1.0 + staleness) ** -exponent)


class PolynomialDiscount:
    """``d(s) = (1 + s)^{-a}`` at a fixed exponent ``a``: the fixed
    staleness law (``a = 0`` is the staleness-blind ``constant`` one,
    since ``(1 + s)^{-0} == 1.0`` for every ``s >= 0``).

    ``factor(s)`` multiplies the upload's *wire values* (the weighted
    aggregation then shrinks that client's contribution — the server's
    normalizing constant stays the undiscounted sample-count total, so a
    discount scales the step rather than renormalizing over it).
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent

    def factor(self, staleness: int) -> float:
        """The multiplier ``d(s) ∈ (0, 1]`` for staleness ``s >= 0``."""
        return polynomial_factor(staleness, self.exponent)


class AdaptiveStalenessDiscount(PolynomialDiscount):
    """Polynomial discount with an online-learned exponent.

    The third dual of the paper's learned k (after the learned
    deadline): an :class:`~repro.online.knob.OnlineKnob` over the
    exponent interval.  What a probe means here is the commit hooks'
    business (re-aggregation under ``a'``, see the module docstring);
    commits with no stale arrival carry no information about ``a`` and
    advance the walk with no reading (the paper's "value remains
    unchanged" rule).  The walk covers :data:`DEFAULT_EXPONENT_INTERVAL`
    from its midpoint.
    """

    def __init__(self) -> None:
        self.knob = OnlineKnob.over(
            SearchInterval(*DEFAULT_EXPONENT_INTERVAL)
        )

    @property
    def exponent(self) -> float:
        """The continuous decision a_m for the current commit."""
        return self.knob.value

    @property
    def exponent_history(self) -> list[float]:
        """Every exponent played so far (the learned {a_m} trace)."""
        return self.knob.history

    def probe_exponent(self) -> float | None:
        """The counterfactual exponent a' < a this commit probes (None
        when none sits below a)."""
        # Floored at a/2, like the adaptive deadline's probe: strictly
        # positive, and available at the interval's lower edge.
        return self.knob.probe_below(floor=self.knob.value / 2.0)

    def observe(self, *readings: Reading) -> None:
        """Consume one commit's probe reading — none when no probe ran."""
        self.knob.observe(*readings)


def build_staleness_discount(kind: str) -> PolynomialDiscount:
    """The staleness discount a config string names, at its defaults:
    ``constant`` is exponent 0, ``polynomial`` exponent 0.5.

    ``"poly"`` is accepted as shorthand for ``"polynomial"``.
    """
    kind = STALENESS_ALIASES.get(kind, kind)
    if kind == "constant":
        return PolynomialDiscount(0.0)
    if kind == "polynomial":
        return PolynomialDiscount(0.5)
    if kind == "adaptive":
        return AdaptiveStalenessDiscount()
    raise ValueError(
        f"unknown staleness discount {kind!r}; expected one of "
        f"{STALENESS_DISCOUNT_KINDS}"
    )


# ----------------------------------------------------------------------
# The upload source: virtual-time arrival queue
# ----------------------------------------------------------------------
class _InFlight:
    """One dispatched upload travelling through virtual time."""

    __slots__ = ("arrival", "seq", "client", "upload", "version",
                 "dispatch_time")

    def __init__(self, arrival, seq, client, upload, version,
                 dispatch_time):
        self.arrival = arrival
        self.seq = seq
        self.client = client
        self.upload = upload
        self.version = version
        self.dispatch_time = dispatch_time


def _discounted(
    uploads: list[ClientUpload], staleness: dict[int, int], factor
) -> list[ClientUpload]:
    """Uploads with wire values scaled by ``factor(s)``, ``s`` each
    upload's own staleness (looked up by client id).

    Structural no-op when every factor is 1, so a full-barrier commit
    aggregates the very same arrays the plain trainer does.  Scaled
    payloads keep the original index array (same support, same nnz).
    """
    factors = [factor(staleness[up.client_id]) for up in uploads]
    if all(f == 1.0 for f in factors):
        return uploads
    return [
        ClientUpload(
            client_id=up.client_id,
            payload=SparseVector.from_sorted(
                up.payload.indices,
                up.payload.values * f,
                up.payload.dimension,
            ),
            sample_count=up.sample_count,
        )
        for up, f in zip(uploads, factors)
    ]


class _CommitHooks(RoundHooks):
    """What a commit does on top of the plain round: discount the wire
    and probe the adaptive exponent."""

    def __init__(self) -> None:
        #: the wire before the discount: what an exponent probe rescales
        self._undiscounted: list[ClientUpload] = []

    def after_local_steps(self, ctx: RoundContext) -> None:
        # The last persistent hook: the wire every earlier one left is
        # final, and the k rule's after_local_steps only records its k.
        self._undiscounted = ctx.uploads
        ctx.uploads = _discounted(
            ctx.uploads, ctx.staleness, ctx.engine.discount.factor
        )

    def observe(self, ctx: RoundContext) -> None:
        """Run the adaptive discount's counterfactual exponent probe."""
        engine = ctx.engine
        discount = engine.discount
        if not isinstance(discount, AdaptiveStalenessDiscount):
            return
        a_probe = discount.probe_exponent()
        if not any(ctx.staleness[up.client_id] for up in self._undiscounted):
            # A batch with no stale arrival: nothing the exponent could
            # have changed, so no probe runs.
            a_probe = None
        if engine.telemetry.enabled:
            ctx.trace_extra["exponent"] = discount.exponent
            ctx.trace_extra["probe_exponent"] = a_probe
        if a_probe is None:
            discount.observe()
            return
        # Same batch as the server saw it, same selection J, probe discount.
        w_probe = engine.counterfactual_weights(ctx, _discounted(
            self._undiscounted, ctx.staleness,
            lambda s: polynomial_factor(s, a_probe),
        ))
        loss_prev, loss_now, (loss_probe,) = engine.probe_losses(ctx, w_probe)
        # The commit cadence (who arrived when) does not depend on the
        # exponent, so τ_m and the counterfactual θ_m are equal; any
        # positive time cancels out of eq. (11)'s sign.
        discount.observe(Reading(
            loss_prev, loss_now, loss_probe,
            round_time=1.0, probe_round_time=1.0,
            value=discount.exponent, probe_value=a_probe,
        ))


class AsyncRoundEngine(RoundEngine):
    """:class:`RoundEngine` whose uploads come from an arrival queue.

    ``run_round(k)`` is the base engine's; "round m" in the history is
    the m-th commit point.  The cohort is fixed at the first dispatch
    (clients run continuously; there is no per-round resample).
    Parameters beyond the base engine's:

    commit_count:
        Arrivals buffered per commit; ``0`` waits for every in-flight
        upload (the full-cohort barrier).
    discount:
        A :class:`PolynomialDiscount` (default: exponent 0, the
        identity).

    Arrival times and the broadcast come from the timing model's client
    speeds (a :class:`~repro.simulation.heterogeneous.
    HeterogeneousTimingModel`'s profiles); a client missing from its map
    travels at unit speed.
    """

    def __init__(
        self,
        *args,
        commit_count: int = 0,
        discount: PolynomialDiscount | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if commit_count < 0:
            raise ValueError("commit_count must be >= 0 (0 = full cohort)")
        # The caller's persistent hooks (an adversary seam) rewrite the
        # arrivals before the commit discounts them.
        self.scenario_hooks = (
            _CommitHooks() if self.scenario_hooks is None
            else ChainedHooks(self.scenario_hooks, _CommitHooks())
        )
        self.discount = (
            discount if discount is not None else PolynomialDiscount(0.0)
        )
        self.commit_count = commit_count
        #: virtual (simulated) time; advances at commit points
        self._vclock = 0.0
        self._queue: list[tuple[float, int, _InFlight]] = []
        self._seq = 0
        #: clients the last commit freed, idle until the next dispatch
        self._idle: list = []
        #: mean staleness of each commit's batch (the figure/bench trace)
        self.staleness_history: list[float] = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Commits applied so far (the weights' version number)."""
        return len(self.history)

    # ------------------------------------------------------------------
    def _start_wave(self):
        # The cohort is fixed by the first wave — the population runs
        # continuously, so later waves are exactly the clients freed by
        # the previous commit.
        if self.version == 0:
            return super()._start_wave()
        return self._idle, None

    def _dispatch(self, wave, k: int, draw_probes: bool) -> None:
        """Start a local step for every client in ``wave`` at the current
        weights and schedule the resulting uploads' virtual arrivals."""
        if not wave:
            return
        uploads = self.backend.local_steps(
            self.model, wave, k, self.sparsifier, draw_probes=draw_probes
        )
        finish = self.timing.arrival_times(
            [up.client_id for up in uploads],
            [up.payload.nnz for up in uploads],
        )
        now, version = self._vclock, self.version
        for client, upload, flight in zip(wave, uploads, finish):
            entry = _InFlight(
                arrival=now + float(flight),
                seq=self._seq,
                client=client,
                upload=upload,
                version=version,
                dispatch_time=now,
            )
            self._seq += 1
            # client_id breaks arrival ties deterministically; a client
            # is never in flight twice, so the pair is a total order.
            heapq.heappush(
                self._queue, (entry.arrival, upload.client_id, entry)
            )

    def _collect_uploads(
        self, ctx: RoundContext, draw_probes: bool
    ) -> list[ClientUpload]:
        """Dispatch the wave, then pop the commit's batch of arrivals;
        ``ctx.participants`` becomes the batch's clients, and
        ``ctx.staleness``/``ctx.close_time`` its arrivals' facts."""
        self._dispatch(ctx.participants, ctx.k, draw_probes)
        if not self._queue:
            raise RuntimeError("no uploads in flight — empty cohort")
        target = (
            len(self._queue) if self.commit_count == 0
            else min(self.commit_count, len(self._queue))
        )
        batch = [heapq.heappop(self._queue)[2] for _ in range(target)]
        # Pops are arrival-ordered, so the close is the last pop's time.
        ctx.close_time = batch[-1].arrival
        # Aggregate in dispatch order: for a full-barrier commit that is
        # exactly the plain trainer's cohort order, so the weighted
        # float sums accumulate bit-identically.
        batch.sort(key=lambda entry: entry.seq)
        version = self.version
        ctx.staleness = staleness = {
            entry.upload.client_id: version - entry.version for entry in batch
        }
        mean_staleness = float(sum(staleness.values())) / len(batch)
        self.staleness_history.append(mean_staleness)
        tel = self.telemetry
        if tel.enabled:
            for entry in batch:
                cid = entry.upload.client_id
                # ``seconds`` is the upload's *virtual* flight time
                # (dispatch → arrival), not wall-clock.
                tel.event(
                    "span",
                    name="async.arrival",
                    seconds=entry.arrival - entry.dispatch_time,
                    round=ctx.round_index,
                    client_id=int(cid),
                    staleness=int(staleness[cid]),
                    arrival=entry.arrival,
                )
            ctx.trace_extra = {
                "staleness": mean_staleness,
                "staleness_max": int(max(staleness.values())),
                "in_flight": len(self._queue),
                "version": ctx.round_index,
            }
        self._idle = ctx.participants = [entry.client for entry in batch]
        ctx.participant_ids = [c.client_id for c in ctx.participants]
        return [entry.upload for entry in batch]

    def _charge(self, ctx: RoundContext) -> RoundTiming:
        # Virtual time: the server commits at the round's close (never
        # before it finished the previous broadcast), then broadcasts
        # the new model to the batch, paced by its slowest link.
        broadcast = self.timing.broadcast_time(
            [c.client_id for c in ctx.cohort], ctx.selection.indices.size
        )
        commit_complete = max(ctx.close_time, self._vclock) + broadcast
        # The whole commit-to-commit delta as one term: splitting it
        # into wait + downlink would re-associate the float sum the
        # history records.
        elapsed = commit_complete - self._vclock
        self._vclock = commit_complete
        return RoundTiming(computation=0.0, uplink=elapsed, downlink=0.0)


# ----------------------------------------------------------------------
# Trainer facade
# ----------------------------------------------------------------------
class AsyncFLTrainer(FLTrainer):
    """Asynchronous federated training with staleness-weighted commits.

    An :class:`~repro.fl.trainer.FLTrainer` over an
    :class:`AsyncRoundEngine`: ``step``/``run``/``run_for_time``/
    ``run_until_loss`` are inherited (one step = one commit point) and
    the shared parameters mean the same thing — ``k`` too, so a learned
    k (``run(n, policy)``) plays on commits as on barrier rounds.  Its
    k' difference downlink is charged to the commit's ``round_time``, as
    at a barrier; it moves neither arrival times nor the virtual clock.
    Additional parameters:

    discount:
        A :class:`PolynomialDiscount` instance or a kind string from
        :data:`STALENESS_DISCOUNT_KINDS` (default ``"constant"``, i.e.
        no discount).
    commit_count:
        Arrivals the server buffers before each commit (0 = full-cohort
        barrier).
    profiles:
        Kept only for callers that pass the timing model's profiles a
        second time: it must describe exactly the timing model's map
        (:func:`~repro.simulation.heterogeneous.check_profiles`), which
        alone times arrivals — heterogeneous speeds are what make
        commits reorder relative to dispatches.
    scenario:
        Optional :class:`~repro.scenarios.DeploymentScenario`; supplies
        the sampler, robust aggregator and adversary seam (corruption +
        ``flagged`` reporting, chained ahead of the commit hooks).  Its
        deadline gate stays out:
        asynchronous commits replace deadline-driven partial aggregation
        (stragglers arrive late instead of being dropped).
    """

    engine_class = AsyncRoundEngine

    def __init__(
        self,
        model,
        federation,
        sparsifier: Sparsifier,
        timing: TimingModel | None = None,
        scenario=None,
        discount: PolynomialDiscount | str = "constant",
        profiles=None,
        **engine_settings,
    ) -> None:
        settings = _apply_scenario(scenario, engine_settings)
        if scenario is not None:
            # Commits replace the deadline gate; the adversary seam stays.
            settings["scenario_hooks"] = scenario.hooks.adversary_hooks
        if isinstance(discount, str):
            discount = build_staleness_discount(discount)
        super().__init__(
            model, federation, sparsifier, timing,
            discount=discount, **settings,
        )
        if profiles is not None:
            check_profiles(profiles, self.engine.timing)

    # ------------------------------------------------------------------
    @property
    def discount(self) -> PolynomialDiscount:
        return self.engine.discount

    @property
    def staleness_history(self) -> list[float]:
        """Mean staleness of each commit's batch so far."""
        return self.engine.staleness_history
