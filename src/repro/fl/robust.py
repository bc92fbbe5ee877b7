"""Robust aggregation over sparse uploads: Byzantine-tolerant ``b_j``.

The plain :class:`~repro.fl.server.Server` computes the paper's weighted
mean ``b_j = (1/C) Σ_i C_i a_ij 1[j ∈ J_i]`` — a single corrupted upload
moves it arbitrarily far.  A :class:`RobustAggregator` replaces the mean
with a coordinate-wise robust statistic while keeping every protocol
invariant the rest of the system rests on:

- **Ragged support.**  Top-k uploads give every selected coordinate its
  own uploader set ``{i : j ∈ J_i}``; the statistic runs over the values
  actually uploaded for ``j`` (an absent coordinate is *absent*, not
  zero — treating it as zero would let sparsity masquerade as dissent).
- **Scale compatibility.**  The robust center is a per-uploader average
  where the mean path computes a ``C``-normalized sum, so the center is
  rescaled by the coordinate's support weight share
  ``(Σ_{uploaders j} C_i) / C``: with all values equal the robust
  aggregate reproduces the plain mean's magnitude exactly, and the
  ``total_weight`` seam (cohort-mode reweighting of partial aggregates)
  carries over unchanged.
- **Determinism.**  Pure ``numpy`` arithmetic on the parent-owned
  uploads, no RNG — robust runs stay bit-identical across the serial,
  vectorized and sharded execution backends.
- **Counterfactual safety.**  Deadline probes re-aggregate upload
  subsets through the same server; they pass ``commit=False`` so a
  stateful aggregator (the cosine reputation EMA) and the detection
  flags never observe a counterfactual round.

Each aggregator also *detects*: :attr:`RobustAggregator.last_flags`
holds the ``(client_id, score)`` pairs the last committed aggregation
found suspicious, which :class:`~repro.scenarios.scenario.ScenarioHooks`
emits as ``flagged`` telemetry events.  Flag computation is deterministic
arithmetic on the same operands (no RNG, no training state), so tracing
it costs nothing and changes nothing.
"""

from __future__ import annotations

import numpy as np

from repro.sparsify.base import (
    ClientUpload,
    DownlinkMessage,
    SelectionResult,
    SparseVector,
)

#: ``ScenarioConfig.aggregator`` values.  ``"mean"`` maps to *no*
#: aggregator object at all — the plain :class:`~repro.fl.server.Server`
#: path runs byte-for-byte unchanged, which is what keeps the degenerate
#: (no-adversary, mean) scenario bit-identical to the plain trainer.
AGGREGATOR_KINDS = ("mean", "trimmed_mean", "median", "cosine")


def _coordinate_value_order(pos, values, size):
    """The permutation ``np.lexsort((values, pos))``, for finite values:
    an unstable SIMD value sort made stable by the unique tie key ``value
    rank · n + input position`` (−0.0 ranks with +0.0), then a stable
    radix sort of the coordinate in its narrowest unsigned type."""
    key = np.argsort(values)
    ranked = values[key]
    key[1:] += np.cumsum(ranked[1:] != ranked[:-1]) * values.size
    by_value = np.sort(key) % max(values.size, 1)
    coordinate = pos[by_value].astype(np.min_scalar_type(size))
    return by_value[np.argsort(coordinate, kind="stable")]


class _CoordinateView:
    """Per-coordinate view of a ragged upload set, sorted by value.

    Shared scaffolding of the robust statistics: every (upload,
    coordinate) hit inside the selection ``J`` is gathered once and
    ordered by ``(coordinate, value)``, ties in upload order, so each
    coordinate's uploader values form a contiguous ascending run — order
    statistics (trim boundaries, medians) become cumulative-sum
    arithmetic over run boundaries.  A non-finite upload entry is
    *absent*: it joins no run, so it moves no count, support weight or
    running sum of any coordinate.
    """

    def __init__(
        self,
        uploads: list[ClientUpload],
        selection: SelectionResult,
        value_scales: np.ndarray | None = None,
    ) -> None:
        size = selection.indices.size
        rows = np.repeat(
            np.arange(len(uploads)), [up.payload.nnz for up in uploads]
        )
        values = np.concatenate([up.payload.values for up in uploads])
        # Each hit's index in J (−1 outside J), read off the selection's map
        pos = selection.position[
            np.concatenate([up.payload.indices for up in uploads])
        ]
        hits = np.flatnonzero(pos >= 0)
        hits = hits[np.isfinite(values[hits])]
        pos, values, rows = pos[hits], values[hits], rows[hits]
        if value_scales is not None:
            values = values * value_scales[rows]
        order = _coordinate_value_order(pos, values, size)
        self.pos = pos[order]
        self.values = values[order]
        self.rows = rows[order]
        self.weights = np.array(
            [float(up.sample_count) for up in uploads]
        )[self.rows]
        #: run boundaries: coordinate j's values are values[starts[j]:ends[j]]
        self.counts = np.bincount(self.pos, minlength=size)
        self.ends = np.cumsum(self.counts)
        self.starts = self.ends - self.counts
        #: rank of each hit within its coordinate's ascending run
        self.ranks = np.arange(self.pos.size) - self.starts[self.pos]
        self._value_cumsum = np.concatenate(([0.0], np.cumsum(self.values)))
        self._weight_cumsum = np.concatenate(([0.0], np.cumsum(self.weights)))

    def median(self) -> np.ndarray:
        """Per-coordinate median of the run (0 where no one uploaded)."""
        median = np.zeros(self.counts.size)
        some = self.counts > 0
        starts, counts = self.starts[some], self.counts[some]
        median[some] = 0.5 * (
            self.values[starts + (counts - 1) // 2]
            + self.values[starts + counts // 2]
        )
        return median

    def range_sum(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Σ values over sorted slots ``[lo, hi)`` per coordinate."""
        return self._value_cumsum[hi] - self._value_cumsum[lo]

    def support_weight(self) -> np.ndarray:
        """Σ C_i over coordinate j's uploaders (the mean path's mass)."""
        return self._weight_cumsum[self.ends] - self._weight_cumsum[self.starts]


class RobustAggregator:
    """Interface: a drop-in replacement for the server's weighted mean.

    Subclasses implement :meth:`robust_values` (the per-coordinate
    statistic over a :class:`_CoordinateView`) and may record detection
    flags through :meth:`_record_flags`.  :meth:`aggregate` owns the
    shared frame: total-weight resolution, support-weight rescaling, and
    the ``commit`` discipline (counterfactual probes must not advance
    reputation state or overwrite the round's flags).
    """

    name = "abstract"

    #: Uploads whose L2 norm exceeds ``clip_factor ×`` the round's
    #: median upload norm are scaled down to that bound before the
    #: coordinate-wise statistic runs.  This is what defends the
    #: *singleton-support* coordinates top-k sparsification produces: a
    #: coordinate only one (possibly Byzantine) client uploaded has
    #: nothing to trim or take a median over — an order statistic alone
    #: passes an amplified poison value straight through — but norm
    #: clipping bounds it to honest magnitude first.  ``None`` disables
    #: clipping.
    clip_factor: float | None = 2.0

    def __init__(self) -> None:
        #: ``(client_id, score)`` pairs of the last *committed* round
        self.last_flags: list[tuple[int, float]] = []

    def aggregate(
        self,
        uploads: list[ClientUpload],
        selection: SelectionResult,
        dimension: int,
        total_weight: float | None = None,
        commit: bool = True,
    ) -> DownlinkMessage:
        if not uploads:
            raise ValueError("no uploads to aggregate")
        if total_weight is None:
            total_weight = float(sum(up.sample_count for up in uploads))
        elif total_weight <= 0:
            raise ValueError("total_weight must be positive")
        selected = selection.indices
        if commit:
            self.last_flags = []
        if selected.size == 0:
            payload = SparseVector.from_sorted(
                selected, np.zeros(0), dimension
            )
            return DownlinkMessage(payload=payload)
        view = _CoordinateView(
            uploads, selection, value_scales=self._norm_clip_scales(uploads)
        )
        centers = self.robust_values(view, uploads, commit=commit)
        values = np.where(
            view.counts > 0,
            centers * view.support_weight() / total_weight,
            0.0,
        )
        payload = SparseVector.from_sorted(selected, values, dimension)
        return DownlinkMessage(payload=payload)

    def robust_values(
        self,
        view: _CoordinateView,
        uploads: list[ClientUpload],
        commit: bool = True,
    ) -> np.ndarray:
        """Per-coordinate robust center (0 where no one uploaded)."""
        raise NotImplementedError

    def _norm_clip_scales(
        self, uploads: list[ClientUpload]
    ) -> np.ndarray | None:
        """Per-upload scale factors bounding each upload to
        ``clip_factor × median upload norm`` (None = no clipping); a norm
        skips non-finite entries, absent here as in the view."""
        if self.clip_factor is None:
            return None
        norms = np.array([
            float(np.linalg.norm(up.payload.values)) for up in uploads
        ])
        for row in np.flatnonzero(~np.isfinite(norms)):
            values = uploads[row].payload.values
            norms[row] = np.linalg.norm(values[np.isfinite(values)])
        positive = norms[norms > 0.0]
        if positive.size == 0:
            return None
        bound = self.clip_factor * float(np.median(positive))
        if bound <= 0.0:
            return None
        return np.where(norms > bound, bound / np.maximum(norms, 1e-300), 1.0)

    def _record_flags(
        self, uploads: list[ClientUpload], scores: dict[int, float]
    ) -> None:
        """Store this round's flags sorted by client id (deterministic)."""
        self.last_flags = [
            (cid, float(scores[cid])) for cid in sorted(scores)
        ]


class _RankFlagAggregator(RobustAggregator):
    """Shared flagging rule of the order-statistic aggregators.

    A client is suspicious when its values sit in the trimmed/extreme
    tail of their coordinate's order run for at least
    ``flag_threshold`` of the coordinates it uploaded (counting only
    coordinates whose run is long enough for a tail to exist, and only
    clients with at least ``min_eligible`` such coordinates — thin
    top-k support gives too few order statistics to judge by).  The
    score is that tail rate.  Rank flags are a *noisy* detector by
    construction — an honest client with unusual data sits in the tails
    too — which is why the event schema carries the scores: consumers
    aggregate over rounds rather than trust a single flag.
    """

    #: fewest tail-eligible coordinates a client needs to be judged
    min_eligible: int = 4

    def __init__(self, flag_threshold: float = 0.6) -> None:
        super().__init__()
        if not 0.0 < flag_threshold <= 1.0:
            raise ValueError("flag_threshold must be in (0, 1]")
        self.flag_threshold = flag_threshold

    def _flag_by_tail(
        self,
        view: _CoordinateView,
        uploads: list[ClientUpload],
        tail: np.ndarray,
    ) -> None:
        """Flag clients by their per-coordinate tail rate.

        ``tail`` is per-coordinate: how many slots at *each* end of the
        run count as the rejected tail (0 disables the coordinate).
        """
        per_coord_tail = tail[view.pos]
        eligible = per_coord_tail > 0
        counts = view.counts[view.pos]
        in_tail = eligible & (
            (view.ranks < per_coord_tail)
            | (view.ranks >= counts - per_coord_tail)
        )
        uploaded = np.bincount(view.rows[eligible], minlength=len(uploads))
        tailed = np.bincount(view.rows[in_tail], minlength=len(uploads))
        scores: dict[int, float] = {}
        for row, up in enumerate(uploads):
            if uploaded[row] < self.min_eligible:
                continue
            rate = tailed[row] / uploaded[row]
            if rate >= self.flag_threshold:
                scores[up.client_id] = rate
        self._record_flags(uploads, scores)


class TrimmedMeanAggregator(_RankFlagAggregator):
    """Coordinate-wise trimmed mean over each coordinate's uploaders.

    For coordinate ``j`` with ``n_j`` uploader values, the
    ``t_j = min(⌊trim_fraction · n_j⌋, (n_j − 1) // 2)`` smallest and
    largest values are discarded and the rest averaged — at least one
    value always survives, and coordinates too thin to trim
    (``n_j ≤ 1/trim_fraction``) degrade gracefully to the plain
    per-uploader mean.  Tolerates up to a ``trim_fraction`` fraction of
    Byzantine uploaders per coordinate.
    """

    name = "trimmed_mean"

    def __init__(
        self, trim_fraction: float = 0.25, flag_threshold: float = 0.6
    ) -> None:
        super().__init__(flag_threshold=flag_threshold)
        if not 0.0 <= trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        self.trim_fraction = trim_fraction

    def robust_values(self, view, uploads, commit=True):
        counts = view.counts
        trim = np.minimum(
            (self.trim_fraction * counts).astype(np.int64),
            np.maximum(counts - 1, 0) // 2,
        )
        kept = np.maximum(counts - 2 * trim, 1)
        total = view.range_sum(view.starts + trim, view.ends - trim)
        if commit:
            self._flag_by_tail(view, uploads, trim)
        return total / kept


class MedianAggregator(_RankFlagAggregator):
    """Coordinate-wise median — the maximal trim, breakdown point 1/2.

    Flags clients whose values are the strict extremes (rank 0 or
    ``n_j − 1``) of coordinates with at least three uploaders.
    """

    name = "median"

    def robust_values(self, view, uploads, commit=True):
        if commit:
            self._flag_by_tail(
                view, uploads, np.where(view.counts >= 3, 1, 0)
            )
        return view.median()


class CosineReputationAggregator(RobustAggregator):
    """Reputation-weighted mean, reputations from cosine similarity.

    Each upload is scored by the cosine between its values and the
    coordinate-wise *median* aggregate restricted to its own support —
    the median (not the mean) is the reference so a colluding majority
    of one round cannot define "normal".  Scores feed an exponential
    moving average per client id (``rep ← memory·rep + (1−memory)·cos``,
    initialized at the first observation), and the aggregate is the
    per-coordinate weighted mean with each client's sample count scaled
    by ``max(rep, 0)`` — a client whose updates consistently oppose the
    robust consensus is weighted out entirely.  Clients with negative
    reputation are flagged (score = reputation).

    The EMA is the one stateful piece of the aggregator hierarchy;
    ``commit=False`` (counterfactual deadline probes) reads the current
    reputations without advancing them.
    """

    name = "cosine"

    #: weight of the previous reputation in the EMA
    memory: float = 0.5

    def __init__(self) -> None:
        super().__init__()
        #: client id -> reputation EMA in [-1, 1]
        self.reputation: dict[int, float] = {}

    def _cosines(self, view, uploads) -> np.ndarray:
        reference = view.median()[view.pos]
        dots, norms, ref_norms = (
            np.bincount(view.rows, weights=per_hit, minlength=len(uploads))
            for per_hit in (
                view.values * reference, view.values**2, reference**2
            )
        )
        denom = np.sqrt(norms) * np.sqrt(ref_norms)
        return np.where(denom > 0.0, dots / np.maximum(denom, 1e-300), 0.0)

    def robust_values(self, view, uploads, commit=True):
        cosines = self._cosines(view, uploads)
        reputations = np.empty(len(uploads))
        for row, up in enumerate(uploads):
            previous = self.reputation.get(up.client_id)
            updated = (
                float(cosines[row]) if previous is None
                else self.memory * previous
                + (1.0 - self.memory) * float(cosines[row])
            )
            reputations[row] = updated
            if commit:
                self.reputation[up.client_id] = updated
        trust = np.maximum(reputations, 0.0)
        if not np.any(trust > 0.0):
            # Everyone distrusted (pathological round): fall back to the
            # plain weighted mean rather than aggregate nothing.
            trust = np.ones(len(uploads))
        per_hit_weight = view.weights * trust[view.rows]
        num, den = (
            np.bincount(view.pos, weights=per_hit, minlength=view.counts.size)
            for per_hit in (per_hit_weight * view.values, per_hit_weight)
        )
        if commit:
            self._record_flags(uploads, {
                up.client_id: float(reputations[row])
                for row, up in enumerate(uploads)
                if reputations[row] < 0.0
            })
        return np.where(den > 0.0, num / np.maximum(den, 1e-300), 0.0)


def build_aggregator(
    kind: str, trim_fraction: float = 0.25
) -> RobustAggregator | None:
    """The aggregator a :class:`~repro.scenarios.config.ScenarioConfig`
    names; ``"mean"`` returns ``None`` (the plain server path, untouched).
    """
    if kind == "mean":
        return None
    if kind == "trimmed_mean":
        return TrimmedMeanAggregator(trim_fraction=trim_fraction)
    if kind == "median":
        return MedianAggregator()
    if kind == "cosine":
        return CosineReputationAggregator()
    raise ValueError(
        f"unknown aggregator {kind!r}; expected one of {AGGREGATOR_KINDS}"
    )
