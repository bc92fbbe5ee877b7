"""Cross-checks against independent brute-force reference implementations.

These tests re-implement the paper's selection logic in the most literal,
unoptimized way possible and verify the production code matches exactly —
a stronger guarantee than example-based tests.
"""

import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.data.partition import ClientDataset
from repro.fl.backends import ExecutionBackend, SerialBackend
from repro.fl.client import Client
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.robust import (
    CosineReputationAggregator, MedianAggregator, TrimmedMeanAggregator,
)
from repro.fl.server import Server
from repro.fl.trainer import FLTrainer
from repro.nn.layers import Conv2D, MaxPool2D, ReLU, _col2im, _im2col
from repro.nn.models import make_cnn, make_mlp
from repro.obs import Telemetry
from repro.online.adaptive_trainer import AdaptiveKTrainer, LearnedK
from repro.online.algorithm2 import SignOGD
from repro.online.interval import SearchInterval
from repro.online.policy import KPolicy, SignPolicy
from repro.simulation.heterogeneous import (
    ClientProfile, ClientSampler, HeterogeneousTimingModel,
)
from repro.simulation.population import ProfileMap
from repro.simulation.timing import TimingModel
from repro.sparsify.base import ClientUpload, SelectionResult, SparseVector
from repro.sparsify import fab_topk
from repro.sparsify.fab_topk import fair_select
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.topk import top_k_indices
from repro.sparsify.unidirectional import UnidirectionalTopK
from repro import cli
from repro.scenarios import (
    AdaptiveDeadlinePolicy, DeadlineRoundPolicy, ScenarioConfig,
)

from helpers import (
    EventList,
    make_cohort,
    make_gaussian_blobs,
    make_logistic,
    partition_iid,
)


def _rank_key(pair):
    """(|value| desc, index asc), NaN after every number — the order of a
    stable ``np.argsort`` on −|value|."""
    j, v = pair
    return (math.isnan(v), 0.0 if math.isnan(v) else -abs(v), j)


def reference_fair_select(uploads, k):
    """Literal transcription of Section III-B's selection procedure.

    Returns None when a fill candidate's largest |value| is NaN: "the
    largest-|value| candidates" does not order those (the full-ranking
    transcription below pins what the code does there)."""
    # Rank each client's uploads by |value| desc, index asc.
    rankings = []
    best_value = {}
    for up in uploads:
        pairs = sorted(
            zip(up.payload.indices.tolist(), up.payload.values.tolist()),
            key=_rank_key,
        )
        rankings.append([j for j, _ in pairs])
        for j, v in pairs:
            best = best_value.get(j, 0.0)
            best_value[j] = best if math.isnan(best) else (
                abs(v) if math.isnan(v) else max(best, abs(v))
            )

    def union(kappa):
        out = set()
        for ranking in rankings:
            out.update(ranking[:kappa])
        return out

    max_len = max(len(r) for r in rankings)
    if len(union(max_len)) <= k:
        return sorted(union(max_len))
    # Linear search for the paper's κ (binary search is an optimization).
    kappa = 0
    while len(union(kappa + 1)) <= k:
        kappa += 1
    base = union(kappa)
    if any(math.isnan(best_value[j]) for j in union(kappa + 1) - base):
        return None
    extra_pool = sorted(
        union(kappa + 1) - base, key=lambda j: (-best_value[j], j)
    )
    chosen = sorted(base | set(extra_pool[: k - len(base)]))
    return chosen


def full_ranking_fair_select(uploads, k):
    """``fair_select`` as it was before it ranked to depth: every upload
    stable-argsorted in full on −|value|, and the fill a full lexsort of
    the candidates (largest |value| first, lowest index on ties, NaN
    after every number)."""
    dimension = uploads[0].payload.dimension
    never = max(up.payload.nnz for up in uploads)
    first_rank = np.full(dimension, never, dtype=np.int64)
    max_magnitude = np.zeros(dimension)
    for up in uploads:
        indices = up.payload.indices
        ranked = indices[np.argsort(-np.abs(up.payload.values), kind="stable")]
        first_rank[ranked] = np.minimum(
            first_rank[ranked], np.arange(ranked.size)
        )
        max_magnitude[indices] = np.maximum(
            max_magnitude[indices], np.abs(up.payload.values)
        )
    union_sizes = np.cumsum(np.bincount(first_rank, minlength=never + 1)[:never])
    kappa = int(np.searchsorted(union_sizes, k, side="right"))
    base = np.flatnonzero(first_rank < kappa)
    if kappa == never:
        return base
    candidates = np.flatnonzero(first_rank == kappa)
    order = np.lexsort((candidates, -max_magnitude[candidates]))
    fill = candidates[order[: k - base.size]]
    return np.sort(np.concatenate([base, fill]))


def assert_matches_both_references(uploads, k):
    """``fair_select`` equals the full-ranking transcription, and the
    paper's procedure wherever that orders the fill."""
    selected = fair_select(uploads, k).tolist()
    assert selected == full_ranking_fair_select(uploads, k).tolist()
    expected = reference_fair_select(uploads, k)
    if expected is not None:
        assert selected == expected


def reference_aggregate(uploads, selected, total_weight=None):
    """Literal Algorithm 1 lines 8-11: b_j = (1/C) Σ_i C_i a_ij 1[j ∈ J_i],
    each coordinate summed in upload order in pure Python floats."""
    if total_weight is None:
        total_weight = float(sum(up.sample_count for up in uploads))
    b = {j: 0.0 for j in selected}
    for up in uploads:
        weight = up.sample_count / total_weight
        for j, v in zip(up.payload.indices.tolist(), up.payload.values.tolist()):
            if j in b:
                b[j] += weight * v
    return np.array([b[j] for j in selected], dtype=np.float64)


def reference_fub_select(uploads, k):
    """Literal FUB-top-k: the k largest |aggregated value|, index asc on ties."""
    total_weight = float(sum(up.sample_count for up in uploads))
    aggregate = {}
    for up in uploads:
        weight = up.sample_count / total_weight
        for j, v in zip(up.payload.indices.tolist(), up.payload.values.tolist()):
            aggregate[j] = aggregate.get(j, 0.0) + weight * v
    ranked = sorted(aggregate, key=lambda j: (-abs(aggregate[j]), j))
    return sorted(ranked[:k])


def reference_contributions(uploads, selected):
    """Per client, how many of its uploaded indices are in ``selected``."""
    chosen = set(selected)
    return {
        up.client_id: len(chosen & set(up.payload.indices.tolist()))
        for up in uploads
    }


#: a tiny alphabet (sign pairs, exact zeros) so duplicate magnitudes are the
#: rule, mixed with one-decimal floats so distinct ones occur too
UPLOAD_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False
).map(lambda v: round(v, 1))

#: what a ranking treats specially: NaN (last, where argpartition would
#: put it first), ±inf, both zeros; and uploads of one magnitude throughout
SPECIAL_UPLOAD_VALUES = {
    "specials": UPLOAD_VALUES | st.sampled_from(
        [np.nan, np.inf, -np.inf, -0.0, 0.0]
    ),
    "all_equal": st.sampled_from([-1.5, 1.5]),
}


@st.composite
def generated_uploads(draw, rectangular=False, alphabet=UPLOAD_VALUES):
    """``(uploads, k, dimension)``: 1-8 clients, upload sizes ragged and
    down to 0 (equal when ``rectangular``), server k drawn independently of
    any upload size — so |∪ J_i| <= k, k >= N·nnz, single-upload,
    empty-mixed-in and all-empty cases all occur."""
    dimension = draw(st.integers(min_value=1, max_value=24))
    n_clients = draw(st.integers(min_value=1, max_value=8))
    sizes = st.integers(min_value=0, max_value=dimension)
    common = draw(sizes)
    uploads = []
    for cid in range(n_clients):
        size = common if rectangular else draw(sizes)
        indices = draw(st.lists(
            st.integers(min_value=0, max_value=dimension - 1),
            unique=True, min_size=size, max_size=size,
        ))
        values = draw(st.lists(alphabet, min_size=size, max_size=size))
        payload = SparseVector(
            np.array(indices, dtype=np.int64), np.array(values, dtype=float),
            dimension,
        )
        uploads.append(
            ClientUpload(cid, payload, draw(st.integers(min_value=1, max_value=5)))
        )
    k = draw(st.integers(min_value=1, max_value=dimension))
    return uploads, k, dimension


#: (clients, nnz, k, shared, ranking depths).  Shared uploads carry one
#: index set and one value array, so every client ranks alike, |∪ J^κ| = κ
#: and κ* = k: a search that starts at depth 2⌈k/N⌉ must double to reach
#: it.  Disjoint uploads give |∪ J^κ| = N·κ and κ* = ⌊k/N⌋, inside the
#: first depth.
DEPTH_CASES = {
    "no_doubling": (4, 12, 16, False, [8]),
    "one_doubling": (2, 40, 10, True, [10, 20]),
    "three_doublings": (8, 200, 64, True, [16, 32, 64, 128]),
    "doubles_to_nnz": (8, 50, 64, True, [16, 32, 50]),
    "first_depth_past_nnz": (3, 3, 20, False, [3]),
}

DEPTH_VALUES = {
    "ties": [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0],
    "specials": [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, -1.0, 1.0],
    "all_equal": [-1.5, 1.5],
}


def depth_case_uploads(case, values, seed):
    """``(uploads, k)`` for one :data:`DEPTH_CASES` row."""
    clients, nnz, k, shared, _ = DEPTH_CASES[case]
    rng = np.random.default_rng(seed)
    dimension = nnz + 7 if shared else clients * nnz + 7
    layout = np.sort(rng.choice(dimension, nnz if shared else clients * nnz,
                                replace=False))
    common = rng.choice(DEPTH_VALUES[values], nnz)
    uploads = []
    for cid in range(clients):
        indices = layout if shared else layout[cid::clients]
        upload_values = common if shared else rng.choice(DEPTH_VALUES[values], nnz)
        uploads.append(ClientUpload(
            cid, SparseVector.from_sorted(indices, upload_values, dimension), 1
        ))
    return uploads, k


class TestFABAgainstReference:
    @given(
        st.integers(min_value=1, max_value=5),    # clients
        st.integers(min_value=1, max_value=12),   # k
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_fair_select_matches_reference(self, n_clients, k, seed):
        d = 30
        rng = np.random.default_rng(seed)
        uploads = []
        for cid in range(n_clients):
            dense = np.round(rng.standard_normal(d), 3)  # ties plausible
            idx = top_k_indices(dense, min(k, d))
            uploads.append(
                ClientUpload(cid, SparseVector.from_dense(dense, idx), 1)
            )
        got = fair_select(uploads, k).tolist()
        expected = reference_fair_select(uploads, k)
        assert got == expected

    @pytest.mark.parametrize("rectangular", [True, False])
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fair_select_matches_reference_on_generated_uploads(
        self, rectangular, data
    ):
        uploads, k, dimension = data.draw(generated_uploads(rectangular))
        selected = fair_select(uploads, k)
        assert selected.dtype == np.int64
        assert selected.tolist() == reference_fair_select(uploads, k)

        result = FABTopK().server_select(uploads, k, dimension)
        assert result.indices.tolist() == selected.tolist()
        assert result.contributions == reference_contributions(
            uploads, selected.tolist()
        )
        # The paper's floor: κ = ⌊k/N⌋ always fits (N·κ <= k), so a client
        # that uploaded at least that many pairs gets at least that many in.
        quota = k // len(uploads)
        for up in uploads:
            if up.payload.nnz >= quota:
                assert result.contributions[up.client_id] >= quota

    @pytest.mark.parametrize("alphabet", sorted(SPECIAL_UPLOAD_VALUES))
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fair_select_matches_reference_on_special_values(self, alphabet, data):
        uploads, k, _ = data.draw(
            generated_uploads(alphabet=SPECIAL_UPLOAD_VALUES[alphabet])
        )
        assert_matches_both_references(uploads, k)

    @pytest.mark.parametrize("values", sorted(DEPTH_VALUES))
    @pytest.mark.parametrize("case", sorted(DEPTH_CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_fair_select_matches_reference_at_every_depth(self, case, values, seed):
        uploads, k = depth_case_uploads(case, values, seed)
        assert_matches_both_references(uploads, k)

    @pytest.mark.parametrize("case", sorted(DEPTH_CASES))
    def test_ranking_depth_doubles_as_the_case_says(self, case, monkeypatch):
        uploads, k = depth_case_uploads(case, "ties", 0)
        depths = []
        rank = fab_topk.ranked_indices

        def spy(values, limit=None):
            depths.append(limit)
            return rank(values, limit)

        monkeypatch.setattr(fab_topk, "ranked_indices", spy)
        fair_select(uploads, k)
        assert depths == [d for d in DEPTH_CASES[case][-1] for _ in uploads]


class TestAggregateAgainstReference:
    @pytest.mark.parametrize("rectangular", [True, False])
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mean_is_byte_equal_to_upload_order_accumulation(
        self, rectangular, data
    ):
        uploads, k, dimension = data.draw(generated_uploads(rectangular))
        # Either the FAB selection or an arbitrary index set (which may
        # hold coordinates nobody uploaded).
        if data.draw(st.booleans()):
            selected = fair_select(uploads, k)
        else:
            selected = np.array(sorted(data.draw(st.sets(
                st.integers(min_value=0, max_value=dimension - 1), min_size=1
            ))), dtype=np.int64)
        total_weight = data.draw(
            st.none() | st.floats(min_value=0.5, max_value=64.0)
        )
        message = Server(dimension).aggregate(
            uploads, SelectionResult(selected, uploads, dimension),
            total_weight=total_weight,
        )
        assert message.payload.indices.tolist() == selected.tolist()
        assert message.payload.values.dtype == np.float64
        expected = reference_aggregate(uploads, selected.tolist(), total_weight)
        assert message.payload.values.tobytes() == expected.tobytes()


class TestFUBAgainstReference:
    @given(generated_uploads())
    @settings(max_examples=150, deadline=None)
    def test_server_select_matches_reference(self, case):
        uploads, k, dimension = case
        result = FUBTopK().server_select(uploads, k, dimension)
        expected = reference_fub_select(uploads, k)
        assert result.indices.tolist() == expected
        assert result.contributions == reference_contributions(uploads, expected)


class TestContributionsAgainstReference:
    """Each uploader's |J ∩ J_i| — the input of Fig. 4's fairness CDF —
    equals its Python-set transcription whichever scheme chose J: ragged
    and empty uploads, and uploads J misses entirely, included."""

    @pytest.mark.parametrize("rectangular", [True, False])
    @pytest.mark.parametrize(
        "sparsifier", [FABTopK, FUBTopK, UnidirectionalTopK],
        ids=["fab", "fub", "unidirectional"],
    )
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_contributions_match_reference(self, sparsifier, rectangular, data):
        uploads, k, dimension = data.draw(generated_uploads(rectangular))
        result = sparsifier().server_select(uploads, k, dimension)
        assert result.contributions == reference_contributions(
            uploads, result.indices.tolist()
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_periodic_contributions_match_reference(self, data):
        # Every client uploads the round's shared set, as the protocol has
        # it: each |J ∩ J_i| is |J|.
        dimension = data.draw(st.integers(min_value=1, max_value=24))
        k = data.draw(st.integers(min_value=1, max_value=dimension))
        periodic = PeriodicK(dimension, seed=data.draw(st.integers(0, 99)))
        rng = np.random.default_rng(0)
        uploads = []
        for cid in range(data.draw(st.integers(min_value=1, max_value=8))):
            residual = rng.standard_normal(dimension)
            indices = periodic.client_select(residual, k, rng)
            uploads.append(ClientUpload(
                cid, SparseVector.from_dense(residual, indices), cid + 1
            ))
        result = periodic.server_select(uploads, k, dimension)
        assert result.contributions == reference_contributions(
            uploads, result.indices.tolist()
        )

    def test_periodic_counts_a_stale_upload_by_its_own_indices(self):
        # An upload computed for an earlier round's set (an async commit's
        # stale arrival) meets a J drawn from the same permutation, so
        # disjoint from it: it contributes nothing.
        periodic, dimension, k = PeriodicK(24, seed=0), 24, 4
        rng = np.random.default_rng(0)

        def upload(cid):
            residual = rng.standard_normal(dimension)
            indices = periodic.client_select(residual, k, rng)
            return ClientUpload(cid, SparseVector.from_dense(residual, indices), 1)

        stale = upload(0)
        periodic.server_select([stale], k, dimension)
        uploads = [stale, upload(1)]
        result = periodic.server_select(uploads, k, dimension)
        expected = reference_contributions(uploads, result.indices.tolist())
        assert expected == {0: 0, 1: k}
        assert result.contributions == expected


# ----------------------------------------------------------------------
# The robust server step: trimmed mean, median, cosine reputation
# ----------------------------------------------------------------------
def running_sums(terms):
    """``[0.0] + np.cumsum(terms)`` in Python floats: the first partial sum
    is the first term itself (a leading −0.0 stays −0.0), then left to
    right."""
    sums = []
    for term in terms:
        sums.append(sums[-1] + term if sums else term)
    return [0.0] + sums


def reference_clip_scales(uploads, clip_factor):
    """An upload whose L2 norm exceeds ``clip_factor ×`` the median
    positive upload norm is scaled onto that bound; every other upload
    keeps scale 1.0."""
    norms = [float(np.linalg.norm(up.payload.values)) for up in uploads]
    positive = [norm for norm in norms if norm > 0.0]
    if clip_factor is None or not positive:
        return [1.0] * len(uploads)
    bound = clip_factor * statistics.median(positive)
    if bound <= 0.0:
        return [1.0] * len(uploads)
    return [bound / max(norm, 1e-300) if norm > bound else 1.0
            for norm in norms]


def reference_robust_aggregate(aggregator, uploads, selected, total_weight,
                               commit):
    """Literal robust ``b_j`` over J, in Python floats.

    Per coordinate of J, ascending: the ``(value · scale_i, C_i, row)``
    hits in upload order, stable-sorted by value.  Those runs laid end to
    end carry one running sum of values and one of weights; a trim is a
    difference of two running sums, a median the mean of the middle two
    hits.  Returns ``(values, last_flags, reputation)`` after the call,
    leaving ``aggregator`` untouched."""
    if total_weight is None:
        total_weight = float(sum(up.sample_count for up in uploads))
    scales = reference_clip_scales(uploads, aggregator.clip_factor)
    hits, starts = [], []
    for j in selected:
        run = []
        for row, up in enumerate(uploads):
            for i, v in zip(up.payload.indices.tolist(),
                            up.payload.values.tolist()):
                if i == j:
                    run.append((v * scales[row], float(up.sample_count), row))
        starts.append(len(hits))
        hits += sorted(run, key=lambda hit: hit[0])
    ends = starts[1:] + [len(hits)]
    value_sums = running_sums([v for v, _, _ in hits])
    weight_sums = running_sums([c for _, c, _ in hits])

    def median(start, end):
        return 0.5 * (hits[start + (end - start - 1) // 2][0]
                      + hits[start + (end - start) // 2][0])

    flags = aggregator.last_flags if not commit else []
    reputation = dict(aggregator.reputation) if isinstance(
        aggregator, CosineReputationAggregator) else {}
    if not selected:  # an empty J aggregates nothing and scores no one
        return [], flags, reputation
    if isinstance(aggregator, CosineReputationAggregator):
        reference = [median(s, e) if e > s else 0.0
                     for s, e in zip(starts, ends)]
        dots, norms, ref_norms = ([0.0] * len(uploads) for _ in range(3))
        for (s, e), ref in zip(zip(starts, ends), reference):
            for v, _, row in hits[s:e]:
                dots[row] += v * ref
                norms[row] += v * v
                ref_norms[row] += ref * ref
        reputations = []
        for row, up in enumerate(uploads):
            denom = math.sqrt(norms[row]) * math.sqrt(ref_norms[row])
            cosine = dots[row] / max(denom, 1e-300) if denom > 0.0 else 0.0
            previous = aggregator.reputation.get(up.client_id)
            reputations.append(cosine if previous is None else (
                aggregator.memory * previous
                + (1.0 - aggregator.memory) * cosine
            ))
            if commit:
                reputation[up.client_id] = reputations[row]
        trust = [max(r, 0.0) for r in reputations]
        if not any(t > 0.0 for t in trust):
            trust = [1.0] * len(uploads)
        centers = []
        for s, e in zip(starts, ends):
            num = den = 0.0
            for v, c, row in hits[s:e]:
                num += c * trust[row] * v
                den += c * trust[row]
            centers.append(num / max(den, 1e-300) if den > 0.0 else 0.0)
        if commit:
            flags = sorted((up.client_id, reputations[row])
                           for row, up in enumerate(uploads)
                           if reputations[row] < 0.0)
    else:
        centers, tails = [], []
        for s, e in zip(starts, ends):
            n = e - s
            if isinstance(aggregator, MedianAggregator):
                centers.append(median(s, e) if n > 0 else 0.0)
                tails.append(1 if n >= 3 else 0)
                continue
            trim = min(int(aggregator.trim_fraction * n), max(n - 1, 0) // 2)
            centers.append((value_sums[e - trim] - value_sums[s + trim])
                           / max(n - 2 * trim, 1))
            tails.append(trim)
        uploaded, tailed = [0] * len(uploads), [0] * len(uploads)
        for (s, e), tail in zip(zip(starts, ends), tails):
            for rank, (_, _, row) in enumerate(hits[s:e]):
                if tail > 0:
                    uploaded[row] += 1
                    tailed[row] += rank < tail or rank >= e - s - tail
        if commit:
            flags = [
                (up.client_id, tailed[row] / uploaded[row])
                for row, up in sorted(enumerate(uploads),
                                      key=lambda item: item[1].client_id)
                if uploaded[row] >= aggregator.min_eligible
                and tailed[row] / uploaded[row] >= aggregator.flag_threshold
            ]
    values = [
        center * (weight_sums[e] - weight_sums[s]) / total_weight
        if e > s else 0.0
        for center, s, e in zip(centers, starts, ends)
    ]
    return values, flags, reputation


def float_bytes(pairs):
    """``(key, float)`` pairs with each float as its exact bit pattern."""
    return [(key, float(value).hex()) for key, value in pairs]


#: every finite value the robust statistics treat alike or apart: both
#: zeros, cross-row duplicates from a small alphabet, one-decimal floats
ROBUST_VALUES = UPLOAD_VALUES | st.sampled_from([-0.0, 0.0])


class TestRobustAggregatorsAgainstReference:
    @pytest.mark.parametrize("kind", ["trimmed_mean", "median", "cosine"])
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_robust_aggregate_is_byte_equal_to_reference(self, kind, data):
        uploads, k, dimension = data.draw(
            generated_uploads(alphabet=ROBUST_VALUES)
        )
        # Either the FAB selection or an arbitrary index set: indices
        # off J and J coordinates nobody uploaded both occur.
        if data.draw(st.booleans()):
            selected = fair_select(uploads, k)
        else:
            selected = np.array(sorted(data.draw(st.sets(
                st.integers(min_value=0, max_value=dimension - 1), min_size=1
            ))), dtype=np.int64)
        if kind == "trimmed_mean":
            aggregator = TrimmedMeanAggregator(
                trim_fraction=data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.4])),
                flag_threshold=data.draw(st.sampled_from([0.3, 0.6, 1.0])),
            )
        elif kind == "median":
            aggregator = MedianAggregator(
                flag_threshold=data.draw(st.sampled_from([0.3, 0.6, 1.0])),
            )
        else:
            aggregator = CosineReputationAggregator()
            aggregator.memory = data.draw(st.sampled_from([0.0, 0.5, 0.9]))
            aggregator.reputation = data.draw(st.dictionaries(
                st.integers(min_value=0, max_value=9),
                st.floats(min_value=-1.0, max_value=1.0),
            ))
        if kind != "cosine":
            aggregator.min_eligible = data.draw(st.integers(1, 4))
        aggregator.clip_factor = data.draw(st.sampled_from([None, 2.0, 1.0]))
        aggregator.last_flags = [(99, 0.5)]
        total_weight = data.draw(
            st.none() | st.floats(min_value=0.5, max_value=64.0)
        )
        commit = data.draw(st.booleans())

        expected, flags, reputation = reference_robust_aggregate(
            aggregator, uploads, selected.tolist(), total_weight, commit
        )
        message = aggregator.aggregate(
            uploads, SelectionResult(selected, uploads, dimension), dimension,
            total_weight=total_weight, commit=commit,
        )
        assert message.payload.indices.tolist() == selected.tolist()
        assert message.payload.values.tobytes() == (
            np.array(expected, dtype=np.float64).tobytes()
        )
        assert float_bytes(aggregator.last_flags) == float_bytes(flags)
        if kind == "cosine":
            assert float_bytes(sorted(aggregator.reputation.items())) == (
                float_bytes(sorted(reputation.items()))
            )


# ----------------------------------------------------------------------
# Algorithm 1 lines 16–17: the residual reset
# ----------------------------------------------------------------------
def reference_reset(residual, selected, uploaded):
    """Lines 16–17 as written: ``a_ij = 0`` for every j ∈ J ∩ J_i."""
    a = residual.tolist()
    uploaded = set(uploaded.tolist())
    for j in selected.tolist():
        if j in uploaded:
            a[j] = 0.0
    return np.array(a)


def clients_after_selection(residuals, sizes):
    """Fresh clients holding ``residuals``, client i having selected its
    top ``sizes[i]``; returns the clients and their uploads."""
    clients, uploads = [], []
    for cid, (residual, size) in enumerate(zip(residuals, sizes)):
        client = Client(
            ClientDataset(cid, np.zeros((1, 1)), np.zeros(1)), residual.size
        )
        client.residual = residual.copy()
        uploads.append(client.select_upload(size, FABTopK()))
        clients.append(client)
    return clients, uploads


def draw_reset_set(data, j_case, union, dimension):
    """J against the uploads' union: disjoint from it, covering it, one
    index of it, or any subset of it."""
    if j_case == "disjoint":
        selected = np.setdiff1d(np.arange(dimension), union)
        assume(selected.size > 0)
    elif j_case == "covering":
        selected = union
    elif j_case == "single":
        selected = np.array([data.draw(st.sampled_from(union.tolist()))])
    else:
        selected = np.array(sorted(data.draw(st.sets(
            st.sampled_from(union.tolist()), min_size=1
        ))))
    return selected.astype(np.int64)


RESET_CASES = ["disjoint", "covering", "single", "subset"]


class TestResidualResetAgainstReference:
    @pytest.mark.parametrize(
        "alphabet", ["finite"] + sorted(SPECIAL_UPLOAD_VALUES)
    )
    @pytest.mark.parametrize("j_case", RESET_CASES)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_reset_is_byte_equal_to_lines_16_17(self, j_case, alphabet, data):
        values = (
            UPLOAD_VALUES if alphabet == "finite"
            else SPECIAL_UPLOAD_VALUES[alphabet]
        )
        dimension = data.draw(st.integers(min_value=2, max_value=24))
        n_clients = data.draw(st.integers(min_value=1, max_value=6))
        residuals = [
            np.array(data.draw(st.lists(
                values, min_size=dimension, max_size=dimension
            )))
            for _ in range(n_clients)
        ]
        # Ragged: every client uploads its own number of entries.
        sizes = data.draw(st.lists(
            st.integers(min_value=1, max_value=dimension),
            min_size=n_clients, max_size=n_clients,
        ))
        clients, uploads = clients_after_selection(residuals, sizes)
        union = np.unique(np.concatenate([up.payload.indices for up in uploads]))
        selected = draw_reset_set(data, j_case, union, dimension)
        expected = [
            reference_reset(client.residual, selected, up.payload.indices)
            for client, up in zip(clients, uploads)
        ]
        ExecutionBackend().reset_residuals(
            clients, SelectionResult(selected, uploads, dimension)
        )
        for client, want in zip(clients, expected):
            assert client.residual.tobytes() == want.tobytes()


class StackedResetBackend(ExecutionBackend):
    """The vectorized backend's former residual reset, verbatim: one
    membership test over the stacked upload indices when every upload has
    the same size and each payload holds its client's index array (the
    same object or an equal copy)."""

    def reset_residuals(self, participants, uploads, selected):
        nnz = uploads[0].payload.nnz if uploads else 0
        fast = all(
            up.payload.nnz == nnz
            and (
                up.payload.indices is client._last_upload_indices
                or np.array_equal(
                    up.payload.indices, client._last_upload_indices
                )
            )
            for client, up in zip(participants, uploads)
        )
        if not fast or nnz == 0:
            for client, up in zip(participants, uploads):
                client.residual = reference_reset(
                    client.residual, selected, up.payload.indices
                )
            return
        index_matrix = np.stack([up.payload.indices for up in uploads])
        positions = np.searchsorted(selected, index_matrix)
        clipped = np.minimum(positions, selected.size - 1)
        mask = (positions < selected.size) & (selected[clipped] == index_matrix)
        for client, upload, hits in zip(participants, uploads, mask):
            hit_indices = upload.payload.indices[hits]
            client.residual[hit_indices] -= upload.payload.values[hits]


def equal_nnz_round(residuals, nnz, copied):
    """Fresh clients holding ``residuals``, each having selected its top
    ``nnz``, and their uploads: indices an equal copy of the client's
    array where ``copied`` (else that very array)."""
    clients, sent = clients_after_selection(residuals, [nnz] * len(residuals))
    uploads = [
        ClientUpload(
            up.client_id,
            SparseVector.from_sorted(
                up.payload.indices.copy() if copied else up.payload.indices,
                up.payload.values, up.payload.dimension,
            ),
            1,
        )
        for up in sent
    ]
    return clients, uploads


class TestResidualResetAgainstStackedReference:
    @pytest.mark.parametrize("copied", [False, True], ids=["shared", "copied"])
    @pytest.mark.parametrize("j_case", ["disjoint", "covering", "single", "any"])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_per_client_reset_is_byte_equal_to_the_stacked_one(
        self, j_case, copied, data
    ):
        dimension = data.draw(st.integers(min_value=2, max_value=24))
        nnz = data.draw(st.integers(min_value=1, max_value=dimension))
        residuals = [
            np.array(data.draw(st.lists(
                UPLOAD_VALUES, min_size=dimension, max_size=dimension
            )))
            for _ in range(data.draw(st.integers(min_value=1, max_value=6)))
        ]
        clients, uploads = equal_nnz_round(residuals, nnz, copied)
        union = np.unique(np.concatenate([up.payload.indices for up in uploads]))
        if j_case == "disjoint":
            selected = np.setdiff1d(np.arange(dimension), union)
            assume(selected.size > 0)
        elif j_case == "covering":
            selected = union
        elif j_case == "single":
            selected = np.array(
                [data.draw(st.integers(min_value=0, max_value=dimension - 1))]
            )
        else:
            selected = np.array(sorted(data.draw(st.sets(
                st.integers(min_value=0, max_value=dimension - 1), min_size=1
            ))))
        selected = selected.astype(np.int64)

        expected, expected_uploads = equal_nnz_round(residuals, nnz, copied)
        # The stacked path really runs: its preconditions all hold.
        for client, up in zip(expected, expected_uploads):
            assert up.payload.nnz == nnz
            assert (up.payload.indices is client._last_upload_indices) != copied
            assert np.array_equal(up.payload.indices, client._last_upload_indices)
        StackedResetBackend().reset_residuals(
            expected, expected_uploads, selected
        )
        ExecutionBackend().reset_residuals(
            clients, SelectionResult(selected, uploads, dimension)
        )
        for got, want in zip(clients, expected):
            assert got.residual.tobytes() == want.residual.tobytes()


# ----------------------------------------------------------------------
# The local step's gradients: one per client, in participant order
# ----------------------------------------------------------------------
def reference_serial_gradients(model, participants):
    """``SerialBackend.compute_gradients`` as it was before it streamed
    blocks of the grouped pass, verbatim: one ``FlatModel.gradient``
    call per participant."""
    # A generator: each gradient is folded in before the next exists.
    for client in participants:
        batch = client.draw_minibatch()
        yield model.gradient(*batch), batch


#: (geometry, batch sizes in participant order): the suite MLP (blocks
#: of 8), the suite CNN (blocks of 2), and cohorts mixing full and short
#: batches from clients holding fewer samples than the batch size
GRADIENT_COHORTS = {
    "mlp-20": ("mlp", [32] * 20),
    "cnn-5": ("cnn", [32] * 5),
    "mixed": ("mlp", [32, 5, 32, 32, 5]),
    "mixed-long": ("mlp", [32] * 10 + [5, 5, 7] + [32] * 3),
}


class TestSerialGradientsAgainstReference:
    @pytest.mark.parametrize("cohort", sorted(GRADIENT_COHORTS))
    def test_pairs_are_byte_equal_to_the_per_client_loop(
        self, cohort, monkeypatch
    ):
        geometry, sizes = GRADIENT_COHORTS[cohort]
        model, reference_clients = make_cohort(geometry, sizes, seed=3)
        expected = [
            (grad.copy(), batch)
            for grad, batch in reference_serial_gradients(
                model, reference_clients
            )
        ]
        blocks = []  # the batch sizes of each grouped call
        grouped = model.gradients_batched

        def spy(xs, ys):
            blocks.append([x.shape[0] for x in xs])
            return grouped(xs, ys)

        monkeypatch.setattr(model, "gradients_batched", spy)
        _, clients = make_cohort(geometry, sizes, seed=3)
        got = list(SerialBackend().compute_gradients(model, clients))
        assert [x.shape[0] for _, (x, _) in expected] == sizes
        assert len(got) == len(expected)
        # Row i is participant i's gradient of participant i's minibatch.
        for (grad, (x, y)), (want, (want_x, want_y)) in zip(got, expected):
            assert grad.tobytes() == want.tobytes()
            assert x.tobytes() == want_x.tobytes()
            assert y.tobytes() == want_y.tobytes()
        # A block never mixes batch sizes.
        assert all(len(set(block)) == 1 for block in blocks)


# ----------------------------------------------------------------------
# CNN layer kernels: literal transcriptions of their first implementation
# ----------------------------------------------------------------------
def reference_relu_forward(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def reference_relu_backward(mask, grad_out):
    return grad_out * mask


def reference_maxpool_forward(x, s):
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5)
    xr = xr.reshape(n, c, h // s, w // s, s * s)
    return xr.max(axis=-1), xr.argmax(axis=-1)


def reference_maxpool_backward(argmax, x_shape, s, grad_out):
    n, c, h, w = x_shape
    grad_windows = np.zeros((n, c, h // s, w // s, s * s))
    np.put_along_axis(
        grad_windows, argmax[..., None], grad_out[..., None], axis=-1
    )
    grad = grad_windows.reshape(n, c, h // s, w // s, s, s)
    return grad.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def reference_im2col(x, kernel, padding):
    """Sliding windows of ``x`` as rows ``(n * h_out * w_out, c * k * k)``,
    in the ``(h_out, w_out, c, ki, kj)`` column order: a window view,
    transposed and copied."""
    n, c, h, w = x.shape
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    h_out = h + 2 * padding - kernel + 1
    w_out = w + 2 * padding - kernel + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, -1)
    return np.ascontiguousarray(cols)


def reference_col2im(cols, x_shape, kernel, padding):
    """The adjoint of :func:`reference_im2col`: one ``np.bincount`` adds
    every (window, tap) entry into its padded-input position, in column
    order, and the padding is cropped."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out = hp - kernel + 1
    w_out = wp - kernel + 1
    tap = np.arange(kernel)
    rows_at = np.arange(h_out)[:, None] + tap[None, :]
    cols_at = np.arange(w_out)[:, None] + tap[None, :]
    chan = np.arange(c) * (hp * wp)
    taps = (
        chan[None, None, :, None, None]
        + rows_at[:, None, None, :, None] * wp
        + cols_at[None, :, None, None, :]
    ).ravel()
    sample_size = c * hp * wp
    flat_indices = (
        np.arange(n, dtype=np.int64)[:, None] * sample_size + taps[None, :]
    ).ravel()
    acc = np.bincount(
        flat_indices, weights=cols.ravel(), minlength=n * sample_size
    )
    x_padded = acc.reshape(n, c, hp, wp)
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def reference_conv_forward(conv, x):
    """One serial Conv2D forward: ``im2col(x) @ w_mat.T + b``, NCHW."""
    n, _, h, w_in = x.shape
    k, p = conv.kernel_size, conv.padding
    w_mat = conv.params[0].reshape(conv.out_channels, -1)
    out = reference_im2col(x, k, p) @ w_mat.T + conv.params[1]
    h_out, w_out = h + 2 * p - k + 1, w_in + 2 * p - k + 1
    return out.reshape(n, h_out, w_out, conv.out_channels).transpose(0, 3, 1, 2)


def reference_conv_backward(conv, x, grad_out):
    """``(grad_x, grad_w, grad_b)`` of one serial Conv2D backward."""
    n, c, h, w_in = x.shape
    k, p = conv.kernel_size, conv.padding
    cols = reference_im2col(x, k, p)
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    grad_w = (g.T @ cols).reshape(conv.params[0].shape)
    grad_b = g.sum(axis=0)
    w_mat = conv.params[0].reshape(conv.out_channels, -1)
    grad_cols = g @ w_mat
    return reference_col2im(grad_cols, (n, c, h, w_in), k, p), grad_w, grad_b


#: values whose handling a branch-free kernel could get subtly wrong: both
#: zeros, the canonical quiet NaN, infinities and subnormals
SPECIAL_VALUES = np.array([
    -0.0, 0.0, np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0,
])


def awkward(rng, shape, specials=SPECIAL_VALUES):
    """Normals with ~30% of entries replaced by ``specials``."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    hit = rng.random(flat.size) < 0.3
    flat[hit] = rng.choice(specials, int(hit.sum()))
    return x


def tie_heavy(rng, shape):
    """Integer values in [-2, 2] with zeros of both signs: most pooling
    windows hold repeated maxima, many of them a mix of 0.0 and -0.0."""
    x = rng.integers(-2, 3, size=shape).astype(float)
    zeros = x == 0
    x[zeros] *= rng.choice([-1.0, 1.0], int(zeros.sum()))
    return x


def as_conv_output(x):
    """The same values laid out like Conv2D's output: an NHWC buffer
    seen through an NCHW transpose."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_bytes_equal(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


LAYOUTS = {"contiguous": lambda x: x, "conv_output": as_conv_output}


class TestLayerKernelsAgainstReference:
    """Byte equality against the transcriptions above on inputs chosen to
    break a kernel that is only approximately right."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_relu_matches_reference(self, layout, seed):
        rng = np.random.default_rng(seed)
        x = LAYOUTS[layout](awkward(rng, (5, 3, 4, 6)))
        # Finite gradients: inf * False is NaN with an "invalid" warning
        # in the reference too, which the suite turns into an error.
        grad = awkward(rng, x.shape, SPECIAL_VALUES[~np.isinf(SPECIAL_VALUES)])
        expected, mask = reference_relu_forward(x)
        relu = ReLU()
        assert_bytes_equal(relu.forward(x[None])[0], expected)
        assert_bytes_equal(relu.backward(grad[None])[0][0],
                           reference_relu_backward(mask, grad))
        # Grouped: one (G, batch, ...) stack through the same kernels.
        x5, g5 = x.reshape((5, 1) + x.shape[1:]), grad.reshape((5, 1) + x.shape[1:])
        assert_bytes_equal(relu.forward(x5), expected.reshape(x5.shape))
        grad_in, params = relu.backward(g5)
        assert params == []
        assert_bytes_equal(grad_in, reference_relu_backward(mask, grad).reshape(x5.shape))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("values", ["awkward", "tie_heavy"])
    @pytest.mark.parametrize("s,c,h,w", [(1, 2, 3, 5), (2, 3, 4, 6), (3, 2, 6, 9)])
    def test_maxpool_matches_reference(self, s, c, h, w, values, layout):
        rng = np.random.default_rng(s * 100 + h)
        make = awkward if values == "awkward" else tie_heavy
        groups, batch = 3, 4
        x5 = make(rng, (groups, batch, c, h, w))
        grad5 = awkward(rng, (groups, batch, c, h // s, w // s))
        pool = MaxPool2D(s)
        # Serial, one group at a time.
        for g in range(groups):
            x = LAYOUTS[layout](x5[g])
            expected, argmax = reference_maxpool_forward(x, s)
            assert_bytes_equal(pool.forward(x[None])[0], expected)
            assert_bytes_equal(
                pool.backward(grad5[g][None])[0][0],
                reference_maxpool_backward(argmax, x.shape, s, grad5[g]),
            )
        # Grouped: the group axis folds into the batch.
        folded = x5.reshape((groups * batch,) + x5.shape[2:])
        expected, argmax = reference_maxpool_forward(folded, s)
        assert_bytes_equal(
            pool.forward(x5), expected.reshape(grad5.shape)
        )
        grad_in, params = pool.backward(grad5)
        assert params == []
        assert_bytes_equal(grad_in, reference_maxpool_backward(
            argmax, folded.shape, s, grad5.reshape(expected.shape)
        ).reshape(x5.shape))

    # (cin, cout, kernel, padding, h, w): non-square, padded and not,
    # h_out == 1, kernel larger than the input, even and 1x1 kernels.
    CONV_CASES = [
        (2, 3, 3, 0, 5, 7), (2, 3, 3, 1, 5, 7), (1, 2, 3, 0, 3, 5),
        (1, 1, 3, 1, 2, 2), (3, 2, 2, 0, 6, 4), (2, 4, 1, 0, 4, 3),
    ]

    @pytest.mark.parametrize("cin,cout,kernel,padding,h,w", CONV_CASES)
    def test_conv_backward_matches_reference(self, cin, cout, kernel, padding, h, w):
        rng = np.random.default_rng(cin * 31 + h * 7 + w)
        conv = Conv2D(cin, cout, kernel_size=kernel, rng=rng, padding=padding)
        finite = SPECIAL_VALUES[np.isfinite(SPECIAL_VALUES)]
        groups, batch = 3, 2
        x5 = awkward(rng, (groups, batch, cin, h, w), finite)
        out5 = conv.forward(x5)
        grad5 = awkward(rng, out5.shape, finite)
        grad_in, (grad_w, grad_b) = conv.backward(grad5)
        for g in range(groups):
            ref_out = reference_conv_forward(conv, x5[g])
            assert_bytes_equal(out5[g], ref_out)
            ref_x, ref_w, ref_b = reference_conv_backward(conv, x5[g], grad5[g])
            assert_bytes_equal(conv.forward(x5[g][None])[0], ref_out)
            one_x, (one_w, one_b) = conv.backward(grad5[g][None])
            assert_bytes_equal(one_x[0], ref_x)
            assert_bytes_equal(one_w[0], ref_w)
            assert_bytes_equal(one_b[0], ref_b)
            assert_bytes_equal(grad_in[g], ref_x)
            assert_bytes_equal(grad_w[g], ref_w)
            assert_bytes_equal(grad_b[g], ref_b)

    @given(
        n=st.sampled_from([1, 2, 3, 1000]),
        c=st.integers(min_value=1, max_value=3),
        h=st.integers(min_value=1, max_value=7),
        w=st.integers(min_value=1, max_value=7),
        kernel=st.integers(min_value=1, max_value=4),
        padding=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # A kernel larger than the input, 1x1, non-square, an eval pool.
    @example(n=2, c=1, h=2, w=2, kernel=4, padding=2, seed=0)
    @example(n=3, c=2, h=4, w=3, kernel=1, padding=0, seed=1)
    @example(n=2, c=3, h=3, w=6, kernel=3, padding=1, seed=2)
    @example(n=1000, c=1, h=6, w=6, kernel=3, padding=1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_conv_kernels_match_reference(self, n, c, h, w, kernel, padding, seed):
        assume(min(h, w) + 2 * padding >= kernel)
        rng = np.random.default_rng(seed)
        x = awkward(rng, (n, c, h, w))
        # im2col only moves values: every special, NaN and inf included.
        assert_bytes_equal(_im2col(x, kernel, padding),
                           reference_im2col(x, kernel, padding))
        finite = SPECIAL_VALUES[np.isfinite(SPECIAL_VALUES)]
        x = awkward(rng, (n, c, h, w), finite)
        conv = Conv2D(c, 2, kernel_size=kernel, rng=rng, padding=padding)
        if n == 1000:
            # An eval pool: one group, no cached columns, no backward.
            conv.train(False)
            assert_bytes_equal(conv.forward(x[None])[0],
                               reference_conv_forward(conv, x))
            return
        out = conv.forward(x[None])
        assert_bytes_equal(out[0], reference_conv_forward(conv, x))
        grad = awkward(rng, out.shape, finite)
        grad_x, (grad_w, grad_b) = conv.backward(grad)
        ref_x, ref_w, ref_b = reference_conv_backward(conv, x, grad[0])
        assert_bytes_equal(grad_x[0], ref_x)
        assert_bytes_equal(grad_w[0], ref_w)
        assert_bytes_equal(grad_b[0], ref_b)
        cols = awkward(rng, (n * out.shape[3] * out.shape[4], c * kernel**2), finite)
        assert_bytes_equal(_col2im(cols, x.shape, kernel, padding),
                           reference_col2im(cols, x.shape, kernel, padding))


# ----------------------------------------------------------------------
# Section IV-E probe losses: the per-client path, one sample at a time
# ----------------------------------------------------------------------
def reference_probe_reading(model, participants, weights):
    """One averaged probe reading the way each client reported it: swap
    ``weights`` in, run the client's one probe sample through an
    evaluation-mode forward on its own, restore — then the mean of the
    per-client floats."""
    losses = []
    for client in participants:
        x, y = client.probe_sample
        saved = model.get_weights()
        model.set_weights(weights)
        model.network.train(False)
        logits = model.network.forward(x[None])[0]
        losses.append(float(model.loss.per_sample(logits, y)[0]))
        model.network.train(True)
        model.set_weights(saved)
    return float(np.mean(losses))


def _probe_models(seed):
    """name -> (model, per-sample input shape)."""
    return {
        "mlp": (make_mlp(12, 5, hidden=(7,), seed=seed), (12,)),
        "cnn": (make_cnn(8, 1, 5, conv_channels=(2, 3), dense_width=6,
                         seed=seed), (1, 8, 8)),
    }


#: probe features: ±0, NaN, ±inf and subnormals, plus magnitudes whose
#: logits overflow
PROBE_SPECIALS = np.concatenate([SPECIAL_VALUES, [1e300, -1e300, 1e150]])


class TestProbeLossesAgainstPerClientReference:
    @pytest.mark.parametrize("participants", [1, 4, 9])
    @pytest.mark.parametrize("inputs", ["normal", "awkward"])
    @pytest.mark.parametrize("name", ["mlp", "cnn"])
    def test_hook_readings_are_byte_equal(self, name, inputs, participants):
        seed = participants
        model, shape = _probe_models(seed)[name]
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal((participants,) + shape)
        if inputs == "awkward":
            x = awkward(rng, x.shape, PROBE_SPECIALS)
        y = rng.integers(0, 5, participants)
        clients = []
        for cid in range(participants):
            client = Client(
                ClientDataset(cid, np.zeros((1, 1)), np.zeros(1)),
                model.dimension,
            )
            client.probe_sample = (x[cid : cid + 1], y[cid : cid + 1])
            clients.append(client)
        w_prev = model.get_weights()
        w_new = w_prev + 0.1 * rng.standard_normal(w_prev.size)
        w_probe = 1e3 * w_prev  # huge logits
        ctx = SimpleNamespace(
            engine=SimpleNamespace(model=model), participants=clients,
        )
        hooks = LearnedK(None, None)
        with np.errstate(all="ignore"):
            # The model where the engine's observe point puts it: w(m).
            model.set_weights(w_new)
            got = hooks.sample_losses(ctx, w_prev, w_new, w_probe)
            assert model.get_weights().tobytes() == w_new.tobytes()
            assert model.network.training
            expected = [
                reference_probe_reading(model, clients, w)
                for w in (w_prev, w_new, w_probe)
            ]
        assert [np.float64(v).tobytes() for v in got] == [
            np.float64(v).tobytes() for v in expected
        ]
        if inputs == "normal":
            assert all(np.isfinite(got))


# ----------------------------------------------------------------------
# The learned k's draw: Definition 2 rounding of (k, k') per round
# ----------------------------------------------------------------------
def reference_stochastic_round(k, rng):
    """Definition 2: ⌊k⌋ w.p. ⌈k⌉ − k, ⌈k⌉ w.p. k − ⌊k⌋; integers exact."""
    lo, hi = math.floor(k), math.ceil(k)
    if lo == hi:
        return lo
    return hi if rng.random() < k - lo else lo


def reference_learned_k_draws(script, dimension, seed):
    """(played k, probe k') per round: the adaptive trainer's rounding,
    transcribed.  k is clamped to [1, D], rounded on the (seed, 0xADA9)
    stream and clamped again; k' is drawn next on the same stream,
    floored at 1, capped at k − 1, and dropped when that leaves it < 1."""
    rng = np.random.default_rng((seed, 0xADA9))
    draws = []
    for k_continuous, probe_continuous in script:
        k_int = reference_stochastic_round(
            min(max(k_continuous, 1.0), float(dimension)), rng
        )
        k_int = max(1, min(k_int, dimension))
        probe_int = None
        if probe_continuous is not None:
            probe_int = reference_stochastic_round(
                max(probe_continuous, 1.0), rng
            )
            probe_int = min(probe_int, k_int - 1)
            if probe_int < 1:
                probe_int = None
        draws.append((k_int, probe_int))
    return draws


class ScriptedPolicy(KPolicy):
    """Proposes a fixed script of (k, k') pairs, one pair per observe."""

    def __init__(self, script):
        self.script = list(script)
        self.observed = []

    def propose(self):
        return self.script[len(self.observed)][0]

    def probe_k(self):
        return self.script[len(self.observed)][1]

    def observe(self, reading, cost):
        self.observed.append(reading)


def _learned_k_setup(features, classes):
    ds = make_gaussian_blobs(num_samples=60, num_classes=classes,
                             feature_dim=features, separation=3.0, seed=0)
    fed = partition_iid(ds, num_clients=3, seed=0)
    model = make_logistic(features, classes, seed=0)
    return model, fed, TimingModel(model.dimension, comm_time=2.0)


class TestLearnedKDrawAgainstReference:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_played_probe_and_recorded_k(self, data):
        features = data.draw(st.integers(1, 4), label="features")
        classes = data.draw(st.integers(2, 3), label="classes")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        model, fed, timing = _learned_k_setup(features, classes)
        dimension = model.dimension
        k_values = st.floats(-2.0, dimension + 5.0, allow_nan=False)
        script = data.draw(st.lists(
            st.tuples(k_values, st.none() | k_values), min_size=1, max_size=6,
        ), label="script")
        policy = ScriptedPolicy(script)
        events = EventList()
        trainer = AdaptiveKTrainer(
            model, fed, FABTopK(), policy, timing, learning_rate=0.1,
            batch_size=8, seed=seed, telemetry=Telemetry(sink=events),
        )
        for _ in script:
            trainer.step()
        probes = [e["probe_k"] for e in events if e["type"] == "probe"]
        got = [
            (record.uplink_elements, probe)
            for record, probe in zip(trainer.history.records, probes,
                                     strict=True)
        ]
        assert got == reference_learned_k_draws(script, dimension, seed)
        assert trainer.history.ks() == [float(k) for k, _ in script]
        assert [
            None if reading is None else (reading.value, reading.probe_value)
            for reading in policy.observed
        ] == [
            None if probe is None else step
            for step, probe in zip(script, probes)
        ]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_run_twice_draws_what_one_run_draws(self, seed):
        # The rounding stream is the engine's, not the run's: a second
        # ``run(n, policy)`` continues it instead of restarting it.
        def trainer():
            model, fed, timing = _learned_k_setup(4, 3)
            return FLTrainer(model, fed, FABTopK(), timing,
                             learning_rate=0.1, batch_size=8, seed=seed)

        interval = SearchInterval(2.0, 15.0)
        split, whole = trainer(), trainer()
        split_policy = SignPolicy(SignOGD(interval))
        split.run(5, split_policy)
        split.run(5, split_policy)
        whole.run(10, SignPolicy(SignOGD(interval)))
        assert split.history.records == whole.history.records
        assert len(set(whole.history.ks())) > 1
        np.testing.assert_array_equal(
            split.model.get_weights(), whole.model.get_weights()
        )


# ----------------------------------------------------------------------
# The deadline family: CLI flags -> ScenarioConfig -> deadline schedule
# ----------------------------------------------------------------------
DEADLINE_FIELDS = (
    "deadline", "deadline_policy", "deadline_min", "deadline_max",
    "deadline_probe",
)
DEADLINE_ROUNDS = range(1, 9)
CLI_PARSER = cli.build_parser()


def reference_cli_deadline(base, flags):
    """The deadline rules ``cli._scenario_overrides`` applies, literally.
    ``base`` holds the preset's deadline fields, ``flags`` the ones the
    user gave (``deadline`` as the list ``--deadline`` parses to)."""
    overrides = dict(flags)
    if "deadline" in overrides:
        values = overrides["deadline"]
        overrides["deadline"] = (
            values[0] if len(values) == 1 else tuple(values)
        )
    policy = overrides.get("deadline_policy")
    effective_deadline = overrides.get("deadline", base["deadline"])
    if policy == "fixed" and isinstance(effective_deadline, tuple):
        overrides["deadline"] = sum(effective_deadline) / len(
            effective_deadline
        )
    elif policy == "cycling" and isinstance(effective_deadline, float):
        overrides["deadline"] = (effective_deadline,)
    elif (
        policy == "adaptive"
        and isinstance(effective_deadline, (int, float))
        and "deadline_min" not in overrides
        and "deadline_max" not in overrides
    ):
        overrides["deadline_min"] = effective_deadline / 2.0
        overrides["deadline_max"] = effective_deadline * 2.0
    return {**base, **overrides}


def reference_normalized_deadline(fields):
    """``ScenarioConfig.__post_init__``'s deadline coercion plus
    ``_normalize_deadline_policy``, literally: the normalized fields, or
    the ValueError they raise."""
    deadline, policy = fields["deadline"], fields["deadline_policy"]
    dmin, dmax = fields["deadline_min"], fields["deadline_max"]
    if isinstance(deadline, (list, tuple)):
        deadline = tuple(float(d) for d in deadline)
    elif deadline is not None:
        deadline = float(deadline)
    if policy == "fixed" and isinstance(deadline, tuple):
        if len(deadline) == 1:
            deadline = deadline[0]
        else:
            policy = "cycling"
    if policy == "cycling" and isinstance(deadline, float):
        deadline = (deadline,)
    if policy == "cycling" and not isinstance(deadline, tuple):
        raise ValueError("cycling deadline_policy needs a deadline sequence")
    if policy != "adaptive":
        if dmin is not None or dmax is not None:
            raise ValueError(
                "deadline_min/deadline_max only apply to the adaptive "
                "deadline_policy"
            )
        return dict(fields, deadline=deadline, deadline_policy=policy)
    if isinstance(deadline, tuple):
        if dmin is None:
            dmin = min(deadline)
        if dmax is None:
            dmax = max(deadline)
        deadline = None
    elif dmin is None and dmax is None and deadline is not None:
        dmin, dmax = deadline / 2.0, deadline * 2.0
    if dmin is None or dmax is None:
        raise ValueError(
            "adaptive deadline_policy needs deadline_min/deadline_max "
            "(or a deadline schedule to derive them from)"
        )
    dmin, dmax = float(dmin), float(dmax)
    if not 0.0 < dmin < dmax:
        raise ValueError(
            f"need 0 < deadline_min < deadline_max, got [{dmin}, {dmax}]"
        )
    if deadline is not None and not dmin <= deadline <= dmax:
        raise ValueError(
            f"initial deadline {deadline} outside [{dmin}, {dmax}]"
        )
    return dict(fields, deadline=deadline, deadline_policy=policy,
                deadline_min=dmin, deadline_max=dmax)


def deadline_walk(schedule):
    """(deadline in force, d' probe, d'' probe) for rounds 1..8."""
    return [
        (schedule.deadline_for(m), schedule.probe_deadline(m),
         schedule.probe_deadline_up(m))
        for m in DEADLINE_ROUNDS
    ]


def reference_deadline_walk(fields):
    """What the policy a normalized config names answers each round:
    fixed and cycling schedules literally (with their constructors'
    raises); the adaptive walker itself is not part of the family."""
    policy, deadline = fields["deadline_policy"], fields["deadline"]
    if policy == "adaptive":
        return deadline_walk(AdaptiveDeadlinePolicy(
            SearchInterval(fields["deadline_min"], fields["deadline_max"]),
            d1=deadline, probe=fields["deadline_probe"],
        ))
    if policy == "cycling":
        if not deadline:
            raise ValueError("empty deadline sequence")
        if any(d <= 0 for d in deadline):
            raise ValueError("deadlines must be positive")
        return [(deadline[(m - 1) % len(deadline)], None, None)
                for m in DEADLINE_ROUNDS]
    if deadline is not None and deadline <= 0:
        raise ValueError("deadlines must be positive")
    return [(deadline, None, None) for _ in DEADLINE_ROUNDS]


def deadline_outcome(build):
    """("ok", to_dict, walk) of one chain, or ("raises", message)."""
    try:
        config = build()
        if isinstance(config, dict):  # a reference chain's fields
            data, walk = config, reference_deadline_walk(config)
            if isinstance(data["deadline"], tuple):
                data = dict(data, deadline=list(data["deadline"]))
            return ("ok", data, walk)
        schedule = config.deadline_schedule()
        walk = (
            [(None, None, None) for _ in DEADLINE_ROUNDS] if schedule is None
            else deadline_walk(schedule)
        )
    except ValueError as error:
        return ("raises", str(error))
    # The normalizer is idempotent on its own output.
    assert ScenarioConfig.from_dict(config.to_dict()) == config
    assert ScenarioConfig.from_dict(config.to_dict()).to_dict() == (
        config.to_dict()
    )
    return ("ok", config.to_dict(), walk)


DEADLINE_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 2.5, 4.0, 9.0])
DEADLINE_SPECS = st.one_of(
    st.none(),
    DEADLINE_VALUES,
    st.tuples(DEADLINE_VALUES),
    st.lists(DEADLINE_VALUES, min_size=2, max_size=4)
    .filter(lambda v: len(set(v)) > 1).map(tuple),
    st.builds(lambda v, n: (v,) * n, DEADLINE_VALUES, st.integers(2, 4)),
)


class TestDeadlineFamilyAgainstReference:
    """Every way a deadline spec reaches a schedule — the ``scenario`` and
    ``adversary`` flags over their presets, or ``ScenarioConfig(...)``
    directly — resolves to the reference chain's config and per-round
    deadlines, or raises its ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(["scenario", "adversary", None]),
        policy=st.sampled_from([None, "fixed", "cycling", "adaptive"]),
        deadline=DEADLINE_SPECS,
        dmin=st.one_of(st.none(), DEADLINE_VALUES),
        dmax=st.one_of(st.none(), DEADLINE_VALUES),
        probe=st.booleans(),
    )
    def test_chain_matches_reference(
        self, command, policy, deadline, dmin, dmax, probe
    ):
        given_fields = {
            "deadline": deadline, "deadline_min": dmin,
            "deadline_max": dmax, "deadline_policy": policy,
        }
        if command is None:
            base = ScenarioConfig()
            kwargs = {
                k: v for k, v in given_fields.items() if v is not None
            }

            def real():
                return ScenarioConfig(deadline_probe=probe, **kwargs)

            def reference():
                fields = {f: getattr(base, f) for f in DEADLINE_FIELDS}
                fields.update(kwargs, deadline_probe=probe)
                return reference_normalized_deadline(fields)
        else:
            base = (
                ScenarioConfig.default_churn() if command == "scenario"
                else ScenarioConfig(availability="always")
            )
            values = None if deadline is None else (
                [deadline] if isinstance(deadline, float) else list(deadline)
            )
            argv = [command]
            if values is not None:
                argv += ["--deadline", *map(repr, values)]
            for flag, value in (("--deadline-min", dmin),
                                ("--deadline-max", dmax),
                                ("--deadline-policy", policy)):
                if value is not None:
                    argv += [flag, str(value)]
            if not probe:
                argv.append("--no-deadline-probe")
            args = CLI_PARSER.parse_args(argv)

            def real():
                return ScenarioConfig.from_dict(cli._scenario_overrides(
                    args, 0, base=None if command == "scenario" else base,
                ))

            def reference():
                flags = {
                    k: v
                    for k, v in dict(given_fields, deadline=values).items()
                    if v is not None
                }
                if not probe:
                    flags["deadline_probe"] = False
                fields = reference_cli_deadline(
                    {f: getattr(base, f) for f in DEADLINE_FIELDS}, flags
                )
                return reference_normalized_deadline(fields)

        expected = deadline_outcome(reference)
        if expected[0] == "ok":
            # The reference chain owns only the deadline fields.
            expected = ("ok", {**base.to_dict(), **expected[1]}, expected[2])
        assert deadline_outcome(real) == expected


# ----------------------------------------------------------------------
# The deadline gate: one round's uploads, finish times and deadline
# ----------------------------------------------------------------------
def reference_admit(client_ids, finish, deadline, target_uploads,
                    min_uploads):
    """``DeadlineRoundPolicy.admit``, literally: (accepted positions,
    dropped client ids, close time)."""
    n = len(client_ids)
    # Service order: finish time, then client id.
    order = sorted(range(n), key=lambda i: (finish[i], client_ids[i]))
    if deadline is None:
        in_time = list(order)
    else:
        in_time = [i for i in order if finish[i] <= deadline]
    target = n if target_uploads is None else max(min_uploads, target_uploads)
    accepted = in_time[:target]
    extended = len(accepted) < min_uploads
    if extended:
        accepted = order[:min_uploads]
    if extended:
        # Fewer than min_uploads made it: wait for the fastest ones.
        close = max(finish[i] for i in accepted)
    elif target_uploads is not None and len(accepted) == target and n > target:
        # Over-selection reached m: close on the m-th finisher.
        close = finish[accepted[-1]]
    elif deadline is None or len(in_time) == n:
        # Everyone made it: close on the last finisher.
        close = max(finish[i] for i in accepted)
    else:
        # Someone missed: the server learns so at the deadline.
        close = deadline
    dropped = tuple(client_ids[i] for i in range(n) if i not in accepted)
    return tuple(sorted(accepted)), dropped, float(close)


class TestDeadlineGateAgainstReference:
    """The gate's verdict — service order, in-time filter, target,
    ``min_uploads`` extension and the four close rules — on tied finish
    times, every deadline/target/floor combination."""

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 40),
                      st.sampled_from([0.5, 1.0, 2.0, 3.5, 7.0])),
            min_size=1, max_size=8, unique_by=lambda row: row[0],
        ),
        deadline=st.one_of(
            st.none(), st.sampled_from([0.25, 1.0, 2.0, 3.0, 5.0, 10.0])
        ),
        target=st.one_of(st.none(), st.integers(1, 9)),
        min_uploads=st.integers(1, 3),
    )
    def test_verdict_matches_reference(self, rows, deadline, target,
                                       min_uploads):
        client_ids = [cid for cid, _ in rows]
        finish = np.array([t for _, t in rows])
        uploads = [
            ClientUpload(
                client_id=cid,
                payload=SparseVector.from_sorted(
                    np.arange(1, dtype=np.int64), np.ones(1), 10
                ),
                sample_count=1,
            )
            for cid in client_ids
        ]
        gate = DeadlineRoundPolicy(None, min_uploads=min_uploads)
        verdict = gate.admit(uploads, finish, deadline, target_uploads=target)
        accepted, dropped, close = reference_admit(
            client_ids, finish, deadline, target, min_uploads
        )
        assert verdict.accepted == accepted
        assert verdict.dropped_ids == dropped
        assert np.float64(verdict.close_time).tobytes() == (
            np.float64(close).tobytes()
        )


# ----------------------------------------------------------------------
# Client speeds: the normalized-time model (Section V, footnotes 3 and
# 5) with Section VI's heterogeneous clients
# ----------------------------------------------------------------------
def reference_direction(dimension, comm_time, elements, pair):
    """One direction carrying ``elements`` entries: β/2 per full vector,
    ``pair`` dense elements per entry, never more than the dense D."""
    return comm_time / 2.0 * min(elements * pair, dimension) / dimension


def reference_slowest(profiles, participants):
    """(slowest compute, slowest comm) over the participants — every
    known profile when None; the two may be different clients."""
    chosen = (
        list(profiles.values()) if participants is None
        else [profiles[cid] for cid in participants]
    )
    return (max(p.compute_factor for p in chosen),
            max(p.comm_factor for p in chosen))


def reference_round(dimension, comm_time, profiles, participants,
                    uplink, downlink, pair):
    """A synchronous round paced by its slowest participant:
    (computation, uplink, downlink)."""
    compute, comm = reference_slowest(profiles, participants)
    return (
        1.0 * compute,
        reference_direction(dimension, comm_time, uplink, pair) * comm,
        reference_direction(dimension, comm_time, downlink, pair) * comm,
    )


def reference_arrivals(dimension, comm_time, profiles, client_ids, nnz):
    """Each upload's compute + uplink finish time at its own client's
    speed; a client missing from the map runs at unit speed."""
    times = []
    for cid, elements in zip(client_ids, nnz):
        profile = profiles.get(cid)
        compute = profile.compute_factor if profile is not None else 1.0
        comm = profile.comm_factor if profile is not None else 1.0
        times.append(
            1.0 * compute
            + reference_direction(dimension, comm_time, elements, 2.0) * comm
        )
    return times


def reference_broadcast(dimension, comm_time, profiles, cohort, elements):
    """The downlink to the whole cohort, paced by its slowest known
    link."""
    worst = max(
        (profiles[cid].comm_factor for cid in cohort if cid in profiles),
        default=1.0,
    )
    return reference_direction(dimension, comm_time, elements, 2.0) * worst


def float_hex(values):
    return [float(v).hex() for v in values]


@st.composite
def speed_maps(draw):
    """A profile list (ids 0..n−1) or a population's ``ProfileMap``."""
    if draw(st.booleans()):
        factors = st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0, 4.0, 8.0])
        n = draw(st.integers(1, 6))
        return [
            ClientProfile(cid, compute_factor=draw(factors),
                          comm_factor=draw(factors))
            for cid in range(n)
        ]
    return ProfileMap(
        draw(st.integers(1, 64)),
        slow_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        slow_factor=draw(st.sampled_from([0.5, 4.0])),
        seed=draw(st.integers(0, 3)),
    )


class TestClientSpeedsAgainstReference:
    """Every per-client time the simulator charges — the slowest-client
    round, each upload's arrival and the cohort broadcast — equals its
    literal formula float for float, on profile lists and population
    maps, participant subsets and the all-clients fallback, and element
    counts from 0 to past D/2 (where the dense cap binds)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rounds_arrivals_and_broadcast(self, data):
        speeds = data.draw(speed_maps())
        dimension = data.draw(st.integers(1, 300))
        comm_time = data.draw(st.sampled_from([0.0, 0.3, 1.0, 7.0, 10.0]))
        timing = HeterogeneousTimingModel(dimension, comm_time, speeds)
        profiles = (
            {p.client_id: p for p in speeds} if isinstance(speeds, list)
            else speeds
        )
        known = (
            sorted(profiles) if isinstance(speeds, list)
            else list(range(speeds.population))
        )
        participants = data.draw(st.one_of(
            st.none(),
            st.lists(st.sampled_from(known), min_size=1, max_size=8,
                     unique=True),
        ))
        elements = st.integers(0, dimension)
        uplink, downlink = data.draw(elements), data.draw(elements)

        sparse = timing.sparse_round(uplink, downlink, participants)
        assert float_hex(
            (sparse.computation, sparse.uplink, sparse.downlink)
        ) == float_hex(reference_round(
            dimension, comm_time, profiles, participants,
            uplink, downlink, 2.0,
        ))
        dense = timing.dense_round(participants)
        assert float_hex(
            (dense.computation, dense.uplink, dense.downlink)
        ) == float_hex(reference_round(
            dimension, comm_time, profiles, participants,
            dimension, dimension, 1.0,
        ))
        local = timing.local_round(participants)
        assert float_hex(
            (local.computation, local.uplink, local.downlink)
        ) == float_hex(reference_round(
            dimension, comm_time, profiles, participants, 0, 0, 2.0,
        ))
        # No map charges what unit profiles charge.
        plain = TimingModel(dimension, comm_time).sparse_round(
            uplink, downlink, participants
        )
        unit = {cid: ClientProfile(cid) for cid in participants or [0]}
        assert float_hex(
            (plain.computation, plain.uplink, plain.downlink)
        ) == float_hex(reference_round(
            dimension, comm_time, unit, participants, uplink, downlink, 2.0,
        ))

        # Arrivals also cover clients the map does not know.
        client_ids = data.draw(st.lists(
            st.one_of(st.sampled_from(known), st.integers(1000, 1003)),
            min_size=1, max_size=8, unique=True,
        ))
        nnz = [data.draw(elements) for _ in client_ids]
        arrivals = timing.arrival_times(client_ids, nnz)
        assert float_hex(arrivals) == float_hex(reference_arrivals(
            dimension, comm_time, profiles, client_ids, nnz
        ))

        cohort = participants if participants is not None else known[:8]
        broadcast = timing.broadcast_time(cohort, downlink)
        assert float_hex([broadcast]) == float_hex([reference_broadcast(
            dimension, comm_time, profiles, cohort, downlink
        )])

    def test_a_client_missing_from_the_map_runs_at_unit_speed(self):
        fast = ClientProfile(0, compute_factor=0.5, comm_factor=0.25)
        timing = HeterogeneousTimingModel(100, 10.0, [fast])
        one_way = reference_direction(100, 10.0, 20, 2.0)
        assert timing.sparse_round(20, 20, [0]).computation == 0.5
        assert timing.sparse_round(20, 20, [0, 7]).computation == 1.0
        assert timing.broadcast_time([0], 20) == one_way * 0.25
        assert timing.broadcast_time([0, 7], 20) == one_way
        assert timing.arrival_times([0, 7], [20, 20]).tolist() == [
            0.5 + one_way * 0.25, 1.0 + one_way,
        ]


class TestPeriodicResidualModes:
    def test_discard_mode_keeps_residual_empty(self):
        ds = make_gaussian_blobs(num_samples=200, num_classes=3,
                                 feature_dim=8, separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=3, seed=0)
        model = make_logistic(8, 3, seed=0)
        trainer = FLTrainer(model, fed, PeriodicK(model.dimension, seed=0),
                            learning_rate=0.05, batch_size=16, seed=0)
        trainer.run(5, k=4)
        for client in trainer.clients:
            np.testing.assert_allclose(client.residual, 0.0)


class TestHistoryLastEvaluated:
    def test_skips_nan(self):
        h = TrainingHistory()
        h.append(RoundRecord(1, 1.0, 1.0, 1.0, 5.0))
        h.append(RoundRecord(2, 1.0, 1.0, 2.0, float("nan")))
        assert h.final_loss == 5.0

    def test_all_nan_raises(self):
        h = TrainingHistory()
        h.append(RoundRecord(1, 1.0, 1.0, 1.0, float("nan")))
        with pytest.raises(ValueError):
            _ = h.final_loss


class TestAdaptiveTrainerWithSampler:
    def test_runs_with_subset(self):
        ds = make_gaussian_blobs(num_samples=300, num_classes=4,
                                 feature_dim=10, separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=6, seed=0)
        model = make_logistic(10, 4, seed=0)
        timing = TimingModel(model.dimension, comm_time=10.0)
        interval = SearchInterval(2.0, float(model.dimension))
        sampler = ClientSampler([c.client_id for c in fed.clients],
                                count=3, seed=0)
        trainer = AdaptiveKTrainer(
            model, fed, FABTopK(), SignPolicy(SignOGD(interval)), timing,
            learning_rate=0.1, batch_size=16, sampler=sampler, seed=0,
        )
        initial = trainer.global_loss()
        trainer.run(30)
        record = trainer.history.records[-1]
        assert len(record.contributions) == 3
        assert trainer.history.final_loss < initial
