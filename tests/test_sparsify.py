"""Tests for the sparsification package.

The key properties tested here are the ones the paper claims:

- FAB-top-k returns exactly min(k, |union of uploads|) indices.
- Fairness: every client's top-⌊k/N⌋ uploaded indices appear in the
  selection (hence each client contributes at least ⌊k/N⌋ elements).
- FUB-top-k can starve a client entirely; FAB cannot.
- Unidirectional downlink grows up to k·N.
- Periodic-k covers every coordinate within ⌈D/k⌉ rounds.
"""

import ast
import contextlib
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsify import topk
from repro.sparsify.base import ClientUpload, SelectionResult, SparseVector
from repro.sparsify.fab_topk import FABTopK, fair_select
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.topk import ranked_indices, top_k_indices
from repro.sparsify.unidirectional import UnidirectionalTopK

from helpers import to_dense

RNG = np.random.default_rng(3)


def make_upload(client_id, dense, k, weight=1):
    dense = np.asarray(dense, dtype=float)
    idx = top_k_indices(dense, k)
    return ClientUpload(
        client_id=client_id,
        payload=SparseVector.from_dense(dense, idx),
        sample_count=weight,
    )


#: value alphabets for the ranking prefix: magnitude ties, the IEEE
#: specials (NaN, ±inf, ±0), one magnitude throughout
RANKING_ALPHABETS = {
    "ties": [-1.0, 0.0, 0.25, 1.0],
    "specials": [-1.0, -0.0, 0.0, 0.25, 1.0, np.nan, np.inf, -np.inf],
    "all_equal": [-0.5, 0.5],
}


def lexsort_top_k(v, k):
    """The reference: the first k of (|value| desc, index asc), NaN last
    (``np.lexsort`` sorts NaN after every number), as an ascending set."""
    order = np.lexsort((np.arange(v.shape[0]), -np.abs(v)))
    return np.sort(order[: max(0, k)])


class TestTopKIndices:
    def test_basic(self):
        v = np.array([0.1, -5.0, 3.0, 0.0, 4.0])
        np.testing.assert_array_equal(top_k_indices(v, 2), [1, 4])

    def test_k_zero_and_negative(self):
        v = np.array([1.0, 2.0])
        assert top_k_indices(v, 0).size == 0
        assert top_k_indices(v, -3).size == 0

    def test_k_ge_n_returns_all(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(top_k_indices(v, 5), [0, 1, 2])

    def test_tie_break_by_index(self):
        v = np.array([2.0, -2.0, 2.0, 1.0])
        np.testing.assert_array_equal(top_k_indices(v, 2), [0, 1])

    def test_uses_absolute_value(self):
        v = np.array([-10.0, 1.0, 2.0])
        assert 0 in top_k_indices(v, 1)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_sort(self, k, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(137)
        np.testing.assert_array_equal(top_k_indices(v, k), lexsort_top_k(v, k))

    def test_ranked_indices_order(self):
        v = np.array([1.0, -3.0, 2.0])
        np.testing.assert_array_equal(ranked_indices(v, 3), [1, 2, 0])

    def test_ranked_indices_limit(self):
        v = RNG.standard_normal(50)
        assert ranked_indices(v, limit=5).size == 5

    # ------------------------------------------------------------------
    # The argpartition prefilter must return byte-identical index sets to
    # the full lexsort reference — including on adversarial inputs where
    # the k-boundary is one big magnitude tie.
    # ------------------------------------------------------------------
    @given(
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_under_duplicate_magnitudes(self, k, seed):
        rng = np.random.default_rng(seed)
        # Values drawn from a tiny alphabet: ties everywhere, including
        # sign pairs (+1/-1) with equal magnitude and exact zeros.
        v = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=61)
        np.testing.assert_array_equal(
            top_k_indices(v, k), lexsort_top_k(v, k)
        )

    def test_all_equal_magnitudes_pick_lowest_indices(self):
        v = -np.ones(40)
        np.testing.assert_array_equal(top_k_indices(v, 7), np.arange(7))

    @pytest.mark.parametrize("k", [0, 1, 6, 29, 30, 31, 100])
    def test_batched_matches_lexsort_on_ties(self, k):
        # Per-row selection over a tie-heavy matrix: what every backend
        # runs for a cohort's residuals.
        rng = np.random.default_rng(9)
        values = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(13, 30))
        for row in values:
            np.testing.assert_array_equal(
                top_k_indices(row, k), lexsort_top_k(row, k)
            )

    @given(
        st.integers(min_value=0, max_value=35),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(sorted(RANKING_ALPHABETS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_ranked_indices_limit_is_exact_prefix(self, limit, seed, alphabet):
        # The prefix of the full stable sort on -|v|, also where a
        # partition and a sort disagree: argpartition puts NaN on top,
        # the sort puts it last.
        rng = np.random.default_rng(seed)
        v = rng.choice(RANKING_ALPHABETS[alphabet], size=33)
        full = np.argsort(-np.abs(v), kind="stable")
        got = ranked_indices(v, limit=limit)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, full[:limit])

    @pytest.mark.parametrize("nans", [1, 2])
    def test_nan_ranks_below_every_magnitude(self, nans):
        # A NaN used to take a slot of k without being returned, so each
        # one shortened the upload by an index.
        v = np.random.default_rng(5).standard_normal(1_000)
        v[[17, 600][:nans]] = np.nan
        expected = lexsort_top_k(v, 10)
        assert expected.size == 10 and not np.isnan(v[expected]).any()
        np.testing.assert_array_equal(top_k_indices(v, 10), expected)
        np.testing.assert_array_equal(
            FABTopK().client_select(v, 10), expected
        )

    def test_nan_is_selected_only_after_every_number(self):
        v = np.array([np.nan, 1.0, np.nan, -0.0, 2.0])
        np.testing.assert_array_equal(top_k_indices(v, 4), [0, 1, 3, 4])
        np.testing.assert_array_equal(top_k_indices(np.full(6, np.nan), 2), [0, 1])


def residual_like(n, seed):
    """A client residual's shape: a random walk (neighbouring coordinates
    alike) times heavy-tailed t(3) noise."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n)) * rng.standard_t(3, n)


@contextlib.contextmanager
def sampled_thresholds():
    """Record how many candidates each sampled threshold kept; a call
    that kept fewer than k fell back to the full vector."""
    seen = []
    candidates = topk._candidates

    def spy(magnitude, k):
        kept = candidates(magnitude, k)
        seen.append(kept.size)
        return kept

    with mock.patch.object(topk, "_candidates", spy):
        yield seen


@st.composite
def gated_vectors(draw):
    """``(v, k, forces_fallback)`` at lengths from just below the sampled
    threshold's gate to the paper's D, with k on both sides of its k/n
    gate.  Values come from one :data:`RANKING_ALPHABETS` family, either
    everywhere or sprinkled over a rounded normal background (heavy ties
    at any k-th magnitude).  Spiked vectors carry distinct large values
    on exactly the sampled entries, which leaves the threshold fewer than
    k candidates (for k >= 3) whenever the family holds no inf."""
    n = draw(st.one_of(
        st.integers(topk._SAMPLE_MIN_N - 2, topk._SAMPLE_MIN_N + 2),
        st.integers(topk._SAMPLE_MIN_N, 430_000),
    ))
    k = draw(st.integers(min_value=0, max_value=n // 16))
    alphabet = draw(st.sampled_from(sorted(RANKING_ALPHABETS)))
    density = draw(st.sampled_from([1.0, 0.01]))
    spiked = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    v = np.round(rng.standard_normal(n), 2)
    mask = rng.random(n) < density
    v[mask] = rng.choice(RANKING_ALPHABETS[alphabet], size=int(mask.sum()))
    if spiked:
        spikes = v[:: topk._SAMPLE_STRIDE]
        spikes[:] = 10.0 + rng.permutation(spikes.size)
    return v, k, spiked and alphabet != "specials"


class TestSampledThreshold:
    """The sampled-threshold prefilter against the lexsort reference, at
    lengths that reach it (the tests above stay below its gate)."""

    @given(gated_vectors())
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_on_both_branches(self, case):
        v, k, forces_fallback = case
        n = v.shape[0]
        with sampled_thresholds() as seen:
            got = top_k_indices(v, k)
        assert got.dtype == np.int64
        assert got.tobytes() == lexsort_top_k(v, k).tobytes()
        gated = n >= topk._SAMPLE_MIN_N and 0 < k * topk._SAMPLE_MIN_N_PER_K <= n
        assert len(seen) == gated
        if gated and forces_fallback and k >= 3:
            assert seen[0] < k

    def test_both_branches_run(self):
        # Non-vacuity: the sampled branch answers on a residual-like
        # vector, and spikes on the sampled entries force the fallback.
        spiked = np.round(residual_like(40_000, 1), 1)
        spikes = spiked[:: topk._SAMPLE_STRIDE]
        spikes[:] = 1e6 + np.arange(spikes.size)
        with sampled_thresholds() as seen:
            for v, k in [(np.random.default_rng(0).standard_normal(92_662), 772), (spiked, 100)]:
                assert top_k_indices(v, k).tobytes() == lexsort_top_k(v, k).tobytes()
        assert seen[0] >= 772 and seen[1] < 100

    def test_nan_in_the_sample(self):
        # NaN fails every |v| >= tau, so a NaN-heavy sample falls back and
        # a sparse one still answers from its candidates.
        for stride_nans, expect_fallback in [(1, True), (200, False)]:
            v = np.random.default_rng(3).standard_normal(92_662)
            v[:: topk._SAMPLE_STRIDE * stride_nans] = np.nan
            with sampled_thresholds() as seen:
                got = top_k_indices(v, 2_000)
            assert got.tobytes() == lexsort_top_k(v, 2_000).tobytes()
            assert (seen[0] < 2_000) == expect_fallback

    @pytest.mark.parametrize("k, sampled", [(1_100, True), (4_300, True), (43_000, False)])
    def test_byte_equal_at_paper_geometry(self, k, sampled):
        # D = 430k (the paper's MLP); k/n = 1/10 keeps the exact path.
        v = residual_like(430_000, k)
        with sampled_thresholds() as seen:
            got = top_k_indices(v, k)
        assert got.tobytes() == lexsort_top_k(v, k).tobytes()
        assert [kept >= k for kept in seen] == ([True] if sampled else [])


class TestSparseVector:
    def test_dense_roundtrip(self):
        dense = np.array([0.0, 1.5, 0.0, -2.0])
        sv = SparseVector.from_dense(dense, np.array([1, 3]))
        np.testing.assert_allclose(to_dense(sv), [0.0, 1.5, 0.0, -2.0])

    def test_sorts_indices(self):
        sv = SparseVector(np.array([3, 1]), np.array([30.0, 10.0]), 5)
        np.testing.assert_array_equal(sv.indices, [1, 3])
        np.testing.assert_array_equal(sv.values, [10.0, 30.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([1, 1]), np.array([1.0, 2.0]), 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([5]), np.array([1.0]), 5)
        with pytest.raises(ValueError):
            SparseVector(np.array([-1]), np.array([1.0]), 5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([1, 2]), np.array([1.0]), 5)

    def test_nnz(self):
        sv = SparseVector(np.array([0, 2]), np.array([1.0, 2.0]), 4)
        assert sv.nnz == 2


class TestSelectionResult:
    def test_sorts_and_defaults(self):
        # Sorted J, its position map, and each uploader's |J ∩ J_i|.
        uploads = [
            ClientUpload(cid, SparseVector(np.array(idx), np.ones(len(idx)), 6), 1)
            for cid, idx in ((7, [0, 2, 3]), (9, [5]))
        ]
        r = SelectionResult(np.array([4, 1, 2]), uploads, 6)
        np.testing.assert_array_equal(r.indices, [1, 2, 4])
        assert r.indices.dtype == np.int64
        np.testing.assert_array_equal(r.position, [-1, 0, 1, -1, 2, -1])
        assert r.contributions == {7: 1, 9: 0}
        with pytest.raises(ValueError):
            r.position[0] = 3  # one map, read by every consumer

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SelectionResult(np.array([1, 1]), [], 6)

    @pytest.mark.parametrize("indices", [[-1, 2], [2, 6]])
    def test_out_of_range_rejected(self, indices):
        with pytest.raises(ValueError, match="range"):
            SelectionResult(np.array(indices), [], 6)


class TestClientUpload:
    def test_positive_weight_required(self):
        sv = SparseVector(np.array([0]), np.array([1.0]), 3)
        with pytest.raises(ValueError):
            ClientUpload(client_id=0, payload=sv, sample_count=0)


class TestFABTopK:
    def test_exact_k_selected(self):
        d = 40
        uploads = [make_upload(i, RNG.standard_normal(d), 10) for i in range(4)]
        result = FABTopK().server_select(uploads, k=10, dimension=d)
        assert result.indices.size == 10

    def test_union_smaller_than_k(self):
        d = 20
        dense = np.zeros(d)
        dense[:3] = [5.0, -4.0, 3.0]
        uploads = [make_upload(i, dense, 3) for i in range(3)]  # same 3 indices
        result = FABTopK().server_select(uploads, k=10, dimension=d)
        np.testing.assert_array_equal(result.indices, [0, 1, 2])

    def test_fairness_floor(self):
        # Client 0 has huge values, clients 1..3 small ones; FAB must still
        # include each client's top-⌊k/N⌋ elements.
        d, k, n = 100, 8, 4
        quota = k // n
        uploads = []
        for i in range(n):
            dense = np.zeros(d)
            block = slice(i * 20, i * 20 + 10)
            scale = 1000.0 if i == 0 else 0.01
            dense[block] = scale * (1 + RNG.random(10))
            uploads.append(make_upload(i, dense, k))
        result = FABTopK().server_select(uploads, k=k, dimension=d)
        for up in uploads:
            ranked = up.payload.indices[ranked_indices(up.payload.values, quota)]
            top_quota = set(ranked[:quota].tolist())
            assert top_quota <= set(result.indices.tolist()), (
                f"client {up.client_id} top-{quota} not all selected"
            )
            assert result.contributions[up.client_id] >= quota

    def test_fub_starves_but_fab_does_not(self):
        d, k = 60, 6
        uploads = []
        for i in range(3):
            dense = np.zeros(d)
            scale = 100.0 if i == 0 else 0.1
            dense[i * 20 : i * 20 + 6] = scale * (1 + RNG.random(6))
            uploads.append(make_upload(i, dense, 6))
        fab = FABTopK().server_select(uploads, k=k, dimension=d)
        fub = FUBTopK().server_select(uploads, k=k, dimension=d)
        assert min(fab.contributions.values()) >= k // 3
        assert min(fub.contributions.values()) == 0  # client starved

    def test_fill_uses_largest_leftover(self):
        # Two clients, k=3: κ=1 gives union size 2, fill one more from
        # κ=2 layer; the larger second-ranked value must win.
        d = 10
        a = np.zeros(d)
        a[0], a[1] = 10.0, 9.0   # client 0: ranks [0, 1]
        b = np.zeros(d)
        b[5], b[6] = 10.0, 1.0   # client 1: ranks [5, 6]
        uploads = [make_upload(0, a, 2), make_upload(1, b, 2)]
        selected = fair_select(uploads, k=3)
        np.testing.assert_array_equal(selected, [0, 1, 5])

    def test_fill_ranks_nan_after_every_number(self):
        # κ* = 3 takes six coordinates; the two NaN uploads tie for the
        # last slot, which goes to the lower index (it used to stay empty).
        uploads = [
            ClientUpload(cid, SparseVector(
                np.arange(4) + 4 * cid, np.array([np.nan, 3.0, 2.0, 1.0]), 8
            ), 1)
            for cid in range(2)
        ]
        result = FABTopK().server_select(uploads, k=7, dimension=8)
        np.testing.assert_array_equal(result.indices, [0, 1, 2, 3, 5, 6, 7])

    def test_single_client_equals_topk(self):
        d = 30
        dense = RNG.standard_normal(d)
        uploads = [make_upload(0, dense, 7)]
        result = FABTopK().server_select(uploads, k=7, dimension=d)
        np.testing.assert_array_equal(result.indices, top_k_indices(dense, 7))

    def test_invalid_k(self):
        uploads = [make_upload(0, RNG.standard_normal(10), 2)]
        with pytest.raises(ValueError):
            FABTopK().server_select(uploads, k=0, dimension=10)
        with pytest.raises(ValueError):
            FABTopK().server_select(uploads, k=11, dimension=10)

    def test_no_uploads(self):
        with pytest.raises(ValueError):
            FABTopK().server_select([], k=1, dimension=10)

    @given(
        st.integers(min_value=2, max_value=6),   # clients
        st.integers(min_value=1, max_value=25),  # k
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_size_and_fairness(self, n_clients, k, seed):
        d = 50
        rng = np.random.default_rng(seed)
        uploads = [
            make_upload(i, rng.standard_normal(d), min(k, d)) for i in range(n_clients)
        ]
        result = FABTopK().server_select(uploads, k=k, dimension=d)
        union = np.unique(np.concatenate([u.payload.indices for u in uploads]))
        assert result.indices.size == min(k, union.size)
        assert set(result.indices.tolist()) <= set(union.tolist())
        quota = k // n_clients
        for up in uploads:
            assert result.contributions[up.client_id] >= min(
                quota, up.payload.nnz
            )


class TestFUBTopK:
    def test_selects_k_largest_aggregates(self):
        d = 20
        a = np.zeros(d)
        a[0], a[1] = 1.0, 1.0
        b = np.zeros(d)
        b[0], b[2] = 1.0, -0.5
        uploads = [make_upload(0, a, 2), make_upload(1, b, 2)]
        result = FUBTopK().server_select(uploads, k=2, dimension=d)
        # Aggregates: j0 = 1.0, j1 = 0.5, j2 = -0.25 -> keep {0, 1}
        np.testing.assert_array_equal(result.indices, [0, 1])

    def test_weighted_aggregation(self):
        d = 10
        a = np.zeros(d)
        a[0] = 1.0
        b = np.zeros(d)
        b[1] = 1.0
        # Client 1's weight dominates, so index 1 must be kept at k=1.
        uploads = [make_upload(0, a, 1, weight=1), make_upload(1, b, 1, weight=9)]
        result = FUBTopK().server_select(uploads, k=1, dimension=d)
        np.testing.assert_array_equal(result.indices, [1])

    def test_union_smaller_than_k(self):
        d = 10
        a = np.zeros(d)
        a[3] = 2.0
        uploads = [make_upload(0, a, 1)]
        result = FUBTopK().server_select(uploads, k=5, dimension=d)
        np.testing.assert_array_equal(result.indices, [3])

    def test_equal_aggregates_tie_break_by_index_not_arrival(self):
        # {5: 1.0} arrives before {2: 1.0}; like every other selector the
        # tie goes to the lowest index, not to whoever uploaded first.
        d = 8
        first = ClientUpload(0, SparseVector(np.array([5]), np.array([1.0]), d), 1)
        second = ClientUpload(1, SparseVector(np.array([2]), np.array([1.0]), d), 1)
        result = FUBTopK().server_select([first, second], k=1, dimension=d)
        np.testing.assert_array_equal(result.indices, [2])
        assert result.contributions == {0: 0, 1: 1}


class TestUnidirectionalTopK:
    def test_downlink_is_union(self):
        d = 40
        uploads = []
        for i in range(4):
            dense = np.zeros(d)
            dense[i * 10 : i * 10 + 3] = 1.0 + RNG.random(3)
            uploads.append(make_upload(i, dense, 3))
        result = UnidirectionalTopK().server_select(uploads, k=3, dimension=d)
        assert result.indices.size == 12  # disjoint -> k*N
        assert result.contributions == {i: 3 for i in range(4)}

    def test_overlapping_uploads_shrink_union(self):
        d = 20
        dense = np.zeros(d)
        dense[:3] = [3.0, 2.0, 1.0]
        uploads = [make_upload(i, dense, 3) for i in range(5)]
        result = UnidirectionalTopK().server_select(uploads, k=3, dimension=d)
        assert result.indices.size == 3


class TestPeriodicK:
    def test_selects_k_random_coordinates(self):
        p = PeriodicK(dimension=30, seed=0)
        idx = p.start_round(5)
        assert idx.size == 5
        assert np.unique(idx).size == 5

    def test_full_coverage_within_period(self):
        d, k = 24, 5
        p = PeriodicK(dimension=d, seed=1)
        seen = set()
        for _ in range(int(np.ceil(d / k))):
            seen.update(p.start_round(k).tolist())
        assert seen == set(range(d))

    def test_same_for_all_clients(self):
        p = PeriodicK(dimension=20, seed=2)
        p.start_round(4)
        a = p.client_select(RNG.standard_normal(20), 4)
        b = p.client_select(RNG.standard_normal(20), 4)
        np.testing.assert_array_equal(a, b)

    def test_server_select_consumes_round(self):
        d = 20
        p = PeriodicK(dimension=d, seed=3)
        idx = p.start_round(4)
        dense = RNG.standard_normal(d)
        uploads = [
            ClientUpload(0, SparseVector.from_dense(dense, idx), 1),
        ]
        result = p.server_select(uploads, k=4, dimension=d)
        np.testing.assert_array_equal(result.indices, np.sort(idx))
        # The next round's first client draw takes the permutation's next
        # 4 coordinates: 2k <= d, so it does not wrap and shares none
        # with this round's.  A round set server_select failed to clear
        # would be handed out again.
        idx2 = p.client_select(dense, 4)
        assert idx2.size == 4
        assert np.intersect1d(idx, idx2).size == 0

    def test_server_before_client_raises(self):
        p = PeriodicK(dimension=10)
        sv = SparseVector(np.array([0]), np.array([1.0]), 10)
        with pytest.raises(RuntimeError):
            p.server_select([ClientUpload(0, sv, 1)], k=1, dimension=10)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            PeriodicK(dimension=0)


# ----------------------------------------------------------------------
# Tooling: keep the server's set operations one path
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
ONE_PATH_FILES = sorted((SRC / "sparsify").glob("*.py")) + [
    SRC / "fl" / "server.py", SRC / "fl" / "backends.py",
    SRC / "parallel" / "sharded.py",
]
#: a Client's last index set, private to fl/client.py
CLIENT_PRIVATE = {"_last_upload_indices"}


def _is_payload_nnz(node):
    return (
        isinstance(node, ast.Attribute) and node.attr == "nnz"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "payload"
    )


def _forked_paths(tree):
    """``(lineno, what)`` for each idiom that forks selection/aggregation
    into a rectangular fast path beside a ragged fallback."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            _is_payload_nnz(side) for side in (node.left, *node.comparators)
        ):
            found.append((node.lineno, "payload.nnz comparison"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isinstance" and any(
            isinstance(sub, ast.Attribute) and sub.attr == "ndarray"
            for sub in ast.walk(node.args[1])
        ):
            found.append((node.lineno, "isinstance(..., np.ndarray) dispatch"))
        if isinstance(func, ast.Attribute) and func.attr == "stack":
            found.append((node.lineno, "np.stack(...)"))
    return found


def _comparison_sorts(tree):
    """``(lineno, what)`` for each comparison sort or unbuffered scatter
    the robust aggregation gave up: ``np.lexsort``, ``np.add.at`` and a
    ``searchsorted`` inside a ``for`` loop."""
    found = []
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name.endswith("lexsort") or name.endswith("add.at"):
            found.append((node.lineno, name))
        if name.endswith("searchsorted") and any(
            node in ast.walk(loop) for loop in loops
        ):
            found.append((node.lineno, f"{name} in a for loop"))
    return found


class TestOneDensePass:
    def test_no_rectangular_fork_in_selection_or_aggregation(self):
        offenders = [
            f"{path.relative_to(SRC).as_posix()}:{lineno} {what}"
            for path in ONE_PATH_FILES
            for lineno, what in _forked_paths(ast.parse(path.read_text()))
        ]
        assert offenders == [], (
            "FAB selection, contribution counts and the weighted mean are "
            "one per-upload pass over dense D-vectors; no equal-size "
            "precondition, type dispatch or stacking of uploads: "
            + "; ".join(offenders)
        )

    def test_the_lint_sees_what_it_forbids(self):
        # Guard against a vacuous lint: the kernels' files are in its
        # scope and each forbidden idiom is recognised.
        assert {
            "fab_topk.py", "fub_topk.py", "server.py", "backends.py",
            "sharded.py",
        } <= {path.name for path in ONE_PATH_FILES}
        idioms = _forked_paths(ast.parse(
            "if nnz > 0 and all(up.payload.nnz == nnz for up in uploads):\n"
            "    m = np.stack([up.payload.indices for up in uploads])\n"
            "if isinstance(ranked, np.ndarray) or n != up.payload.nnz:\n"
            "    pass\n"
        ))
        assert sorted(what for _, what in idioms) == [
            "isinstance(..., np.ndarray) dispatch", "np.stack(...)",
            "payload.nnz comparison", "payload.nnz comparison",
        ]

    def test_robust_aggregation_takes_no_comparison_sort(self):
        # The coordinate view orders hits by radix and SIMD sorts over a
        # dense J-position map; flags and cosine sums accumulate with
        # np.bincount.
        path = SRC / "fl" / "robust.py"
        offenders = _comparison_sorts(ast.parse(path.read_text()))
        assert offenders == [], offenders
        idioms = _comparison_sorts(ast.parse(
            "order = np.lexsort((values, pos))\n"
            "np.add.at(flags, rows, 1.0)\n"
            "starts = np.searchsorted(pos, np.arange(n))\n"
            "for row, up in enumerate(uploads):\n"
            "    hit = np.searchsorted(selected, up.payload.indices)\n"
        ))
        assert [what for _, what in idioms] == [
            "np.lexsort", "np.add.at", "np.searchsorted in a for loop",
        ]

    def test_one_local_step_and_client_state_stays_in_the_client(self):
        # Backends differ only in how gradients are computed: the step
        # (accumulate, select, probe) and the residual reset are written
        # once, and nothing outside the client reaches into its state.
        steps, reaches = [], []
        for path in sorted(SRC.rglob("*.py")):
            name = path.relative_to(SRC).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    steps += [
                        f"{name}:{node.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "local_steps"
                    ]
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in CLIENT_PRIVATE
                    and name != "fl/client.py"
                    and not (
                        isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    )
                ):
                    reaches.append(f"{name}:{node.lineno} .{node.attr}")
        assert steps == ["fl/backends.py:ExecutionBackend"], steps
        assert reaches == [], "; ".join(reaches)
