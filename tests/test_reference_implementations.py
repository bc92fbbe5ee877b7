"""Cross-checks against independent brute-force reference implementations.

These tests re-implement the paper's selection logic in the most literal,
unoptimized way possible and verify the production code matches exactly —
a stronger guarantee than example-based tests.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.partition import ClientDataset, partition_iid
from repro.data.synthetic import make_gaussian_blobs
from repro.fl.backends import ExecutionBackend
from repro.fl.client import Client
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.server import Server
from repro.fl.trainer import FLTrainer
from repro.nn.flat import FlatModel
from repro.nn.layers import (
    BatchNorm1D, Conv2D, Dropout, Linear, MaxPool2D, ReLU, Sequential,
    _col2im, _im2col,
)
from repro.nn.models import make_cnn, make_logistic, make_mlp
from repro.online.adaptive_trainer import AdaptiveKTrainer, _ProbeHooks
from repro.online.algorithm2 import SignOGD
from repro.online.interval import SearchInterval
from repro.online.policy import SignPolicy
from repro.simulation.heterogeneous import ClientSampler
from repro.simulation.timing import TimingModel
from repro.sparsify.base import ClientUpload, SelectionResult, SparseVector
from repro.sparsify import fab_topk
from repro.sparsify.fab_topk import fair_select
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.topk import top_k_indices
from repro import cli
from repro.scenarios import (
    AdaptiveDeadlinePolicy, DeadlineRoundPolicy, ScenarioConfig,
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
    """``fair_select`` as it was before it ranked to depth, verbatim: every
    upload stable-argsorted in full on −|value|."""
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
    fill = candidates[top_k_indices(max_magnitude[candidates], k - base.size)]
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
            uploads, SelectionResult(indices=selected), total_weight=total_weight
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


# ----------------------------------------------------------------------
# Algorithm 1 lines 16–17: the stacked equal-nnz residual reset
# ----------------------------------------------------------------------
class StackedResetBackend(ExecutionBackend):
    """The vectorized backend's former residual reset, verbatim: one
    membership test over the stacked upload indices when every upload has
    the same size, no client carries momentum, and each payload holds its
    client's index array (the same object or an equal copy)."""

    def reset_residuals(self, participants, uploads, selected):
        nnz = uploads[0].payload.nnz if uploads else 0
        fast = all(
            up.payload.nnz == nnz
            and client._velocity is None
            and (
                up.payload.indices is client._last_upload_indices
                or np.array_equal(
                    up.payload.indices, client._last_upload_indices
                )
            )
            for client, up in zip(participants, uploads)
        )
        if not fast or nnz == 0:
            super().reset_residuals(participants, uploads, selected)
            return
        index_matrix = np.stack([up.payload.indices for up in uploads])
        positions = np.searchsorted(selected, index_matrix)
        clipped = np.minimum(positions, selected.size - 1)
        mask = (positions < selected.size) & (selected[clipped] == index_matrix)
        for client, upload, hits in zip(participants, uploads, mask):
            hit_indices = upload.payload.indices[hits]
            client.residual[hit_indices] -= upload.payload.values[hits]


def equal_nnz_round(residuals, nnz, quantized, copied):
    """Fresh clients holding ``residuals``, each having selected its top
    ``nnz``, and their uploads: values rounded away from the residual where
    ``quantized``, indices an equal copy of the client's array where
    ``copied`` (else that very array)."""
    clients, uploads = [], []
    for cid, residual in enumerate(residuals):
        client = Client(
            ClientDataset(cid, np.zeros((1, 1)), np.zeros(1)), residual.size
        )
        client.residual = residual.copy()
        sent = client.select_upload(nnz, FABTopK()).payload
        indices = sent.indices.copy() if copied else sent.indices
        values = np.round(0.75 * sent.values, 1) if quantized else sent.values
        uploads.append(ClientUpload(
            cid, SparseVector.from_sorted(indices, values, residual.size), 1
        ))
        clients.append(client)
    return clients, uploads


class TestResidualResetAgainstStackedReference:
    @pytest.mark.parametrize("copied", [False, True], ids=["shared", "copied"])
    @pytest.mark.parametrize("quantized", [False, True], ids=["exact", "quantized"])
    @pytest.mark.parametrize("j_case", ["disjoint", "covering", "single", "any"])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_per_client_reset_is_byte_equal_to_the_stacked_one(
        self, j_case, quantized, copied, data
    ):
        dimension = data.draw(st.integers(min_value=2, max_value=24))
        nnz = data.draw(st.integers(min_value=1, max_value=dimension))
        residuals = [
            np.array(data.draw(st.lists(
                UPLOAD_VALUES, min_size=dimension, max_size=dimension
            )))
            for _ in range(data.draw(st.integers(min_value=1, max_value=6)))
        ]
        clients, uploads = equal_nnz_round(residuals, nnz, quantized, copied)
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

        expected, expected_uploads = equal_nnz_round(
            residuals, nnz, quantized, copied
        )
        # The stacked path really runs: its preconditions all hold.
        for client, up in zip(expected, expected_uploads):
            assert up.payload.nnz == nnz and client._velocity is None
            assert (up.payload.indices is client._last_upload_indices) != copied
            assert np.array_equal(up.payload.indices, client._last_upload_indices)
        StackedResetBackend().reset_residuals(
            expected, expected_uploads, selected
        )
        ExecutionBackend().reset_residuals(clients, uploads, selected)
        for got, want in zip(clients, expected):
            assert got.residual.tobytes() == want.residual.tobytes()


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


def reference_conv_backward(conv, x, grad_out):
    """``(grad_x, grad_w, grad_b)`` of one serial Conv2D backward."""
    n, c, h, w_in = x.shape
    k, p = conv.kernel_size, conv.padding
    cols = _im2col(x, k, p)
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    grad_w = (g.T @ cols).reshape(conv.params[0].shape)
    grad_b = g.sum(axis=0)
    w_mat = conv.params[0].reshape(conv.out_channels, -1)
    grad_cols = g @ w_mat
    return _col2im(grad_cols, (n, c, h, w_in), k, p), grad_w, grad_b


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
        assert_bytes_equal(relu.forward(x), expected)
        assert_bytes_equal(relu.backward(grad), reference_relu_backward(mask, grad))
        # Grouped: one (G, batch, ...) stack through the same kernels.
        x5, g5 = x.reshape((5, 1) + x.shape[1:]), grad.reshape((5, 1) + x.shape[1:])
        assert_bytes_equal(relu.forward_grouped(x5), expected.reshape(x5.shape))
        grad_in, params = relu.backward_grouped(g5)
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
            assert_bytes_equal(pool.forward(x), expected)
            assert_bytes_equal(
                pool.backward(grad5[g]),
                reference_maxpool_backward(argmax, x.shape, s, grad5[g]),
            )
        # Grouped: the group axis folds into the batch.
        folded = x5.reshape((groups * batch,) + x5.shape[2:])
        expected, argmax = reference_maxpool_forward(folded, s)
        assert_bytes_equal(
            pool.forward_grouped(x5), expected.reshape(grad5.shape)
        )
        grad_in, params = pool.backward_grouped(grad5)
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
        out5 = conv.forward_grouped(x5)
        grad5 = awkward(rng, out5.shape, finite)
        grad_in, (grad_w, grad_b) = conv.backward_grouped(grad5)
        for g in range(groups):
            ref_x, ref_w, ref_b = reference_conv_backward(conv, x5[g], grad5[g])
            conv.forward(x5[g])
            assert_bytes_equal(conv.backward(grad5[g]), ref_x)
            assert_bytes_equal(conv.grads[0], ref_w)
            assert_bytes_equal(conv.grads[1], ref_b)
            assert_bytes_equal(grad_in[g], ref_x)
            assert_bytes_equal(grad_w[g], ref_w)
            assert_bytes_equal(grad_b[g], ref_b)


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
        logits = model.network.forward(x)
        losses.append(float(model.loss.per_sample(logits, y)[0]))
        model.network.train(True)
        model.set_weights(saved)
    return float(np.mean(losses))


def _probe_models(seed):
    """name -> (model, per-sample input shape)."""
    rng = np.random.default_rng(seed)
    norm = BatchNorm1D(7)
    norm.running_mean = rng.standard_normal(7)
    norm.running_var = rng.random(7) + 0.1
    return {
        "mlp": (make_mlp(12, 5, hidden=(7,), seed=seed), (12,)),
        "cnn": (make_cnn(8, 1, 5, conv_channels=(2, 3), dense_width=6,
                         seed=seed), (1, 8, 8)),
        "dropout": (FlatModel(Sequential([
            Linear(12, 7, rng), ReLU(), Dropout(0.5, seed=seed),
            Linear(7, 5, rng),
        ])), (12,)),
        "batchnorm": (FlatModel(Sequential([
            Linear(12, 7, rng), norm, ReLU(), Linear(7, 5, rng),
        ])), (12,)),
    }


#: probe features: ±0, NaN, ±inf and subnormals, plus magnitudes whose
#: logits overflow
PROBE_SPECIALS = np.concatenate([SPECIAL_VALUES, [1e300, -1e300, 1e150]])


class TestProbeLossesAgainstPerClientReference:
    @pytest.mark.parametrize("participants", [1, 4, 9])
    @pytest.mark.parametrize("inputs", ["normal", "awkward"])
    @pytest.mark.parametrize("name", ["mlp", "cnn", "dropout", "batchnorm"])
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
            w_prev=w_prev, w_new=w_new, recorded_k=None,
        )
        hooks = _ProbeHooks(None, 3.0, None, None)
        with np.errstate(all="ignore"):
            # The round's phases, with the model where the engine puts it.
            hooks.after_local_steps(ctx)
            model.set_weights(w_new)
            hooks.w_probe = w_probe
            hooks.after_update(ctx)
            assert model.get_weights().tobytes() == w_new.tobytes()
            assert model.network.training
            expected = [
                reference_probe_reading(model, clients, w)
                for w in (w_prev, w_new, w_probe)
            ]
        got = [hooks.loss_prev, hooks.loss_now, hooks.loss_probe]
        assert [np.float64(v).tobytes() for v in got] == [
            np.float64(v).tobytes() for v in expected
        ]
        if inputs == "normal":
            assert all(np.isfinite(got))


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


class TestPeriodicResidualModes:
    def _setup(self, accumulate):
        ds = make_gaussian_blobs(num_samples=200, num_classes=3,
                                 feature_dim=8, separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=3, seed=0)
        model = make_logistic(8, 3, seed=0)
        sp = PeriodicK(model.dimension, seed=0, accumulate=accumulate)
        trainer = FLTrainer(model, fed, sp, learning_rate=0.05,
                            batch_size=16, seed=0)
        return trainer

    def test_discard_mode_keeps_residual_empty(self):
        trainer = self._setup(accumulate=False)
        trainer.run(5, k=4)
        for client in trainer.clients:
            np.testing.assert_allclose(client.residual, 0.0)

    def test_accumulate_mode_builds_residual(self):
        trainer = self._setup(accumulate=True)
        trainer.run(5, k=4)
        total = sum(np.abs(c.residual).sum() for c in trainer.clients)
        assert total > 0

    def test_accumulate_learns_faster(self):
        # Error accumulation recovers the discarded signal over a period,
        # so at equal rounds it should reach an equal-or-lower loss.
        t_acc = self._setup(accumulate=True)
        t_disc = self._setup(accumulate=False)
        t_acc.run(60, k=4)
        t_disc.run(60, k=4)
        assert t_acc.history.final_loss <= t_disc.history.final_loss * 1.1


class TestHistoryLastEvaluated:
    def test_skips_nan(self):
        h = TrainingHistory()
        h.append(RoundRecord(1, 1.0, 1.0, 1.0, 5.0))
        h.append(RoundRecord(2, 1.0, 1.0, 2.0, float("nan")))
        assert h.last_evaluated_loss == 5.0

    def test_all_nan_raises(self):
        h = TrainingHistory()
        h.append(RoundRecord(1, 1.0, 1.0, 1.0, float("nan")))
        with pytest.raises(ValueError):
            _ = h.last_evaluated_loss


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
