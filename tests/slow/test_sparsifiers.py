"""The sparsifier kernels at a dimension close to the paper's.

One server selection per GS scheme at D = 400k, N = 50 clients,
k = 1000 — two orders of magnitude above the dimensions tier-1 runs at —
asserting the selection size and FAB-top-k's fairness floor.
"""

import numpy as np
import pytest

from repro.sparsify.base import ClientUpload, SparseVector
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.topk import top_k_indices
from repro.sparsify.unidirectional import UnidirectionalTopK

DIMENSION = 400_000
NUM_CLIENTS = 50
K = 1000


@pytest.fixture(scope="module")
def uploads():
    rng = np.random.default_rng(0)
    out = []
    for cid in range(NUM_CLIENTS):
        dense = rng.standard_normal(DIMENSION)
        idx = top_k_indices(dense, K)
        out.append(
            ClientUpload(
                client_id=cid,
                payload=SparseVector.from_dense(dense, idx),
                sample_count=100,
            )
        )
    return out


def test_client_topk_selection():
    rng = np.random.default_rng(1)
    residual = rng.standard_normal(DIMENSION)
    result = top_k_indices(residual, K)
    assert result.size == K


def test_fab_topk_server_selection(uploads):
    sparsifier = FABTopK()
    result = sparsifier.server_select(uploads, K, DIMENSION)
    assert result.indices.size == K
    # Fairness floor: every client contributed at least floor(k/N).
    assert min(result.contributions.values()) >= K // NUM_CLIENTS


def test_fub_topk_server_selection(uploads):
    sparsifier = FUBTopK()
    result = sparsifier.server_select(uploads, K, DIMENSION)
    assert result.indices.size == K


def test_unidirectional_server_selection(uploads):
    sparsifier = UnidirectionalTopK()
    result = sparsifier.server_select(uploads, K, DIMENSION)
    # Random uploads rarely collide: union close to k*N.
    assert result.indices.size > 0.9 * K * NUM_CLIENTS
