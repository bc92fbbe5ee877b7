"""Tests for the layer-wise sparsifier extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import partition_iid
from repro.data.synthetic import make_gaussian_blobs
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_logistic, make_mlp
from repro.sparsify.layerwise import LayerwiseTopK

RNG = np.random.default_rng(9)


def contiguous_slices(*sizes):
    out, start = [], 0
    for size in sizes:
        out.append(slice(start, start + size))
        start += size
    return out


class TestLayerwiseBudgets:
    def test_proportional_split(self):
        sp = LayerwiseTopK(contiguous_slices(80, 20), split="proportional")
        budgets = sp.budgets(np.zeros(100), k=10)
        assert budgets == [8, 2]

    def test_budgets_sum_to_k(self):
        sp = LayerwiseTopK(contiguous_slices(33, 19, 48))
        for k in (1, 7, 50, 100):
            assert sum(sp.budgets(np.zeros(100), k)) == k

    def test_budget_clamped_to_layer_size(self):
        sp = LayerwiseTopK(contiguous_slices(3, 97))
        budgets = sp.budgets(np.zeros(100), k=50)
        assert budgets[0] <= 3
        assert sum(budgets) == 50

    def test_magnitude_split_follows_residual(self):
        sp = LayerwiseTopK(contiguous_slices(50, 50), split="magnitude")
        residual = np.zeros(100)
        residual[:50] = 10.0   # all the mass in layer 0
        residual[50:] = 0.01
        budgets = sp.budgets(residual, k=10)
        assert budgets[0] > budgets[1]

    def test_magnitude_split_zero_residual_falls_back(self):
        sp = LayerwiseTopK(contiguous_slices(80, 20), split="magnitude")
        budgets = sp.budgets(np.zeros(100), k=10)
        assert budgets == [8, 2]

    def test_k_exceeding_dimension(self):
        sp = LayerwiseTopK(contiguous_slices(5, 5))
        assert sum(sp.budgets(np.zeros(10), k=100)) == 10


class TestLayerwiseSelection:
    def test_client_select_within_layers(self):
        sp = LayerwiseTopK(contiguous_slices(10, 10))
        residual = np.zeros(20)
        residual[3] = 5.0
        residual[15] = 4.0
        residual[16] = 3.0
        idx = sp.client_select(residual, k=2, rng=RNG)
        # Proportional split gives 1 per layer: best of each layer.
        np.testing.assert_array_equal(idx, [3, 15])

    def test_global_topk_would_differ(self):
        # The same residual under a global top-k would pick {3, 15} too
        # with k=2, so use k=3: layerwise forces one from the weak layer.
        sp = LayerwiseTopK(contiguous_slices(10, 10))
        residual = np.zeros(20)
        residual[0], residual[1], residual[2] = 9.0, 8.0, 7.0
        residual[10] = 0.1
        idx = sp.client_select(residual, k=4, rng=RNG)
        assert 10 in idx  # the weak layer still gets its quota

    def test_residual_length_checked(self):
        sp = LayerwiseTopK(contiguous_slices(10, 10))
        with pytest.raises(ValueError):
            sp.client_select(np.zeros(15), k=2, rng=RNG)

    def test_slice_validation(self):
        with pytest.raises(ValueError):
            LayerwiseTopK([])
        with pytest.raises(ValueError):
            LayerwiseTopK([slice(5, 10)])  # not starting at 0
        with pytest.raises(ValueError):
            LayerwiseTopK([slice(0, 5), slice(7, 10)])  # gap
        with pytest.raises(ValueError):
            LayerwiseTopK([slice(0, 0)])  # empty
        with pytest.raises(ValueError):
            LayerwiseTopK(contiguous_slices(5), split="nope")

    def test_integrates_with_flat_model_slices(self):
        model = make_mlp(10, 4, hidden=(6,), seed=0)
        sp = LayerwiseTopK(model.parameter_slices())
        residual = RNG.standard_normal(model.dimension)
        idx = sp.client_select(residual, k=12, rng=RNG)
        assert idx.size == 12

    def test_training_converges(self):
        ds = make_gaussian_blobs(num_samples=300, num_classes=4,
                                 feature_dim=10, separation=4.0, seed=0)
        fed = partition_iid(ds, num_clients=4, seed=0)
        model = make_logistic(10, 4, seed=0)
        sp = LayerwiseTopK(model.parameter_slices())
        trainer = FLTrainer(model, fed, sp, learning_rate=0.1,
                            batch_size=16, seed=0)
        initial = trainer.global_loss()
        trainer.run(50, k=10)
        assert trainer.history.final_loss < initial * 0.8

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_budget_conservation(self, k, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 30, size=rng.integers(1, 5)).tolist()
        sp = LayerwiseTopK(contiguous_slices(*sizes), split="magnitude")
        residual = rng.standard_normal(sum(sizes))
        budgets = sp.budgets(residual, k)
        assert sum(budgets) == min(k, sum(sizes))
        for b, size in zip(budgets, sizes):
            assert 0 <= b <= size

