"""Tests for the contraction analysis tooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contraction import (
    contraction_coefficient,
    empirical_contraction,
    gradient_concentration,
    topk_contraction_bound,
)

from helpers import make_gaussian_blobs, make_logistic

RNG = np.random.default_rng(13)


class TestContractionBound:
    def test_values(self):
        assert topk_contraction_bound(1, 4) == pytest.approx(0.75)
        assert topk_contraction_bound(4, 4) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            topk_contraction_bound(0, 4)
        with pytest.raises(ValueError):
            topk_contraction_bound(5, 4)


class TestContractionCoefficient:
    def test_uniform_vector_hits_bound(self):
        x = np.ones(10)
        assert contraction_coefficient(x, 3) == pytest.approx(0.7)

    def test_sparse_vector_zero(self):
        x = np.zeros(10)
        x[2], x[7] = 3.0, -1.0
        assert contraction_coefficient(x, 2) == 0.0

    def test_zero_vector(self):
        assert contraction_coefficient(np.zeros(5), 2) == 0.0

    def test_heavy_tail_contracts_faster_than_bound(self):
        # Exponentially decaying magnitudes: top 10% carries most energy.
        x = np.exp(-np.arange(100) / 5.0)
        measured = contraction_coefficient(x, 10)
        assert measured < 0.1 < topk_contraction_bound(10, 100)

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_bound(self, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(50)
        assert contraction_coefficient(x, k) <= (
            topk_contraction_bound(k, 50) + 1e-12
        )


class TestEmpiricalContraction:
    def test_statistics(self):
        vectors = [RNG.standard_normal(20) for _ in range(5)]
        stats = empirical_contraction(vectors, k=5)
        assert 0 <= stats["mean"] <= stats["max"] <= stats["bound"] + 1e-12
        assert stats["dimension"] == 20

    def test_matrix_input(self):
        stats = empirical_contraction(RNG.standard_normal((4, 15)), k=3)
        assert stats["k"] == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_contraction([], k=1)

    def test_real_gradient_beats_worst_case(self):
        ds = make_gaussian_blobs(num_samples=100, num_classes=3,
                                 feature_dim=8, separation=4.0, seed=0)
        model = make_logistic(8, 3, seed=0)
        grads = []
        for _ in range(5):
            grad = model.gradient(ds.x, ds.y)
            model.set_weights(model.get_weights() - 0.1 * grad)
            grads.append(grad)
        k = model.dimension // 10
        stats = empirical_contraction(grads, k=k)
        assert stats["mean"] < stats["bound"]


class TestGradientConcentration:
    def test_flat_gradient(self):
        g = np.ones(1000)
        conc = gradient_concentration(g, fractions=(0.1,))
        assert conc[0.1] == pytest.approx(0.1, rel=0.01)

    def test_concentrated_gradient(self):
        g = np.zeros(1000)
        g[:10] = 100.0
        g[10:] = 0.001
        conc = gradient_concentration(g, fractions=(0.01,))
        assert conc[0.01] > 0.99

    def test_zero_gradient(self):
        conc = gradient_concentration(np.zeros(10), fractions=(0.5,))
        assert conc[0.5] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gradient_concentration(np.ones(10), fractions=(0.0,))
