"""Tests for losses, initializers, FlatModel, and the model zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.flat import FlatModel
from repro.nn.init import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import make_cnn, make_mlp

from helpers import make_logistic

RNG = np.random.default_rng(11)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        targets = np.array([0, 1])
        assert loss.forward(logits, targets) < 1e-6

    def test_uniform_logits_log_classes(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 8))
        targets = np.array([0, 1, 2, 3])
        assert loss.forward(logits, targets) == pytest.approx(np.log(8))

    def test_numeric_gradient(self):
        loss = SoftmaxCrossEntropy()
        logits = RNG.standard_normal((5, 4))
        targets = np.array([0, 1, 2, 3, 0])
        grad = loss.backward(logits.copy()[None], targets[None])[0]
        eps = 1e-6
        for i in range(5):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num = (loss.forward(lp, targets) - loss.forward(lm, targets)) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-6)

    def test_large_logits_stable(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        value = loss.forward(logits, np.array([0, 1]))
        assert np.isfinite(value)
        assert value < 1e-6

    def test_per_sample_matches_mean(self):
        loss = SoftmaxCrossEntropy()
        logits = RNG.standard_normal((6, 3))
        targets = RNG.integers(0, 3, 6)
        per = loss.per_sample(logits, targets)
        assert per.shape == (6,)
        assert per.mean() == pytest.approx(loss.forward(logits, targets))

    def test_predict(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[1.0, 3.0, 2.0], [5.0, 0.0, 1.0]])
        np.testing.assert_array_equal(loss.predict(logits), [1, 0])


class TestInitializers:
    def test_glorot_bounds(self):
        w = glorot_uniform((100, 50), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)

    def test_he_std(self):
        w = he_normal((10_000, 4), np.random.default_rng(0))
        assert w.std() == pytest.approx(np.sqrt(2.0 / 10_000), rel=0.1)

    def test_zeros(self):
        np.testing.assert_allclose(zeros_init((3, 3), np.random.default_rng(0)), 0.0)

    def test_conv_fan_shapes(self):
        w = glorot_uniform((8, 4, 3, 3), np.random.default_rng(0))
        assert w.shape == (8, 4, 3, 3)

    def test_unsupported_shape_raises(self):
        with pytest.raises(ValueError):
            glorot_uniform((2, 2, 2), np.random.default_rng(0))

    def test_determinism(self):
        a = glorot_uniform((5, 5), np.random.default_rng(42))
        b = glorot_uniform((5, 5), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestFlatModel:
    def _model(self, seed=0):
        rng = np.random.default_rng(seed)
        net = Sequential([Linear(6, 5, rng), ReLU(), Linear(5, 3, rng)])
        return FlatModel(net)

    def test_dimension(self):
        model = self._model()
        assert model.dimension == 6 * 5 + 5 + 5 * 3 + 3

    def test_get_set_roundtrip(self):
        model = self._model()
        w = model.get_weights()
        new = RNG.standard_normal(model.dimension)
        model.set_weights(new)
        np.testing.assert_allclose(model.get_weights(), new)
        model.set_weights(w)
        np.testing.assert_allclose(model.get_weights(), w)

    def test_set_weights_shape_check(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.set_weights(np.zeros(model.dimension + 1))

    def test_gradient_matches_finite_difference(self):
        model = self._model(3)
        x = RNG.standard_normal((4, 6))
        y = np.array([0, 1, 2, 0])
        grad = model.gradient(x, y)
        w = model.get_weights()
        eps = 1e-6
        idx = RNG.choice(model.dimension, size=12, replace=False)
        for i in idx:
            wp = w.copy()
            wp[i] += eps
            wm = w.copy()
            wm[i] -= eps
            num = (model.loss_at(wp, x, y) - model.loss_at(wm, x, y)) / (2 * eps)
            assert grad[i] == pytest.approx(num, abs=1e-6)

    def test_loss_at_restores_weights(self):
        model = self._model()
        x = RNG.standard_normal((4, 6))
        y = np.array([0, 1, 2, 0])
        w = model.get_weights()
        model.loss_at(RNG.standard_normal(model.dimension), x, y)
        np.testing.assert_allclose(model.get_weights(), w)

    def test_per_sample_losses_at(self):
        model = self._model()
        x = RNG.standard_normal((4, 6))
        y = np.array([0, 1, 2, 0])
        other = RNG.standard_normal(model.dimension)
        per = model.per_sample_losses_at(other, x, y)
        assert per.shape == (4,)
        assert per.mean() == pytest.approx(model.loss_at(other, x, y))

    def test_accuracy(self):
        model = self._model()
        x = RNG.standard_normal((30, 6))
        y = RNG.integers(0, 3, 30)
        acc = model.accuracy(x, y)
        assert 0.0 <= acc <= 1.0

    def test_sgd_step_decreases_loss(self):
        model = self._model(1)
        x = RNG.standard_normal((16, 6))
        y = RNG.integers(0, 3, 16)
        before = model.loss_value(x, y)
        grad = model.gradient(x, y)
        model.set_weights(model.get_weights() - 0.05 * grad)
        assert model.loss_value(x, y) < before

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_gradient_dimension_invariant(self, seed):
        model = self._model(seed % 100)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 6))
        y = rng.integers(0, 3, 3)
        grad = model.gradient(x, y)
        assert grad.shape == (model.dimension,)
        assert np.all(np.isfinite(grad))


class TestModelZoo:
    def test_mlp_dimension(self):
        model = make_mlp(784, 62, hidden=(64,))
        assert model.dimension == 784 * 64 + 64 + 64 * 62 + 62

    def test_logistic_dimension(self):
        model = make_logistic(20, 5)
        assert model.dimension == 20 * 5 + 5

    def test_cnn_forward_shape(self):
        model = make_cnn(image_size=8, channels=1, num_classes=4,
                         conv_channels=(2, 4), dense_width=8)
        x = RNG.standard_normal((2, 1, 8, 8))
        logits = model.network.forward(x[None])
        assert logits.shape == (1, 2, 4)

    def test_cnn_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            make_cnn(image_size=10, channels=1, num_classes=4)

    def test_cnn_trains(self):
        model = make_cnn(image_size=8, channels=1, num_classes=2,
                         conv_channels=(2, 2), dense_width=4, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 1, 8, 8))
        y = (x.mean(axis=(1, 2, 3)) > 0).astype(int)
        before = model.loss_value(x, y)
        for _ in range(30):
            grad = model.gradient(x, y)
            model.set_weights(model.get_weights() - 0.1 * grad)
        assert model.loss_value(x, y) < before

    def test_seed_reproducibility(self):
        a = make_mlp(10, 3, seed=5).get_weights()
        b = make_mlp(10, 3, seed=5).get_weights()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_mlp(10, 3, seed=5).get_weights()
        b = make_mlp(10, 3, seed=6).get_weights()
        assert not np.array_equal(a, b)
