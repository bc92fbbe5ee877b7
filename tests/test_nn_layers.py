"""Unit tests for repro.nn.layers: shapes, values, and numeric gradients."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm1D,
    Conv2D,
    Dropout,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)

RNG = np.random.default_rng(7)


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer, x, tol=1e-6):
    """Check input and parameter gradients of a layer against finite diffs."""
    out = layer.forward(x)
    upstream = RNG.standard_normal(out.shape)

    def loss():
        return float((layer.forward(x) * upstream).sum())

    grad_in = layer.backward(upstream)
    if isinstance(layer, Sequential):
        # The network's input gradient is read by no one: not produced.
        assert grad_in is None
    else:
        num_in = numeric_grad(loss, x)
        np.testing.assert_allclose(grad_in, num_in, atol=tol, rtol=1e-4)

    layer.forward(x)
    layer.backward(upstream)
    for p, g in zip(layer.params, layer.grads):
        num_p = numeric_grad(loss, p)
        np.testing.assert_allclose(g, num_p, atol=tol, rtol=1e-4)


class TestLinear:
    def test_forward_matches_matmul(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        x = RNG.standard_normal((5, 4))
        w, b = layer.params
        np.testing.assert_allclose(layer.forward(x), x @ w + b)

    def test_gradients(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        check_layer_gradients(layer, RNG.standard_normal((5, 4)))

    def test_rejects_bad_input_shape(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(RNG.standard_normal((5, 7)))

    def test_backward_before_forward_raises(self):
        layer = Linear(2, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestActivations:
    def test_relu_values(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_allclose(relu.forward(x), [[0.0, 0.0, 2.0]])

    def test_relu_gradient(self):
        check_layer_gradients(ReLU(), RNG.standard_normal((4, 6)) + 0.1)

    def test_tanh_gradient(self):
        check_layer_gradients(Tanh(), RNG.standard_normal((4, 6)))

    def test_tanh_range(self):
        y = Tanh().forward(RNG.standard_normal((10, 10)) * 5)
        assert np.all(np.abs(y) < 1.0)


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = RNG.standard_normal((2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        assert back.shape == x.shape
        np.testing.assert_allclose(back, x)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, seed=1)
        layer.train(False)
        x = RNG.standard_normal((3, 4))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_training_zeroes_some_and_rescales(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((100, 100))
        out = layer.forward(x)
        zeros = (out == 0).mean()
        assert 0.4 < zeros < 0.6
        nonzero = out[out != 0]
        np.testing.assert_allclose(nonzero, 2.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.3, seed=2)
        x = np.ones((10, 10))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_zero_rate_identity_and_gradient_passthrough(self):
        layer = Dropout(0.0)
        x = RNG.standard_normal((3, 3))
        np.testing.assert_allclose(layer.forward(x), x)
        g = RNG.standard_normal((3, 3))
        np.testing.assert_allclose(layer.backward(g), g)


class TestConv2D:
    def test_output_shape_no_padding(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0))
        out = conv.forward(RNG.standard_normal((4, 2, 8, 8)))
        assert out.shape == (4, 3, 6, 6)

    def test_output_shape_with_padding(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0), padding=1)
        out = conv.forward(RNG.standard_normal((4, 2, 8, 8)))
        assert out.shape == (4, 3, 8, 8)

    def test_matches_direct_convolution(self):
        conv = Conv2D(1, 1, kernel_size=2, rng=np.random.default_rng(0))
        x = RNG.standard_normal((1, 1, 3, 3))
        out = conv.forward(x)
        w = conv.params[0][0, 0]
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = (x[0, 0, i : i + 2, j : j + 2] * w).sum()
        np.testing.assert_allclose(out[0, 0], expected + conv.params[1][0])

    def test_gradients(self):
        conv = Conv2D(2, 2, kernel_size=3, rng=np.random.default_rng(3), padding=1)
        check_layer_gradients(conv, RNG.standard_normal((2, 2, 5, 5)), tol=1e-5)

    def test_rejects_wrong_channels(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((1, 5, 8, 8)))

    def test_rejects_kernel_larger_than_input(self):
        conv = Conv2D(1, 1, kernel_size=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((1, 1, 3, 3)))

    def test_backward_releases_im2col_cache(self):
        # The im2col buffer is n·H·W·C·k² floats; keeping it after the
        # backward would pin that much memory per client between rounds.
        conv = Conv2D(1, 2, kernel_size=3, rng=np.random.default_rng(0))
        out = conv.forward(RNG.standard_normal((2, 1, 6, 6)))
        assert conv._cols is not None
        conv.backward(np.ones_like(out))
        assert conv._cols is None
        with pytest.raises(RuntimeError):
            conv.backward(np.ones_like(out))

    def test_eval_forward_does_not_cache(self):
        # Evaluation forwards run over whole eval pools; caching backward
        # state there would pin pool-sized buffers until the next forward.
        # A training forward first, so a stale cache would show too.
        # (BatchNorm1D is the exception: its eval-mode backward is
        # supported and needs the normalized input.)
        rng = np.random.default_rng(0)
        net = Sequential([
            Conv2D(1, 2, kernel_size=3, rng=rng), ReLU(), MaxPool2D(2),
            Flatten(), Linear(8, 6, rng), Tanh(), Dropout(0.5), Sigmoid(),
            Linear(6, 3, rng),
        ])
        x = RNG.standard_normal((4, 1, 6, 6))
        for forward, batch in ((net.forward, x), (net.forward_grouped, x[None])):
            forward(batch)
            net.train(False)
            forward(batch)
            net.train(True)
            caches = {
                f"{i}:{type(layer).__name__}.{name}": value
                for i, layer in enumerate(net.layers)
                for name, value in vars(layer).items()
                if name in ("_cols", "_argmax", "_mask", "_y", "_x")
            }
            assert len(caches) == 8
            assert all(v is None for v in caches.values()), caches


class TestGroupedConvPool:
    """Grouped (multi-client) conv/pool passes must be bit-identical to
    running each group through the serial forward/backward."""

    # Odd geometries: non-square inputs, padding 0/1, kernel == input
    # edge, kernel > input made valid only by padding.
    CONV_CASES = [
        (2, 3, 3, 0, 5, 7),   # non-square, no padding
        (2, 3, 3, 1, 5, 7),   # non-square, padded
        (1, 2, 3, 0, 3, 5),   # kernel equals one input edge (h_out = 1)
        (1, 1, 3, 1, 2, 2),   # kernel larger than input, saved by padding
        (3, 2, 2, 0, 6, 4),   # even kernel
        (2, 4, 1, 0, 4, 3),   # 1x1 kernel
    ]

    @pytest.mark.parametrize("cin,cout,kernel,padding,h,w", CONV_CASES)
    def test_conv_grouped_bit_identical(self, cin, cout, kernel, padding, h, w):
        conv = Conv2D(cin, cout, kernel_size=kernel,
                      rng=np.random.default_rng(1), padding=padding)
        groups, batch = 4, 3
        x = RNG.standard_normal((groups, batch, cin, h, w))
        out_grouped = conv.forward_grouped(x)
        upstream = RNG.standard_normal(out_grouped.shape)
        grad_in_grouped, param_grads = conv.backward_grouped(upstream)
        assert len(param_grads) == 2
        for g in range(groups):
            out = conv.forward(x[g])
            np.testing.assert_array_equal(out, out_grouped[g])
            grad_in = conv.backward(upstream[g])
            np.testing.assert_array_equal(grad_in, grad_in_grouped[g])
            np.testing.assert_array_equal(conv.grads[0], param_grads[0][g])
            np.testing.assert_array_equal(conv.grads[1], param_grads[1][g])

    def test_conv_grouped_rejects_bad_shapes(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward_grouped(RNG.standard_normal((2, 3, 5, 8, 8)))  # channels
        with pytest.raises(ValueError):
            conv.forward_grouped(RNG.standard_normal((3, 2, 8, 8)))  # ndim
        with pytest.raises(ValueError):  # kernel too large, no padding
            conv.forward_grouped(RNG.standard_normal((2, 3, 2, 2, 2)))

    @pytest.mark.parametrize("pool,c,h,w", [(2, 3, 4, 6), (3, 1, 6, 3), (1, 2, 3, 5)])
    def test_pool_grouped_bit_identical(self, pool, c, h, w):
        layer = MaxPool2D(pool)
        groups, batch = 3, 4
        x = RNG.standard_normal((groups, batch, c, h, w))
        out_grouped = layer.forward_grouped(x)
        upstream = RNG.standard_normal(out_grouped.shape)
        grad_grouped, param_grads = layer.backward_grouped(upstream)
        assert param_grads == []
        for g in range(groups):
            np.testing.assert_array_equal(layer.forward(x[g]), out_grouped[g])
            np.testing.assert_array_equal(
                layer.backward(upstream[g]), grad_grouped[g]
            )

    def test_pool_grouped_tie_routing_matches(self):
        # Constant windows tie every argmax; grouped and serial must route
        # the gradient to the same (first) element.
        layer = MaxPool2D(2)
        x = np.ones((2, 2, 1, 4, 4))
        out = layer.forward_grouped(x)
        grad, _ = layer.backward_grouped(np.ones_like(out))
        for g in range(2):
            layer.forward(x[g])
            np.testing.assert_array_equal(
                layer.backward(np.ones((2, 1, 2, 2))), grad[g]
            )

    def test_pool_grouped_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward_grouped(RNG.standard_normal((2, 1, 4, 4)))

    def test_conv_grouped_backward_before_forward_raises(self):
        conv = Conv2D(1, 1, kernel_size=2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            conv.backward_grouped(np.zeros((1, 1, 1, 2, 2)))


class TestMaxPool2D:
    def test_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(grad[0, 0], expected)

    def test_numeric_gradient(self):
        pool = MaxPool2D(2)
        # Add distinct values to avoid argmax ties that break finite diffs.
        x = RNG.permutation(64).astype(float).reshape(1, 1, 8, 8)
        check_layer_gradients(pool, x, tol=1e-5)

    def test_rejects_indivisible_input(self):
        pool = MaxPool2D(3)
        with pytest.raises(ValueError):
            pool.forward(RNG.standard_normal((1, 1, 4, 4)))


class TestSequential:
    def test_first_layer_skips_input_gradient(self, monkeypatch):
        # Only parameter gradients leave the network, so its first layer
        # never computes dLoss/dInput; parameter gradients are unchanged.
        rng = np.random.default_rng(4)
        layers = [Conv2D(1, 2, kernel_size=3, rng=rng, padding=1), ReLU(),
                  Flatten(), Linear(32, 3, rng)]
        net = Sequential(layers)
        x = RNG.standard_normal((2, 1, 4, 4))
        upstream = RNG.standard_normal((2, 3))
        net.forward(x)
        grad = upstream
        for layer in reversed(layers):
            grad = layer.backward(grad)
        expected = [g.copy() for g in net.gradient_arrays()]

        def no_input_gradient(*args):
            raise AssertionError("the first layer computed its input gradient")

        monkeypatch.setattr("repro.nn.layers._col2im", no_input_gradient)
        net.zero_grad()
        net.forward(x)
        assert net.backward(upstream) is None
        for got, want in zip(net.gradient_arrays(), expected):
            np.testing.assert_array_equal(got, want)
        net.forward_grouped(x[None])
        _, grouped = net.backward_grouped(upstream[None])
        for got, want in zip(grouped, expected):
            np.testing.assert_array_equal(got[0], want)

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        net = Sequential(
            [Linear(6, 8, rng), Tanh(), Linear(8, 4, rng), ReLU(), Linear(4, 2, rng)]
        )
        check_layer_gradients(net, RNG.standard_normal((3, 6)))

    def test_train_mode_propagates(self):
        net = Sequential([Linear(2, 2, np.random.default_rng(0)), Dropout(0.5)])
        net.train(False)
        assert not net.layers[1].training
        net.train(True)
        assert net.layers[1].training

    def test_parameter_and_gradient_arrays_parallel(self):
        rng = np.random.default_rng(1)
        net = Sequential([Linear(3, 4, rng), ReLU(), Linear(4, 2, rng)])
        params = net.parameter_arrays()
        grads = net.gradient_arrays()
        assert len(params) == len(grads) == 4
        for p, g in zip(params, grads):
            assert p.shape == g.shape

    def test_zero_grad(self):
        rng = np.random.default_rng(1)
        net = Sequential([Linear(3, 2, rng)])
        net.forward(RNG.standard_normal((2, 3)))
        net.backward(np.ones((2, 2)))
        assert np.abs(net.gradient_arrays()[0]).sum() > 0
        net.zero_grad()
        for g in net.gradient_arrays():
            np.testing.assert_allclose(g, 0.0)
