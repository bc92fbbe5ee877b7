"""Unit tests for repro.nn.layers: shapes, values, and numeric gradients.

Every layer has one pass on a grouped ``(G, batch, *dims)`` stack; a
single minibatch ``x`` is the one-group stack ``x[None]``.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    _window_offsets,
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
    """Finite-difference a layer's input and per-group parameter
    gradients on the minibatch ``x`` as group 0 of a G = 1 and a G = 3
    stack (twice, with fresh other groups).

    Each group's gradients are those of its own output alone, and group
    0's are the same bytes whatever else the stack holds.
    """
    rng = np.random.default_rng(0)
    out_shape = layer.forward(x[None]).shape[1:]
    upstream0 = RNG.standard_normal(out_shape)
    group0 = None
    for groups in (1, 3, 3):
        stack = np.concatenate(
            [x[None], rng.standard_normal((groups - 1,) + x.shape)]
        )
        upstream = np.concatenate(
            [upstream0[None], rng.standard_normal((groups - 1,) + out_shape)]
        )
        layer.forward(stack)
        grad_in, param_grads = layer.backward(upstream)
        assert [g.shape for g in param_grads] == [
            (groups,) + p.shape for p in layer.params
        ]
        if isinstance(layer, Sequential):
            # The network's input gradient is read by no one: not produced.
            assert grad_in is None
        mine = [g[0].tobytes() for g in param_grads]
        if grad_in is not None:
            mine.append(grad_in[0].tobytes())
        group0 = group0 or mine
        assert mine == group0
        for g in range(groups):
            def loss():
                return float((layer.forward(stack)[g] * upstream[g]).sum())

            if grad_in is not None:
                np.testing.assert_allclose(
                    grad_in[g], numeric_grad(loss, stack[g]), atol=tol, rtol=1e-4
                )
            for p, grad in zip(layer.params, param_grads):
                np.testing.assert_allclose(
                    grad[g], numeric_grad(loss, p), atol=tol, rtol=1e-4
                )


class TestLinear:
    def test_forward_matches_matmul(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        x = RNG.standard_normal((2, 5, 4))
        w, b = layer.params
        np.testing.assert_allclose(layer.forward(x), x @ w + b)

    def test_gradients(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        check_layer_gradients(layer, RNG.standard_normal((5, 4)))

    def test_rejects_bad_input_shape(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(RNG.standard_normal((1, 5, 7)))
        with pytest.raises(ValueError):  # one minibatch, no group axis
            layer.forward(RNG.standard_normal((5, 4)))

    def test_backward_before_forward_raises(self):
        layer = Linear(2, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 2)))


class TestActivations:
    def test_relu_values(self):
        relu = ReLU()
        x = np.array([[[-1.0, 0.0, 2.0]]])
        np.testing.assert_allclose(relu.forward(x), [[[0.0, 0.0, 2.0]]])

    def test_relu_gradient(self):
        check_layer_gradients(ReLU(), RNG.standard_normal((4, 6)) + 0.1)


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = RNG.standard_normal((3, 2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (3, 2, 60)
        back, params = layer.backward(out)
        assert params == []
        assert back.shape == x.shape
        np.testing.assert_allclose(back, x)


class TestConv2D:
    def test_output_shape_no_padding(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0))
        out = conv.forward(RNG.standard_normal((2, 4, 2, 8, 8)))
        assert out.shape == (2, 4, 3, 6, 6)

    def test_output_shape_with_padding(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0), padding=1)
        out = conv.forward(RNG.standard_normal((2, 4, 2, 8, 8)))
        assert out.shape == (2, 4, 3, 8, 8)

    def test_matches_direct_convolution(self):
        conv = Conv2D(1, 1, kernel_size=2, rng=np.random.default_rng(0))
        x = RNG.standard_normal((1, 1, 1, 3, 3))
        out = conv.forward(x)
        w = conv.params[0][0, 0]
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = (x[0, 0, 0, i : i + 2, j : j + 2] * w).sum()
        np.testing.assert_allclose(out[0, 0, 0], expected + conv.params[1][0])

    def test_gradients(self):
        conv = Conv2D(2, 2, kernel_size=3, rng=np.random.default_rng(3), padding=1)
        check_layer_gradients(conv, RNG.standard_normal((2, 2, 5, 5)), tol=1e-5)

    def test_rejects_wrong_channels(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((1, 1, 5, 8, 8)))

    def test_rejects_kernel_larger_than_input(self):
        conv = Conv2D(1, 1, kernel_size=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((1, 1, 1, 3, 3)))

    def test_backward_releases_im2col_cache(self):
        # The im2col buffer is n·H·W·C·k² floats; keeping it after the
        # backward would pin that much memory per client between rounds.
        conv = Conv2D(1, 2, kernel_size=3, rng=np.random.default_rng(0))
        out = conv.forward(RNG.standard_normal((1, 2, 1, 6, 6)))
        assert conv._cols is not None
        conv.backward(np.ones_like(out))
        assert conv._cols is None
        with pytest.raises(RuntimeError):
            conv.backward(np.ones_like(out))

    def test_window_offsets_are_read_only(self):
        # One cached table feeds the im2col gather and the _col2im
        # scatter of every conv call at its geometry: a stray in-place
        # write must raise, not corrupt every later gradient.
        offsets = _window_offsets(1, 8, 8, 3)
        assert not offsets.flags.writeable
        with pytest.raises(ValueError):
            offsets[0] = 1
        with pytest.raises(ValueError):
            offsets += 1

    def test_eval_forward_does_not_cache(self):
        # Evaluation forwards run over blocks of eval pools; caching
        # backward state there would pin block-sized buffers until the
        # next forward.
        # A training forward first, so a stale cache would show too.
        rng = np.random.default_rng(0)
        net = Sequential([
            Conv2D(1, 2, kernel_size=3, rng=rng), ReLU(), MaxPool2D(2),
            Flatten(), Linear(8, 6, rng), ReLU(), Linear(6, 3, rng),
        ])
        x = RNG.standard_normal((2, 4, 1, 6, 6))
        net.forward(x)
        net.train(False)
        net.forward(x)
        net.train(True)
        caches = {
            f"{i}:{type(layer).__name__}.{name}": value
            for i, layer in enumerate(net.layers)
            for name, value in vars(layer).items()
            if name in ("_cols", "_argmax", "_mask", "_x")
        }
        assert len(caches) == 6
        assert all(v is None for v in caches.values()), caches


class TestGroupedConvPool:
    """A grouped (multi-client) conv/pool pass must be bit-identical to
    running each group alone as a one-group stack."""

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
        out_grouped = conv.forward(x)
        upstream = RNG.standard_normal(out_grouped.shape)
        grad_in_grouped, param_grads = conv.backward(upstream)
        assert len(param_grads) == 2
        for g in range(groups):
            out = conv.forward(x[g][None])
            np.testing.assert_array_equal(out[0], out_grouped[g])
            grad_in, (grad_w, grad_b) = conv.backward(upstream[g][None])
            np.testing.assert_array_equal(grad_in[0], grad_in_grouped[g])
            np.testing.assert_array_equal(grad_w[0], param_grads[0][g])
            np.testing.assert_array_equal(grad_b[0], param_grads[1][g])

    def test_conv_grouped_rejects_bad_shapes(self):
        conv = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((2, 3, 5, 8, 8)))  # channels
        with pytest.raises(ValueError):
            conv.forward(RNG.standard_normal((3, 2, 8, 8)))  # ndim
        with pytest.raises(ValueError):  # kernel too large, no padding
            conv.forward(RNG.standard_normal((2, 3, 2, 2, 2)))

    @pytest.mark.parametrize("pool,c,h,w", [(2, 3, 4, 6), (3, 1, 6, 3), (1, 2, 3, 5)])
    def test_pool_grouped_bit_identical(self, pool, c, h, w):
        layer = MaxPool2D(pool)
        groups, batch = 3, 4
        x = RNG.standard_normal((groups, batch, c, h, w))
        out_grouped = layer.forward(x)
        upstream = RNG.standard_normal(out_grouped.shape)
        grad_grouped, param_grads = layer.backward(upstream)
        assert param_grads == []
        for g in range(groups):
            np.testing.assert_array_equal(
                layer.forward(x[g][None])[0], out_grouped[g]
            )
            np.testing.assert_array_equal(
                layer.backward(upstream[g][None])[0][0], grad_grouped[g]
            )

    def test_pool_grouped_tie_routing_matches(self):
        # Constant windows tie every argmax; grouped and one-group passes
        # must route the gradient to the same (first) element.
        layer = MaxPool2D(2)
        x = np.ones((2, 2, 1, 4, 4))
        out = layer.forward(x)
        grad, _ = layer.backward(np.ones_like(out))
        for g in range(2):
            layer.forward(x[g][None])
            np.testing.assert_array_equal(
                layer.backward(np.ones((1, 2, 1, 2, 2)))[0][0], grad[g]
            )

    def test_pool_grouped_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(RNG.standard_normal((2, 1, 4, 4)))

    def test_conv_grouped_backward_before_forward_raises(self):
        conv = Conv2D(1, 1, kernel_size=2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 1, 2, 2)))


class TestMaxPool2D:
    def test_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_allclose(out[0, 0, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 1, 4, 4)
        pool.forward(x)
        grad, _ = pool.backward(np.ones((1, 1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(grad[0, 0, 0], expected)

    def test_numeric_gradient(self):
        pool = MaxPool2D(2)
        # Add distinct values to avoid argmax ties that break finite diffs.
        x = RNG.permutation(64).astype(float).reshape(1, 1, 8, 8)
        check_layer_gradients(pool, x, tol=1e-5)

    def test_rejects_indivisible_input(self):
        pool = MaxPool2D(3)
        with pytest.raises(ValueError):
            pool.forward(RNG.standard_normal((1, 1, 1, 4, 4)))


class TestSequential:
    def test_first_layer_skips_input_gradient(self, monkeypatch):
        # Only parameter gradients leave the network, so its first layer
        # never computes dLoss/dInput; parameter gradients are unchanged.
        rng = np.random.default_rng(4)
        layers = [Conv2D(1, 2, kernel_size=3, rng=rng, padding=1), ReLU(),
                  Flatten(), Linear(32, 3, rng)]
        net = Sequential(layers)
        x = RNG.standard_normal((1, 2, 1, 4, 4))
        upstream = RNG.standard_normal((1, 2, 3))
        net.forward(x)
        grad, expected = upstream, []
        for layer in reversed(layers):
            grad, param_grads = layer.backward(grad)
            expected[:0] = param_grads

        def no_input_gradient(*args):
            raise AssertionError("the first layer computed its input gradient")

        monkeypatch.setattr("repro.nn.layers._col2im", no_input_gradient)
        net.forward(x)
        grad_in, got = net.backward(upstream)
        assert grad_in is None
        assert [g.tobytes() for g in got] == [g.tobytes() for g in expected]

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        net = Sequential(
            [Linear(6, 8, rng), ReLU(), Linear(8, 4, rng), ReLU(), Linear(4, 2, rng)]
        )
        check_layer_gradients(net, RNG.standard_normal((3, 6)))

    def test_train_mode_propagates(self):
        net = Sequential([Linear(2, 2, np.random.default_rng(0)), ReLU()])
        net.train(False)
        assert not net.layers[1].training
        net.train(True)
        assert net.layers[1].training

    def test_parameter_and_gradient_arrays_parallel(self):
        rng = np.random.default_rng(1)
        net = Sequential([Linear(3, 4, rng), ReLU(), Linear(4, 2, rng)])
        params = net.params
        net.forward(RNG.standard_normal((5, 2, 3)))
        _, grads = net.backward(np.ones((5, 2, 2)))
        assert len(params) == len(grads) == 4
        for p, g in zip(params, grads):
            assert g.shape == (5,) + p.shape
