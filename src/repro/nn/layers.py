"""Neural-network layers with explicit forward/backward passes.

Each layer owns its parameters as a list of numpy arrays (``params``) and
produces gradients of identical shapes (``grads``) during ``backward``.
The federated-learning code never touches layers directly — it sees the
flat parameter/gradient vectors exposed by :class:`repro.nn.flat.FlatModel`
— but the layers are public API so users can assemble custom models.

Design notes
------------
- Everything is float64.  Gradient sparsification selects elements by
  absolute magnitude; float64 avoids spurious ties that float32 rounding
  would introduce in tests.
- ``forward`` stores whatever the matching ``backward`` needs on ``self``.
  A layer instance therefore processes one batch at a time, which matches
  the synchronous FL simulation (one client's minibatch per call).
- Linear and Conv2D run their serial pass as the grouped multi-client
  pass with one group, and the parameter-free layers take any leading
  axes, so serial and grouped results are the same kernel calls —
  bit-identical, not merely close.  Convolution is im2col plus one
  batched gemm; its input gradient comes back through one vectorized
  ``_col2im`` scatter-add.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.init import glorot_uniform, he_normal, zeros_init


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward` and expose
    parameters via ``params`` / gradients via ``grads`` (parallel lists of
    arrays, possibly empty for stateless layers).
    """

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out`` (dLoss/dOutput) and return dLoss/dInput.

        Side effect: fills ``self.grads`` with dLoss/dParam for each entry
        of ``self.params``.  The *network's* input gradient is not produced
        on the model's gradient paths: :class:`Sequential` runs its first
        layer through :meth:`backward_params` instead.
        """
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` without the input gradient: fills ``self.grads``."""
        self.backward(grad_out)

    def zero_grad(self) -> None:
        for g in self.grads:
            g.fill(0.0)

    def train(self, mode: bool = True) -> None:
        self.training = mode

    # ------------------------------------------------------------------
    # Grouped (multi-client) batched execution support
    #
    # A grouped pass carries a stack of G independent minibatches with a
    # leading group axis: inputs have shape (G, batch, *feature_dims).
    # Linear algebra runs through np.matmul's batched-gemm path, whose
    # per-slice calls have exactly the shapes and strides of the serial
    # per-group calls — so results are bit-identical, not merely close.
    # Layers that mix samples across a batch (training-mode BatchNorm) or
    # consume RNG per forward call (active Dropout) cannot claim support.
    # ------------------------------------------------------------------
    def supports_grouped_batch(self) -> bool:
        """Whether this layer implements the grouped (G, batch, ...) pass
        with results identical to running each group separately."""
        return False

    def consumes_forward_rng(self) -> bool:
        """Whether a training-mode forward draws from a per-layer RNG.

        Such layers (active Dropout) make the gradient a function of the
        layer's RNG *stream position*, not just (weights, batch) — so
        execution backends that replicate the model into worker processes
        (sharded) must fall back to in-process gradients to keep the
        single stream's draw order, exactly like grouped execution does.
        """
        return False

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        """Forward for a grouped input of shape ``(G, batch, *dims)``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support grouped execution"
        )

    def backward_grouped(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Grouped backward; returns ``(grad_in, per_group_param_grads)``.

        The second item holds one array per entry of ``params``, each with
        a leading group axis; it is empty for parameter-free layers.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support grouped execution"
        )

    def backward_params_grouped(self, grad_out: np.ndarray) -> list[np.ndarray]:
        """:meth:`backward_grouped` without the input gradient."""
        return self.backward_grouped(grad_out)[1]


class _OneGroupLayer(Layer):
    """Base for parameterized layers whose serial pass *is* their grouped
    pass with one group: both share every kernel call, so a client's
    gradient is the same bytes on every backend."""

    def supports_grouped_batch(self) -> bool:
        return True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_grouped(x[None])[0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in, param_grads = self.backward_grouped(grad_out[None])
        self._store(param_grads)
        return grad_in[0]

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._store(self.backward_params_grouped(grad_out[None]))

    def _store(self, param_grads: list[np.ndarray]) -> None:
        for grad, (group_grad,) in zip(self.grads, param_grads):
            grad[...] = group_grad


class Linear(_OneGroupLayer):
    """Fully-connected layer: ``y = x @ W + b`` with W of shape (in, out)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init=glorot_uniform,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        w = weight_init((in_features, out_features), rng)
        b = zeros_init((out_features,), rng)
        self.params = [w, b]
        self.grads = [np.zeros_like(w), np.zeros_like(b)]
        self._x: np.ndarray | None = None

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (batch, {self.in_features}) "
                f"per group, got {x.shape[1:]}"
            )
        self._x = x if self.training else None
        w, b = self.params
        return np.matmul(x, w) + b

    def backward_grouped(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        param_grads = self.backward_params_grouped(grad_out)
        return np.matmul(grad_out, self.params[0].T), param_grads

    def backward_params_grouped(self, grad_out: np.ndarray) -> list[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_w = np.matmul(self._x.transpose(0, 2, 1), grad_out)
        return [grad_w, grad_out.sum(axis=1)]


class _SampleWiseLayer(Layer):
    """Base for parameter-free layers that treat every sample alone (per
    element, per pooling window, or a reshape).

    Their backward takes any leading axes, and so does their forward
    unless it says otherwise, so the grouped pass reuses them on the
    (G, batch, *dims) stack.
    """

    def supports_grouped_batch(self) -> bool:
        return True

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward_grouped(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        return self.backward(grad_out), []


class ReLU(_SampleWiseLayer):
    """Rectified linear unit.

    Branch-free: ``fmax(x, 0) + 0.0`` is byte-equal to
    ``where(x > 0, x, 0.0)`` for every input — ``fmax`` maps NaN to 0,
    and adding +0.0 turns the -0.0 it may keep into +0.0 while leaving
    every other value (subnormals, inf) unchanged.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # C order: a conv output arrives as a transposed view, and a
        # contiguous result keeps the mask, the pool's window views and
        # the backward product unit-stride.
        y = np.fmax(x, 0.0, order="C")
        y += 0.0
        self._mask = y > 0 if self.training else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(_SampleWiseLayer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.tanh(x)
        self._y = y if self.training else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class Sigmoid(_SampleWiseLayer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise evaluation.
        out = np.empty_like(x, dtype=np.float64)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        ex = np.exp(x[~positive])
        out[~positive] = ex / (1.0 + ex)
        self._y = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._y * (1.0 - self._y)


class BatchNorm1D(Layer):
    """Batch normalization over feature axis 1 of a 2-D input.

    Training mode normalizes with batch statistics and updates running
    estimates; evaluation mode uses the running estimates.  Known caveat
    in federated settings: batch statistics computed on non-i.i.d. client
    minibatches differ across clients, so models containing BatchNorm
    lose the exact weight-synchronization property of Algorithm 1 (the
    running buffers are local state).  Provided for completeness of the
    substrate; the paper's experiments do not use it.
    """

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        gamma = np.ones(num_features)
        beta = np.zeros(num_features)
        self.params = [gamma, beta]
        self.grads = [np.zeros_like(gamma), np.zeros_like(beta)]
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1D expected (batch, {self.num_features}), got {x.shape}"
            )
        gamma, beta = self.params
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean) / std
        self._cache = (x_hat, std)
        return gamma * x_hat + beta

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        """Evaluation mode only: on the running statistics each group's
        slice is its serial forward's bytes (batch statistics mix them)."""
        if self.training:
            return super().forward_grouped(x)
        return self.forward(x.reshape(-1, x.shape[-1])).reshape(x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, std = self._cache
        gamma, _ = self.params
        self.grads[0][...] = (grad_out * x_hat).sum(axis=0)
        self.grads[1][...] = grad_out.sum(axis=0)
        if not self.training:
            return grad_out * gamma / std
        grad_xhat = grad_out * gamma
        return (
            grad_xhat
            - grad_xhat.mean(axis=0)
            - x_hat * (grad_xhat * x_hat).mean(axis=0)
        ) / std


class Flatten(_SampleWiseLayer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)


class Dropout(_SampleWiseLayer):
    """Inverted dropout; identity at evaluation time.

    The dropout mask is drawn from the layer's own generator, seeded at
    construction, so training runs are reproducible.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def supports_grouped_batch(self) -> bool:
        # An active mask is drawn per forward call, so a single grouped
        # forward consumes the RNG differently than per-group forwards.
        return self.rate == 0.0

    def consumes_forward_rng(self) -> bool:
        return self.rate > 0.0


class Conv2D(_OneGroupLayer):
    """2-D convolution (NCHW) via im2col, stride 1, symmetric zero padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        padding: int = 0,
        weight_init=he_normal,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        w = weight_init((out_channels, in_channels, kernel_size, kernel_size), rng)
        b = zeros_init((out_channels,), rng)
        self.params = [w, b]
        self.grads = [np.zeros_like(w), np.zeros_like(b)]
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _output_hw(self, h: int, w_in: int) -> tuple[int, int]:
        k, p = self.kernel_size, self.padding
        h_out = h + 2 * p - k + 1
        w_out = w_in + 2 * p - k + 1
        if h_out <= 0 or w_out <= 0:
            raise ValueError(
                f"kernel {k} with padding {p} too large for input {h}x{w_in}"
            )
        return h_out, w_out

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (batch, {self.in_channels}, H, W) per group, "
                f"got {x.shape[1:]}"
            )
        groups, n, c, h, w_in = x.shape
        h_out, w_out = self._output_hw(h, w_in)
        # im2col is per-sample work, so the group axis folds into the
        # batch; the gemm below must NOT fold it (see comment there).
        cols = _im2col(
            x.reshape(groups * n, c, h, w_in), self.kernel_size, self.padding
        )
        cols3 = cols.reshape(groups, n * h_out * w_out, -1)
        # Cache for backward only while training: evaluation forwards run
        # over whole eval pools, and pinning a pool-sized im2col buffer
        # until the next forward would dwarf any minibatch-sized leak.
        self._cols = cols3 if self.training else None
        self._x_shape = x.shape
        w_mat = self.params[0].reshape(self.out_channels, -1)
        # One batched gemm whose per-group slices are each a plain
        # (n*h_out*w_out, c*k*k) @ (c*k*k, out) product.
        out = np.matmul(cols3, w_mat.T) + self.params[1]
        return out.reshape(
            groups, n, h_out, w_out, self.out_channels
        ).transpose(0, 1, 4, 2, 3)

    def backward_grouped(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        g3, param_grads = self._weight_grads(grad_out)
        groups, n, c, h, w_in = self._x_shape
        w_mat = self.params[0].reshape(self.out_channels, -1)
        grad_cols = np.matmul(g3, w_mat)  # (groups, n*h_out*w_out, c*k*k)
        grad_x = _col2im(
            grad_cols.reshape(-1, w_mat.shape[1]),
            (groups * n, c, h, w_in),
            self.kernel_size,
            self.padding,
        )
        return grad_x.reshape(self._x_shape), param_grads

    def backward_params_grouped(self, grad_out: np.ndarray) -> list[np.ndarray]:
        return self._weight_grads(grad_out)[1]

    def _weight_grads(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``grad_out`` as (groups, n*h_out*w_out, out) and the per-group
        ``[grad_w, grad_b]``."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        g3 = grad_out.transpose(0, 1, 3, 4, 2).reshape(
            grad_out.shape[0], -1, self.out_channels
        )
        grad_w = np.matmul(g3.transpose(0, 2, 1), self._cols)
        # Drop the im2col buffer: it holds n·H·W·C·k² floats, and keeping
        # it would pin that much memory per client between rounds.
        self._cols = None
        return g3, [grad_w.reshape((-1,) + self.params[0].shape), g3.sum(axis=1)]


class MaxPool2D(_SampleWiseLayer):
    """Non-overlapping max pooling (NCHW); input H, W must be divisible.

    Each window position ("tap") is one strided view of the input, so the
    pool is s² elementwise passes with no window copy.  The max is a
    left-to-right ``np.maximum`` chain over the taps and the routing index
    is the *first* maximum — a later tap wins only on a strict ``>``, a
    NaN wins unless one came earlier — which reproduces the values, the
    ±0 choices and the tie/NaN routing of ``max``/``argmax`` over each
    window byte for byte.
    """

    def __init__(self, pool_size: int) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _taps(self, x: np.ndarray) -> list[np.ndarray]:
        s = self.pool_size
        return [x[..., i::s, j::s] for i in range(s) for j in range(s)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h, w = x.shape[-2:]
        s = self.pool_size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        first, *rest = self._taps(x)
        out = first.copy()
        index = np.min_scalar_type(s * s - 1).type
        argmax = np.zeros(out.shape, index)
        for t, tap in enumerate(rest, 1):
            # The index is only needed for backward; skip it (and don't pin
            # an output-sized buffer) on evaluation forwards over eval pools.
            if self.training:
                wins = ~(tap <= out)  # tap > out, or either is NaN ...
                wins &= out == out  # ... but an earlier NaN keeps its place
                # Winners only move forward, so the last win is a max.
                np.maximum(argmax, wins * index(t), out=argmax)
            np.maximum(out, tap, out=out)
        self._argmax = argmax if self.training else None
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        # Each tap's slice is the gradient's bits AND-ed with all-ones
        # where that tap won, all-zeros elsewhere: the routed value moves
        # unchanged (-0.0 and NaN included), the rest is +0.0, and no
        # data-dependent branch runs.  The taps tile the input exactly.
        grad = np.empty(self._x_shape)
        bits = np.asarray(grad_out, np.float64).view(np.int64)
        for t, tap in enumerate(self._taps(grad)):
            keep = np.multiply(self._argmax == t, -1, dtype=np.int64)
            np.bitwise_and(bits, keep, out=tap.view(np.int64))
        return grad

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5:
            raise ValueError(
                f"grouped MaxPool2D expected (groups, batch, C, H, W), got {x.shape}"
            )
        return self.forward(x)


class Sequential(Layer):
    """Container applying layers in order; owns no parameters itself."""

    def __init__(self, layers: list[Layer]) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Fill every layer's ``grads``; returns nothing.

        The network's input gradient is read by no one (the model's
        gradient paths keep parameter gradients only), so the first layer
        runs :meth:`Layer.backward_params` — for a first Conv2D that skips
        a gemm and a ``_col2im`` scatter per call.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            grad_out = layer.backward(grad_out)
        first.backward_params(grad_out)

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def train(self, mode: bool = True) -> None:
        self.training = mode
        for layer in self.layers:
            layer.train(mode)

    def supports_grouped_batch(self) -> bool:
        return all(layer.supports_grouped_batch() for layer in self.layers)

    def consumes_forward_rng(self) -> bool:
        return any(layer.consumes_forward_rng() for layer in self.layers)

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward_grouped(x)
        return x

    def backward_grouped(
        self, grad_out: np.ndarray
    ) -> tuple[None, list[np.ndarray]]:
        """Grouped :meth:`backward`: ``(None, param_grads in layer order)``."""
        first, *rest = self.layers
        per_layer: list[list[np.ndarray]] = []
        for layer in reversed(rest):
            grad_out, param_grads = layer.backward_grouped(grad_out)
            per_layer.append(param_grads)
        per_layer.append(first.backward_params_grouped(grad_out))
        per_layer.reverse()
        return None, [g for grads in per_layer for g in grads]

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameter arrays, in deterministic layer order."""
        return [p for layer in self.layers for p in layer.params]

    def gradient_arrays(self) -> list[np.ndarray]:
        """All gradient arrays, parallel to :meth:`parameter_arrays`."""
        return [g for layer in self.layers for g in layer.grads]


def _im2col(x: np.ndarray, kernel: int, padding: int) -> np.ndarray:
    """Expand sliding windows of ``x`` into rows.

    Returns an array of shape ``(n * h_out * w_out, c * kernel * kernel)``.
    """
    n, c, h, w = x.shape
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    h_out = h + 2 * padding - kernel + 1
    w_out = w + 2 * padding - kernel + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    # windows: (n, c, h_out, w_out, kernel, kernel)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, -1)
    return np.ascontiguousarray(cols)


@lru_cache(maxsize=64)
def _col2im_taps(
    c: int, hp: int, wp: int, h_out: int, w_out: int, kernel: int
) -> np.ndarray:
    """Flat within-sample target offsets for every im2col column entry.

    Entry order matches the C-order traversal of the im2col layout
    ``(h_out, w_out, c, ki, kj)``; offsets index the flattened padded
    input ``(c, hp, wp)``.  Cached because the pattern depends only on
    the geometry, not the data.
    """
    i = np.arange(h_out)
    j = np.arange(w_out)
    tap = np.arange(kernel)
    rows = i[:, None] + tap[None, :]  # (h_out, kernel)
    cols = j[:, None] + tap[None, :]  # (w_out, kernel)
    chan = np.arange(c) * (hp * wp)
    offsets = (
        chan[None, None, :, None, None]
        + rows[:, None, None, :, None] * wp
        + cols[None, :, None, None, :]
    )
    return offsets.ravel()


def _col2im(
    cols: np.ndarray, x_shape: tuple[int, ...], kernel: int, padding: int
) -> np.ndarray:
    """Inverse of :func:`_im2col`: scatter-add window gradients back.

    Vectorized: one ``np.bincount`` accumulates every (window, tap)
    contribution instead of a Python loop over the k² kernel offsets.
    ``bincount`` adds weights in input order and each sample's entries
    keep the same fixed traversal order regardless of how many samples
    share the batch, so grouped callers that fold their group axis into
    the batch get bit-identical per-sample gradients.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out = hp - kernel + 1
    w_out = wp - kernel + 1
    taps = _col2im_taps(c, hp, wp, h_out, w_out, kernel)
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
