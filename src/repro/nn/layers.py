"""Neural-network layers with explicit forward/backward passes.

Each layer owns its parameters as a list of numpy arrays (``params``).
The federated-learning code never touches layers directly — it sees the
flat parameter/gradient vectors exposed by :class:`repro.nn.flat.FlatModel`
— and the layers are exactly those of the paper's model family
(:mod:`repro.nn.models`).

Design notes
------------
- Everything is float64.  Gradient sparsification selects elements by
  absolute magnitude; float64 avoids spurious ties that float32 rounding
  would introduce in tests.
- Every layer has one pass, on a grouped shape ``(G, batch, *dims)``: a
  stack of G independent minibatches (in FL, one per client).  Its
  ``backward`` returns the input gradient and the parameter gradients
  with a leading group axis, so one client's gradient is the G = 1 case
  of the same kernel calls — bit-identical, not merely close.  Linear
  algebra runs through ``np.matmul``'s batched gemm, whose per-group
  slices have the shapes and strides of a one-group call.
- ``forward`` stores whatever the matching ``backward`` needs on ``self``
  (only while ``training``) and ``backward`` drops it, so a layer
  instance processes one stack at a time and pins nothing between
  passes.  Convolution is im2col, one gather through a cached
  window-offset table, plus one batched gemm; its input gradient comes
  back through one ``_col2im`` scatter-add through the same table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.init import glorot_uniform, he_normal, zeros_init


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward` on the
    grouped shape ``(G, batch, *dims)`` and expose their parameters via
    ``params`` (possibly empty).
    """

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Backpropagate ``grad_out`` (dLoss/dOutput).

        Returns ``(dLoss/dInput, param_grads)``: one array per entry of
        ``params``, each with a leading group axis (empty for
        parameter-free layers).
        """
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> list[np.ndarray]:
        """:meth:`backward` without the input gradient.

        The network's input gradient is read by no one, so
        :class:`Sequential` runs its first layer through this.
        """
        return self.backward(grad_out)[1]

    def train(self, mode: bool = True) -> None:
        self.training = mode


class Linear(Layer):
    """Fully-connected layer: ``y = x @ W + b`` with W of shape (in, out)."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params = [
            glorot_uniform((in_features, out_features), rng),
            zeros_init((out_features,), rng),
        ]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (batch, {self.in_features}) "
                f"per group, got {x.shape[1:]}"
            )
        self._x = x if self.training else None
        w, b = self.params
        return np.matmul(x, w) + b

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        param_grads = self.backward_params(grad_out)
        return np.matmul(grad_out, self.params[0].T), param_grads

    def backward_params(self, grad_out: np.ndarray) -> list[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x, self._x = self._x, None
        return [np.matmul(x.transpose(0, 2, 1), grad_out), grad_out.sum(axis=1)]


class ReLU(Layer):
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

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        mask, self._mask = self._mask, None
        return grad_out * mask, []


class Flatten(Layer):
    """Flatten all per-sample dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape), []


class Conv2D(Layer):
    """2-D convolution (NCHW) via im2col, stride 1, symmetric zero padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        padding: int = 0,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.params = [
            he_normal((out_channels, in_channels, kernel_size, kernel_size), rng),
            zeros_init((out_channels,), rng),
        ]
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

    def forward(self, x: np.ndarray) -> np.ndarray:
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
        # over blocks of an eval pool (up to FlatModel's EVAL_BYTES of
        # layer output each), and pinning a block's im2col buffer until
        # the next forward would dwarf any minibatch-sized leak.
        self._cols = cols3 if self.training else None
        self._x_shape = x.shape
        w_mat = self.params[0].reshape(self.out_channels, -1)
        # One batched gemm whose per-group slices are each a plain
        # (n*h_out*w_out, c*k*k) @ (c*k*k, out) product.
        out = np.matmul(cols3, w_mat.T) + self.params[1]
        return out.reshape(
            groups, n, h_out, w_out, self.out_channels
        ).transpose(0, 1, 4, 2, 3)

    def backward(
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

    def backward_params(self, grad_out: np.ndarray) -> list[np.ndarray]:
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


class MaxPool2D(Layer):
    """Non-overlapping max pooling over H, W of a ``(G, batch, C, H, W)``
    stack; H and W must be divisible by the pool size.

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
        if x.ndim != 5:
            raise ValueError(
                f"MaxPool2D expected (groups, batch, C, H, W), got {x.shape}"
            )
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
            # an output-sized buffer) on evaluation forwards over blocks of
            # eval pools.
            if self.training:
                wins = ~(tap <= out)  # tap > out, or either is NaN ...
                wins &= out == out  # ... but an earlier NaN keeps its place
                # Winners only move forward, so the last win is a max.
                np.maximum(argmax, wins * index(t), out=argmax)
            np.maximum(out, tap, out=out)
        self._argmax = argmax if self.training else None
        self._x_shape = x.shape
        return out

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        # Each tap's slice is the gradient's bits AND-ed with all-ones
        # where that tap won, all-zeros elsewhere: the routed value moves
        # unchanged (-0.0 and NaN included), the rest is +0.0, and no
        # data-dependent branch runs.  The taps tile the input exactly.
        argmax, self._argmax = self._argmax, None
        grad = np.empty(self._x_shape)
        bits = np.asarray(grad_out, np.float64).view(np.int64)
        for t, tap in enumerate(self._taps(grad)):
            keep = np.multiply(argmax == t, -1, dtype=np.int64)
            np.bitwise_and(bits, keep, out=tap.view(np.int64))
        return grad, []


class Sequential(Layer):
    """Container applying layers in order; its ``params`` are its layers'
    parameter arrays (the same objects), in layer order."""

    def __init__(self, layers: list[Layer]) -> None:
        super().__init__()
        self.layers = list(layers)
        self.params = [p for layer in self.layers for p in layer.params]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[None, list[np.ndarray]]:
        """``(None, param_grads in layer order)``.

        The network's input gradient is read by no one, so the first
        layer runs :meth:`Layer.backward_params` — for a first Conv2D
        that skips a gemm and a ``_col2im`` scatter per call.
        """
        first, *rest = self.layers
        per_layer: list[list[np.ndarray]] = []
        for layer in reversed(rest):
            grad_out, param_grads = layer.backward(grad_out)
            per_layer.append(param_grads)
        per_layer.append(first.backward_params(grad_out))
        per_layer.reverse()
        return None, [g for grads in per_layer for g in grads]

    def train(self, mode: bool = True) -> None:
        self.training = mode
        for layer in self.layers:
            layer.train(mode)

def _im2col(x: np.ndarray, kernel: int, padding: int) -> np.ndarray:
    """Expand sliding windows of ``x`` into rows.

    Returns an array of shape ``(n * h_out * w_out, c * kernel * kernel)``,
    each sample's windows gathered by one ``np.take`` through
    :func:`_window_offsets`.
    """
    n, c, h, w = x.shape
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    hp, wp = h + 2 * padding, w + 2 * padding
    offsets = _window_offsets(c, hp, wp, kernel)
    cols = np.take(x.reshape(n, c * hp * wp), offsets, axis=1)
    return cols.reshape(-1, c * kernel * kernel)


@lru_cache(maxsize=64)
def _window_offsets(c: int, hp: int, wp: int, kernel: int) -> np.ndarray:
    """Flat within-sample offset of every im2col column entry: the one
    table :func:`_im2col` gathers and :func:`_col2im` scatters through.

    Entry order is the C-order traversal of the im2col layout
    ``(h_out, w_out, c, ki, kj)``; offsets index the flattened padded
    input ``(c, hp, wp)``.  Cached per geometry, and read-only because
    every conv call of that geometry shares it.
    """
    tap = np.arange(kernel)
    rows = np.arange(hp - kernel + 1)[:, None] + tap  # (h_out, kernel)
    cols = np.arange(wp - kernel + 1)[:, None] + tap  # (w_out, kernel)
    chan = np.arange(c) * (hp * wp)
    offsets = (
        chan[None, None, :, None, None]
        + rows[:, None, None, :, None] * wp
        + cols[None, :, None, None, :]
    ).ravel()
    offsets.flags.writeable = False
    return offsets


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
    offsets = _window_offsets(c, hp, wp, kernel)
    sample_size = c * hp * wp
    flat_indices = (
        np.arange(n, dtype=np.int64)[:, None] * sample_size + offsets[None, :]
    ).ravel()
    acc = np.bincount(
        flat_indices, weights=cols.ravel(), minlength=n * sample_size
    )
    x_padded = acc.reshape(n, c, hp, wp)
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded
