"""Flat-parameter view of a model.

Gradient sparsification (Section III of the paper) treats the model as a
single D-dimensional vector: clients accumulate residuals ``a_i ∈ R^D``,
upload top-k (index, value) pairs, and the server broadcasts k aggregated
pairs.  :class:`FlatModel` provides exactly that interface on top of a
:class:`repro.nn.layers.Sequential` network: getting/setting all weights as
one vector, computing the flat gradient of a minibatch, and evaluating
per-sample losses at arbitrary weight vectors (needed by the sign
estimator, which probes three different weight vectors per round).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn.layers import Sequential
from repro.nn.losses import SoftmaxCrossEntropy

#: Bytes of the widest per-group array one block of
#: :meth:`FlatModel.gradients_batched` may stack: a layer output or a
#: parameter's gradient.  It keeps a block's im2col and gradient
#: temporaries near the size of a 2 MiB per-core L2 cache: 2 suite-CNN
#: clients a block, whose largest im2col is 2.4 MB where the whole
#: 24-client stack's was 28 MB.  On a 2-vCPU Xeon, blocks of 1, 2 and
#: 4 clients ran one call in 86–89 ms, 8 in 94 ms and the whole stack
#: in 120 ms.  The suite MLP's 128 KiB first-layer weight gradient
#: makes its blocks 8 groups: as one pass of ≈ 38 groups, that stack
#: alone was ≈ 5 MB, which glibc trimmed and faulted back in every call.
BLOCK_BYTES = 1 << 20


class FlatModel:
    """A `Sequential` network plus softmax cross-entropy, exposed through
    flat vectors.

    Parameters
    ----------
    network:
        The layer stack.  Its parameter arrays are referenced (not copied);
        :meth:`set_weights` writes into them in place.
    """

    def __init__(self, network: Sequential) -> None:
        self.network = network
        self.loss = SoftmaxCrossEntropy()
        self._param_arrays = network.params
        self._shapes = [p.shape for p in self._param_arrays]
        self._sizes = [p.size for p in self._param_arrays]
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes)])
        self.dimension = int(self._offsets[-1])
        #: groups per block of :meth:`gradients_batched`, by minibatch shape
        self._block_groups: dict[tuple[int, ...], int] = {}

    # ------------------------------------------------------------------
    # Weight access
    # ------------------------------------------------------------------
    def get_weights(self) -> np.ndarray:
        """Copy of all parameters as one flat vector of length ``dimension``."""
        return np.concatenate([p.ravel() for p in self._param_arrays])

    def set_weights(self, flat: np.ndarray) -> None:
        """Write ``flat`` into the model parameters in place."""
        flat = np.asarray(flat)
        if flat.shape != (self.dimension,):
            raise ValueError(
                f"expected flat weights of shape ({self.dimension},), got {flat.shape}"
            )
        for arr, lo, hi, shape in zip(
            self._param_arrays, self._offsets[:-1], self._offsets[1:], self._shapes
        ):
            arr[...] = flat[lo:hi].reshape(shape)

    # ------------------------------------------------------------------
    # Gradient / loss evaluation
    # ------------------------------------------------------------------
    def gradient(
        self, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Flat gradient (length ``dimension``) of the mean loss on
        minibatch ``(x, y)`` at the current weights.

        The one-group case of :meth:`gradients_batched`.  With ``out`` (a
        float64 ``dimension``-row, e.g. a shared-memory row) the gradient
        is written there, and the returned row is a view of it: no row
        is allocated and none is copied.
        """
        param_grads = self._backprop(x[None], y[None])
        flat = np.empty((1, self.dimension)) if out is None else out[None]
        self._write_rows(param_grads, flat)
        return flat[0]

    def gradients_batched(
        self, xs: list[np.ndarray], ys: list[np.ndarray]
    ) -> np.ndarray:
        """Per-group flat gradients from stacked forward/backward passes.

        ``xs``/``ys`` are per-group minibatches of one common batch size
        (in FL: one minibatch per client, all at the synchronized weights).
        Returns an array of shape ``(groups, dimension)`` whose row ``g``
        equals ``self.gradient(xs[g], ys[g])`` byte for byte — both
        run :meth:`_backprop` and :meth:`_write_rows` — but the
        O(groups) Python loop over clients collapses into batched
        NumPy/BLAS work: the groups run in blocks of
        :meth:`groups_per_block`, one stacked pass each, every block
        writing its rows of the result in place.  A stack no wider than
        one block is one pass.  Raises ``ValueError`` when batch sizes
        differ.
        """
        groups = len(xs)
        if groups == 0 or len(ys) != groups:
            raise ValueError("need matching, non-empty xs and ys")
        batch = xs[0].shape[0]
        if any(x.shape[0] != batch for x in xs) or any(
            np.shape(y)[0] != batch for y in ys
        ):
            raise ValueError("all groups must share one batch size")
        block = self.groups_per_block(xs[0])
        flat = None
        for lo in range(0, groups, block):
            hi = lo + block
            param_grads = self._backprop(
                np.stack(xs[lo:hi]), np.asarray(ys[lo:hi])
            )
            if flat is None:
                # Allocated after the first backward, as gradient() does.
                # Allocated before the first forward, the result sat below
                # the pass's temporaries; freeing them let glibc trim the
                # heap top and every call faulted it back in (~1,300 minor
                # faults a call at churn_robust's geometry).
                flat = np.empty((groups, self.dimension))
            self._write_rows(param_grads, flat[lo:hi])
        return flat

    def groups_per_block(self, x: np.ndarray) -> int:
        """Groups one block of :meth:`gradients_batched` stacks for
        minibatches shaped like ``x``: :data:`BLOCK_BYTES` over the
        widest per-group array a pass stacks (at least one group).  That
        is a parameter's gradient (``p.nbytes`` a group, as
        ``backward_params`` returns it) or a layer output; the outputs
        are read once per shape from a one-group evaluation forward of
        ``x``.  The serial backend cuts a round's clients by the same
        rule, so each of its calls is one pass."""
        block = self._block_groups.get(x.shape)
        if block is None:
            # At least one byte: no zero divisor for an empty stack.
            widest = max([1] + [p.nbytes for p in self._param_arrays])
            h = x[None]
            with self._evaluation():
                for layer in self.network.layers:
                    h = layer.forward(h)
                    widest = max(widest, h.nbytes)
            block = self._block_groups[x.shape] = max(1, BLOCK_BYTES // widest)
        return block

    def _backprop(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """Per-layer parameter gradients (leading group axis) of each
        group's mean loss on the stacks ``x`` ``(groups, batch, *dims)``
        and ``y`` ``(groups, batch)``."""
        logits = self.network.forward(x)
        _, param_grads = self.network.backward(self.loss.backward(logits, y))
        return param_grads

    def _write_rows(self, param_grads: list[np.ndarray], out: np.ndarray) -> None:
        """Write :meth:`_backprop`'s gradients into ``out``, one flat
        ``dimension``-row per group."""
        for grads, lo, hi in zip(param_grads, self._offsets[:-1], self._offsets[1:]):
            out[:, lo:hi] = grads.reshape(out.shape[0], hi - lo)

    @contextmanager
    def _evaluation(self):
        """Run the body with the network in evaluation mode; the
        training flag is restored."""
        was_training = self.network.training
        self.network.train(False)
        try:
            yield
        finally:
            self.network.train(was_training)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """The network's forward of the stack ``x`` in evaluation mode."""
        with self._evaluation():
            return self.network.forward(x)

    def loss_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean loss on ``(x, y)`` at the current weights (no gradients)."""
        return self.loss.forward(self._evaluate(x[None])[0], y)

    def per_sample_losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Loss of each sample at the current weights, shape ``(batch,)``:
        each sample is its own group of one grouped pass, so its loss is
        the bytes of a one-sample call whatever else is in the batch."""
        logits = self._evaluate(x[:, None])
        return self.loss.per_sample(logits[:, 0], y)

    def loss_at(self, weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of ``(x, y)`` evaluated at an arbitrary weight vector.

        The current weights are restored afterwards.  Used by the
        derivative-sign estimator, which compares losses at ``w(m-1)``,
        ``w(m)`` and the probe weights ``w'(m)``.
        """
        saved = self.get_weights()
        try:
            self.set_weights(weights)
            return self.loss_value(x, y)
        finally:
            self.set_weights(saved)

    def per_sample_losses_at(
        self, weights: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Per-sample losses at an arbitrary weight vector (weights restored)."""
        saved = self.get_weights()
        try:
            self.set_weights(weights)
            return self.per_sample_losses(x, y)
        finally:
            self.set_weights(saved)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy at the current weights."""
        logits = self._evaluate(x[None])[0]
        return float((self.loss.predict(logits) == y).mean())
