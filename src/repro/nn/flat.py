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

import numpy as np

from repro.nn.layers import Sequential
from repro.nn.losses import SoftmaxCrossEntropy


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

    # ------------------------------------------------------------------
    # Weight access
    # ------------------------------------------------------------------
    def parameter_slices(self) -> list[slice]:
        """Flat-vector slice of each parameter array, in layer order.

        Layer-wise sparsifiers (e.g. :class:`repro.sparsify.layerwise.
        LayerwiseTopK`) use these to budget k across layers.
        """
        return [
            slice(int(lo), int(hi))
            for lo, hi in zip(self._offsets[:-1], self._offsets[1:])
        ]

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
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Flat gradient of the mean loss on minibatch ``(x, y)``.

        Returns ``(grad, loss_value)`` where ``grad`` has length
        ``dimension`` and ``loss_value`` is the mean minibatch loss at the
        current weights.  The one-group case of :meth:`gradients_batched`.
        """
        flat, logits = self._flat_gradients(x[None], y[None])
        return flat[0], self.loss.forward(logits[0], y)

    def gradients_batched(
        self, xs: list[np.ndarray], ys: list[np.ndarray]
    ) -> np.ndarray:
        """Per-group flat gradients in one stacked forward/backward pass.

        ``xs``/``ys`` are per-group minibatches of one common batch size
        (in FL: one minibatch per client, all at the synchronized weights).
        Returns an array of shape ``(groups, dimension)`` whose row ``g``
        equals ``self.gradient(xs[g], ys[g])[0]`` byte for byte — both
        run :meth:`_flat_gradients` — but the network runs a single
        stacked pass: the O(groups) Python loop over clients collapses
        into batched NumPy/BLAS work.  Raises ``ValueError`` when batch
        sizes differ.
        """
        groups = len(xs)
        if groups == 0 or len(ys) != groups:
            raise ValueError("need matching, non-empty xs and ys")
        batch = xs[0].shape[0]
        if any(x.shape[0] != batch for x in xs) or any(
            np.shape(y)[0] != batch for y in ys
        ):
            raise ValueError("all groups must share one batch size")
        return self._flat_gradients(np.stack(xs), np.asarray(ys))[0]

    def _flat_gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(groups, dimension)`` gradients of each group's mean loss on
        the stacks ``x`` ``(groups, batch, *dims)`` and ``y``
        ``(groups, batch)``, plus the training-mode logits."""
        logits = self.network.forward(x)
        _, param_grads = self.network.backward(self.loss.backward(logits, y))
        flat = np.empty((x.shape[0], self.dimension))
        for grads, lo, hi in zip(param_grads, self._offsets[:-1], self._offsets[1:]):
            flat[:, lo:hi] = grads.reshape(x.shape[0], hi - lo)
        return flat, logits

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """The network's forward of the stack ``x`` in evaluation mode;
        the training flag is restored."""
        was_training = self.network.training
        self.network.train(False)
        try:
            return self.network.forward(x)
        finally:
            self.network.train(was_training)

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
