"""Softmax cross-entropy with per-sample access.

The derivative-sign estimator in Section IV-E of the paper evaluates the
loss of a *single* sample ``h`` at three different weight vectors, so the
loss exposes both the batch-mean value (used for training) and the
per-sample vector (used by the estimator and by fine-grained metrics).
"""

from __future__ import annotations

import numpy as np


class SoftmaxCrossEntropy:
    """Softmax + cross-entropy on integer class labels.

    ``predictions`` are raw logits of shape ``(batch, classes)``; ``targets``
    are integer labels of shape ``(batch,)``.  :meth:`backward` takes the
    grouped shapes of :mod:`repro.nn.layers` instead.
    """

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        return float(self.per_sample(predictions, targets).mean())

    def per_sample(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Loss of each sample in the batch, shape ``(batch,)``."""
        log_probs = _log_softmax(predictions)
        batch = np.arange(predictions.shape[0])
        return -log_probs[batch, targets.astype(np.intp)]

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of each group's *mean* loss w.r.t. its predictions.

        ``predictions`` has shape ``(groups, batch, classes)`` and
        ``targets`` shape ``(groups, batch)``; each group's gradient is
        normalized by its own batch size.
        """
        probs = _softmax(predictions)
        groups, batch = predictions.shape[0], predictions.shape[1]
        labels = np.asarray(targets).astype(np.intp)
        grad = probs
        grad[np.arange(groups)[:, None], np.arange(batch)[None, :], labels] -= 1.0
        return grad / batch

    def predict(self, predictions: np.ndarray) -> np.ndarray:
        """Hard class decisions from logits."""
        return predictions.argmax(axis=1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)
