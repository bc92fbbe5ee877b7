"""Stochastic uniform quantization, composable with any sparsifier.

QSGD-style quantization (Alistarh et al.; the paper's reference [30] uses
the same family): a vector v is encoded as its max-magnitude scale ``s``
plus, per element, a sign and an integer level in {0, ..., L}, where the
level is drawn stochastically so the decoded value is **unbiased**:

    E[decode(encode(v))] = v.

With L levels a value costs ``1 + ceil(log2(L+1))`` bits instead of 32,
which the timing model can credit via :func:`pair_cost_elements`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sparsify.base import ClientUpload, SelectionResult, Sparsifier, SparseVector


@dataclass(frozen=True)
class QuantizedValues:
    """Encoded values: shared scale, per-element signed levels."""

    scale: float
    levels: np.ndarray  # signed ints in [-L, L]
    num_levels: int

    def decode(self) -> np.ndarray:
        """Reconstruct (unbiased) float values."""
        return self.scale * self.levels.astype(np.float64) / self.num_levels

    @property
    def bits_per_value(self) -> int:
        """Sign bit + level bits (scale amortized across the vector)."""
        return 1 + max(1, math.ceil(math.log2(self.num_levels + 1)))


class UniformQuantizer:
    """Stochastic uniform quantizer with ``num_levels`` positive levels."""

    def __init__(self, num_levels: int = 15, seed: int = 0) -> None:
        if num_levels < 1:
            raise ValueError("need at least one quantization level")
        self.num_levels = num_levels
        self._rng = np.random.default_rng(seed)

    def encode(self, values: np.ndarray) -> QuantizedValues:
        values = np.asarray(values, dtype=np.float64)
        scale = float(np.abs(values).max()) if values.size else 0.0
        if scale == 0.0:
            return QuantizedValues(
                scale=0.0,
                levels=np.zeros(values.shape, dtype=np.int64),
                num_levels=self.num_levels,
            )
        normalized = np.abs(values) / scale * self.num_levels
        floor = np.floor(normalized)
        frac = normalized - floor
        up = self._rng.random(values.shape) < frac
        magnitude = (floor + up).astype(np.int64)
        levels = np.sign(values).astype(np.int64) * magnitude
        return QuantizedValues(
            scale=scale, levels=levels, num_levels=self.num_levels
        )

    def roundtrip(self, values: np.ndarray) -> np.ndarray:
        """encode + decode in one call."""
        return self.encode(values).decode()


def pair_cost_elements(
    num_pairs: int,
    value_bits: int,
    index_bits: int = 32,
    element_bits: int = 32,
) -> float:
    """Convert quantized (index, value) pairs into timing-model elements.

    The timing model measures transfers in 32-bit "elements" (a dense
    gradient entry).  An unquantized pair costs 2 elements (the paper's
    footnote-5 factor); quantization shrinks the value part.
    """
    if num_pairs < 0 or value_bits < 1 or index_bits < 1 or element_bits < 1:
        raise ValueError("invalid bit/pair counts")
    return num_pairs * (index_bits + value_bits) / element_bits


class QuantizedSparsifier(Sparsifier):
    """Wrap a sparsifier so uploaded values are quantized before selection.

    The inner scheme decides *which* indices travel; this wrapper replaces
    the uploaded values with their quantized reconstruction, modelling the
    information loss of sending low-bit values.  ``uplink_value_bits``
    exposes the per-value cost for timing adjustments.

    Note: clients still keep full-precision residuals locally; only the
    transmitted copy is degraded, matching real quantized-GS systems
    (error feedback happens through the residual mechanism already).
    """

    def __init__(self, inner: Sparsifier, quantizer: UniformQuantizer) -> None:
        self.inner = inner
        self.quantizer = quantizer
        self.name = f"quantized({inner.name})"

    @property
    def discards_residual(self) -> bool:  # type: ignore[override]
        return self.inner.discards_residual

    @property
    def uplink_value_bits(self) -> int:
        probe = self.quantizer.encode(np.array([1.0]))
        return probe.bits_per_value

    def client_select(
        self, residual: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self.inner.client_select(residual, k, rng)

    def preprocess_uploads(
        self, uploads: list[ClientUpload]
    ) -> list[ClientUpload]:
        return [self._quantize_upload(up) for up in uploads]

    def preprocess_uploads_counterfactual(
        self, uploads: list[ClientUpload]
    ) -> list[ClientUpload]:
        # Stochastic rounding draws from the quantizer's stream; a
        # counterfactual replay must not advance it (the next real
        # round's quantization would diverge from a non-probing run), so
        # quantize against a snapshot and restore the state after.
        state = self.quantizer._rng.bit_generator.state
        try:
            return self.preprocess_uploads(uploads)
        finally:
            self.quantizer._rng.bit_generator.state = state

    def server_select(
        self, uploads: list[ClientUpload], k: int, dimension: int
    ) -> SelectionResult:
        return self.inner.server_select(uploads, k, dimension)

    def _quantize_upload(self, upload: ClientUpload) -> ClientUpload:
        encoded = self.quantizer.encode(upload.payload.values)
        # The index row comes from an already-validated payload (sorted,
        # unique, in range), so the rewrapped upload takes the trusted
        # constructor instead of re-validating every round.
        return ClientUpload(
            client_id=upload.client_id,
            payload=SparseVector.from_sorted(
                upload.payload.indices,
                encoded.decode(),
                upload.payload.dimension,
            ),
            sample_count=upload.sample_count,
        )
