"""Gradient sparsification methods.

This package implements every GS scheme compared in the paper's Fig. 4:

- :class:`~repro.sparsify.fab_topk.FABTopK` — the paper's contribution:
  fairness-aware bidirectional top-k (Section III-B, Algorithm 1 server
  side), guaranteeing each client at least ⌊k/N⌋ selected elements.
- :class:`~repro.sparsify.fub_topk.FUBTopK` — fairness-unaware
  bidirectional top-k (global top-k over client uploads) [28], [31].
- :class:`~repro.sparsify.unidirectional.UnidirectionalTopK` — classic
  top-k where the downlink carries the union of client selections (up to
  kN elements) [22].
- :class:`~repro.sparsify.periodic.PeriodicK` — random-k / periodic
  averaging GS [8], [30].

All schemes share the client-side protocol (accumulate residual ``a_i``,
upload top-k or random-k pairs) and differ only in the server-side index
selection; the shared machinery lives in :mod:`repro.sparsify.base` and
:mod:`repro.sparsify.topk`.
"""

from repro.sparsify.base import (
    ClientUpload,
    DownlinkMessage,
    SelectionResult,
    Sparsifier,
    SparseVector,
)
from repro.sparsify.fab_topk import FABTopK, fair_select
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.layerwise import LayerwiseTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.topk import top_k_indices
from repro.sparsify.unidirectional import UnidirectionalTopK

__all__ = [
    "ClientUpload",
    "DownlinkMessage",
    "FABTopK",
    "FUBTopK",
    "LayerwiseTopK",
    "PeriodicK",
    "SelectionResult",
    "SparseVector",
    "Sparsifier",
    "UnidirectionalTopK",
    "fair_select",
    "top_k_indices",
]
