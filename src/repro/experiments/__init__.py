"""Per-figure reproduction drivers.

Each ``figN`` module reproduces the corresponding figure of the paper's
evaluation (Section V) through one harness (ROADMAP "Experiment
drivers"); ``tests/slow/`` asserts the paper's orderings on each.  All
drivers take an :class:`~repro.experiments.config.ExperimentConfig` so
the same code runs at smoke-test, benchmark, and paper scale.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import CrossApplicationResult, run_fig7, run_fig8
from repro.experiments.runner import build_federation, build_model, build_timing

__all__ = [
    "CrossApplicationResult",
    "ExperimentConfig",
    "Fig1Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "build_federation",
    "build_model",
    "build_timing",
    "run_fig1",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
]
