"""Metric definitions and the arithmetic that derives them from passes.

Pure functions over the JSON objects ``child.py`` prints, so the harness
tests can feed them synthetic passes.  ``BENCHMARK.json`` repeats the
names, units, directions and bounds below (it has to be a static file);
``test_suite.py`` checks that the two agree.

Noise-robust timing.  Histories are bit-identical across passes, so
round ``i`` does the same work in every pass; the clean series is
``t_i = median over passes of round i's wall time`` and every wall-clock
end-to-end metric derives from it.  A stall that hits one pass therefore
moves no metric, where a sum or a mean over one pass would carry it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: allowed worsening, as a share of the baseline's median
    bound: float
    #: relative tolerance when both runs used one seed and the metric is
    #: a deterministic function of the history (None: a wall-clock metric)
    exact_rel: float | None = None


# Bounds are three times the widest across-seed spread measured on the
# reference host (README.md), capped at 0.25: the host's speed drifts by
# 10-15% from minute to minute, which no estimator inside one run removes.
END_TO_END = (
    Metric("rounds_per_s", "1/s", "higher", 0.25),
    Metric("round_ms_p50", "ms", "lower", 0.25),
    Metric("wall_to_target_s", "s", "lower", 0.25),
    Metric("sim_time_to_target", "normalized", "lower", 0.25, exact_rel=1e-9),
    Metric("final_loss", "loss", "lower", 0.15, exact_rel=1e-6),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
    Metric("setup_s", "s", "lower", 0.25),
)


def index_median(passes: list[list[float]]) -> list[float]:
    """``t_i``: the median over passes of round ``i``'s wall time."""
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes must time the same number of rounds")
    return [statistics.median(column) for column in zip(*passes)]


def first_crossing(
    losses: list[float | None], target: float | None
) -> int | None:
    """Index of the first evaluated round with loss <= target (None when
    there is none, or no target: the quick profile is too short for one)."""
    if target is None:
        return None
    for index, loss in enumerate(losses):
        if loss is not None and loss <= target:
            return index
    return None


def evaluated(losses: list[float | None]) -> list[float]:
    return [loss for loss in losses if loss is not None]


def check_passes(passes: list[dict], target: float | None) -> list[str]:
    """The correctness gate: one message per violated pass or round.

    Histories (loss, simulated time, k) must be identical in every pass,
    the traced one included, which is what proves the tracer's wrappers
    only observe; losses must be finite and decreasing, and the fixed
    target reached.
    """
    violations = []
    reference = passes[0]
    for number, current in enumerate(passes[1:], start=2):
        for key in ("loss", "cumulative_time", "k"):
            differing = sum(
                a != b for a, b in zip(reference[key], current[key])
            ) + abs(len(reference[key]) - len(current[key]))
            if differing:
                violations.append(
                    f"pass {number}: {key} differs from pass 1 in "
                    f"{differing} rounds"
                )
    losses = evaluated(reference["loss"])
    violations += [
        f"round with non-finite loss {loss}"
        for loss in losses if not math.isfinite(loss)
    ]
    if len(losses) < 2 or not losses[-1] < losses[0]:
        violations.append("last evaluated loss is not below the first")
    if target is not None:
        crossing = first_crossing(reference["loss"], target)
        if crossing is None:
            violations.append(f"target loss {target} not reached")
        elif crossing == 0:
            violations.append(
                f"target loss {target} met by the warm-up round"
            )
    return violations


def end_to_end(passes: list[dict], target: float | None) -> dict:
    """The seven end-to-end metrics of one workload, each with the value
    every single pass would have given (``per_pass``, the noise the
    comparison reports).

    History index 0 is the untimed warm-up round, so timed round ``i``
    (1-based) is history index ``i``.  With the target unreached the two
    time-to-target metrics cover the whole run; the gate reports it.
    """
    history = passes[0]
    crossing = first_crossing(history["loss"], target)
    if crossing in (None, 0):
        crossing = len(history["loss"]) - 1

    def wall_clock(t: list[float]) -> dict[str, float]:
        return {
            "rounds_per_s": len(t) / sum(t),
            "round_ms_p50": 1e3 * statistics.median(t),
            "wall_to_target_s": sum(t[:crossing]),
        }

    clean = wall_clock(index_median([p["round_s"] for p in passes]))
    single = [wall_clock(p["round_s"]) for p in passes]
    rss_mb = [p["maxrss_kb"] / 1024.0 for p in passes]
    setup_s = [p["setup_s"] for p in passes]
    values = {
        name: (clean[name], [s[name] for s in single]) for name in clean
    }
    values["sim_time_to_target"] = (history["cumulative_time"][crossing], [])
    values["final_loss"] = (evaluated(history["loss"])[-1], [])
    values["peak_rss_mb"] = (statistics.median(rss_mb), rss_mb)
    values["setup_s"] = (statistics.median(setup_s), setup_s)
    return {
        m.name: {
            "value": values[m.name][0],
            "unit": m.unit,
            "per_pass": values[m.name][1],
        }
        for m in END_TO_END
    }


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
