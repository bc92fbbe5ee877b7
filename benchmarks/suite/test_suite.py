"""Tests of the benchmark harness itself.

Run as ``PYTHONPATH=src python -m pytest benchmarks/suite`` (outside the
tier-1 ``testpaths``).  The arithmetic tests feed synthetic passes and
spans; the smoke test runs the ``--quick`` profile end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from trace import ROOT_SPAN, Span, Tracer, layer_summary, reconcile, self_times  # noqa: E402


def make_pass(round_s, losses=(4.0, None, 3.0, None, 2.0), rss_kb=100_000,
              setup_s=0.5):
    return {
        "setup_s": setup_s,
        "round_s": list(round_s),
        "loss": list(losses),
        "cumulative_time": [10.0 * (i + 1) for i in range(len(losses))],
        "k": [5.0] * len(losses),
        "maxrss_kb": rss_kb,
    }


# ----------------------------------------------------------------------
# the index-median estimator
# ----------------------------------------------------------------------
def test_stall_in_one_pass_moves_no_wall_clock_metric():
    base = [0.10, 0.11, 0.12, 0.13]
    clean = [make_pass(base) for _ in range(3)]
    stalled = [make_pass(base), make_pass([0.10, 5.0, 5.0, 0.13]),
               make_pass(base)]
    a = metrics.end_to_end(clean, target=2.5)
    b = metrics.end_to_end(stalled, target=2.5)
    for name in ("rounds_per_s", "round_ms_p50", "wall_to_target_s"):
        assert a[name]["value"] == b[name]["value"]
    # ... where the stalled pass on its own reads four times slower.
    assert b["rounds_per_s"]["per_pass"][1] < 0.25 * b["rounds_per_s"]["value"]


def test_end_to_end_definitions():
    passes = [make_pass([0.1, 0.2, 0.3, 0.4], rss_kb=kb, setup_s=setup)
              for kb, setup in ((102_400, 0.4), (204_800, 0.6), (307_200, 0.5))]
    e2e = metrics.end_to_end(passes, target=2.5)
    assert e2e["rounds_per_s"]["value"] == pytest.approx(4 / 1.0)
    assert e2e["round_ms_p50"]["value"] == pytest.approx(250.0)
    # Loss 2.0 <= 2.5 first holds at history index 4 = the 4th timed round.
    assert e2e["wall_to_target_s"]["value"] == pytest.approx(1.0)
    assert e2e["sim_time_to_target"]["value"] == 50.0
    assert e2e["final_loss"]["value"] == 2.0
    assert e2e["peak_rss_mb"]["value"] == 200.0
    assert e2e["setup_s"]["value"] == 0.5
    assert list(e2e) == [m.name for m in metrics.END_TO_END]


def test_index_median_rejects_ragged_passes():
    with pytest.raises(ValueError):
        metrics.index_median([[0.1, 0.2], [0.1]])


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
def test_gate_passes_identical_decreasing_histories():
    passes = [make_pass([0.1] * 4) for _ in range(3)]
    assert metrics.check_passes(passes, target=2.5) == []


def test_gate_counts_each_violation():
    good = make_pass([0.1] * 4)
    drifted = make_pass([0.1] * 4, losses=(4.0, None, 3.0, None, 2.000001))
    assert len(metrics.check_passes([good, drifted], target=2.5)) == 1
    diverged = make_pass([0.1] * 4, losses=(4.0, None, float("inf"), None, 5.0))
    messages = metrics.check_passes([diverged], target=2.5)
    assert any("non-finite" in m for m in messages)
    assert any("not below the first" in m for m in messages)
    assert any("not reached" in m for m in messages)
    assert metrics.check_passes([good], target=4.5) == [
        "target loss 4.5 met by the warm-up round"
    ]
    # The quick profile has no target.
    assert metrics.check_passes([good], target=None) == []


# ----------------------------------------------------------------------
# span arithmetic and wrapper hygiene
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span(ROOT_SPAN, 0.0, 10.0, None, 1),
        Span("nn.gradient", 1.0, 4.0, 0, 1),
        Span("data.minibatch", 2.0, 3.0, 1, 1),
        Span("sparsify.server_select", 5.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert reconcile(spans) == 0.0
    layers = layer_summary(spans, rounds=1)
    assert layers["nn.gradient"] == {
        "self_ms_per_round": 2000.0, "calls_per_round": 1.0,
    }
    assert layers["fl.server.aggregate"]["calls_per_round"] == 0.0


def test_span_outside_a_round_fails_reconciliation():
    with pytest.raises(AssertionError, match="outside a round"):
        reconcile([Span(ROOT_SPAN, 0.0, 1.0, None, 1),
                   Span("nn.evaluate", 2.0, 3.0, None, 1)])


class Layered:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def step(self):
        return self.outer()


def test_wrappers_nest_merge_same_layer_and_come_off():
    obj = Layered()
    tracer = Tracer()
    tracer.wrap(obj, ROOT_SPAN, "step")
    tracer.wrap(obj, "nn.evaluate", "outer", "inner")
    tracer.round = 1
    assert obj.step() == 2
    # inner ran inside outer under the same layer name: one span, not two.
    assert [(s.name, s.parent) for s in tracer.spans] == [
        (ROOT_SPAN, None), ("nn.evaluate", 0),
    ]
    tracer.remove()
    assert vars(obj) == {}
    assert obj.step() == 2 and len(tracer.spans) == 2


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def result(seed=0, failed=0, **overrides):
    values = {"rounds_per_s": 10.0, "round_ms_p50": 100.0,
              "wall_to_target_s": 5.0, "sim_time_to_target": 50.0,
              "final_loss": 2.0, "peak_rss_mb": 200.0, "setup_s": 1.0}
    values.update(overrides)
    end_to_end = {
        m.name: {
            "value": values[m.name], "unit": m.unit,
            "per_pass": [] if m.exact_rel else [values[m.name]] * 3,
        }
        for m in metrics.END_TO_END
    }
    return {"seed": seed, "workloads": {"w": {
        "end_to_end": end_to_end, "ops_attempted": 100, "ops_failed": failed,
    }}}


def verdicts(base, candidate):
    rows, regressed = compare.compare(base, candidate)
    return {row[1]: row[6] for row in rows}, regressed


def test_compare_applies_direction_and_bound():
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    got, regressed = verdicts(result(), result(
        rounds_per_s=10.0 * (1 + 1.2 * bounds["rounds_per_s"]),
        round_ms_p50=100.0 * (1 + 0.5 * bounds["round_ms_p50"]),
        peak_rss_mb=200.0 * (1 + 1.2 * bounds["peak_rss_mb"]),
    ))
    assert got["rounds_per_s"] == "better"      # higher is better
    assert got["round_ms_p50"] == "within"      # half the bound
    assert got["peak_rss_mb"] == "worse"        # beyond the bound
    assert regressed
    assert verdicts(result(), result())[1] is False


def test_compare_history_metrics_are_exact_at_one_seed():
    got, regressed = verdicts(result(), result(final_loss=2.00001))
    assert got["final_loss"] == "worse" and regressed
    # Across seeds the loss legitimately differs; the bound applies.
    got, regressed = verdicts(result(seed=0), result(seed=1, final_loss=2.01))
    assert got["final_loss"] == "within" and not regressed


def test_compare_reports_noise_as_unresolved():
    noisy = result()
    noisy["workloads"]["w"]["end_to_end"]["rounds_per_s"]["per_pass"] = [
        6.0, 10.0, 14.0,
    ]
    got, regressed = verdicts(noisy, result(rounds_per_s=7.0))
    assert got["rounds_per_s"] == "unresolved" and not regressed
    # Every pass of the candidate slower than every pass of the base.
    got, regressed = verdicts(noisy, result(rounds_per_s=4.0))
    assert got["rounds_per_s"] == "worse" and regressed


def test_compare_fails_on_larger_failed_share():
    assert verdicts(result(), result(failed=1))[1] is True


# ----------------------------------------------------------------------
# the static files agree with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    from workloads import BUILDERS

    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(BUILDERS) == list(run.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in run.PER_LAYER
    ]
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def test_quick_profile_smoke_runs_all_workloads():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 30.0
    result = json.loads((HERE / "out" / "result_seed0.json").read_text())
    assert result["claim"] is None and result["quick"] is True
    assert list(result["workloads"]) == list(run.WORKLOADS)
    for name, workload in result["workloads"].items():
        assert workload["ops_failed"] == 0, workload["violations"]
        assert list(workload["end_to_end"]) == [
            m.name for m in metrics.END_TO_END
        ]
        assert all(e["value"] > 0 for e in workload["end_to_end"].values())
        assert len(workload["per_layer"]) == len(run.PER_LAYER)
        pool_calls = workload["per_layer"][
            "parallel.compute_gradients.calls_per_round"]["value"]
        assert pool_calls == (1.0 if name == "mlp_sharded" else 0.0)
        assert f"{name}  (passes 1" in done.stdout
