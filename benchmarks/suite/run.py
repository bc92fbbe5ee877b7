"""The benchmark suite's one command.

Two ways in, one measurement underneath:

``python benchmarks/suite/run.py [--seed 0] [--quick] [--repeat-check]``
    the whole suite: five workloads, three untraced passes each,
    interleaved across workloads (pass 1 of all five, then pass 2, ...),
    plus one traced pass per workload.  Prints every metric by name with
    its unit, checks the outputs, and writes ``out/result_seed<n>.json``
    and ``out/trace_<workload>.json``.  Exits nonzero when the
    correctness gate counts a failure.

``python benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, the form ``BENCHMARK.json`` names: ``--trace 0``
    measures the end-to-end metrics over as many untraced passes as fit
    in ``S`` seconds (at least three), ``--trace 1`` the per-layer
    metrics from one untraced and one traced pass.  The last line of
    standard output is the result object.

Every pass is a fresh ``child.py`` process, started one at a time; this
process imports neither numpy nor the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
from trace import ROOT_SPAN, SPAN_NAMES  # noqa: E402

OUT = HERE / "out"
SRC = HERE.parents[1] / "src"
#: untraced passes per workload; five were measured to be no steadier
PASSES = 3
MAX_PASSES = 9
QUICK_ROUNDS = 10
#: a pass that takes longer than this is a hang, not a slow host
PASS_TIMEOUT_S = 170
RECONCILE_LIMIT = 0.01

# name -> (timed rounds per pass, target loss).  A pass takes about 4 s on
# the reference host, so three fit in the 12 s BENCHMARK.json asks for; each
# target sits in the gap all sized seeds leave between the losses of two
# consecutive evaluations (README.md), 50-80% of the way through the pass.
WORKLOADS = {
    "cnn_fixedk": (15, 4.2),
    "mlp_adaptivek": (100, 1.95),
    "mlp_sharded": (25, 3.92),
    "churn_robust": (45, 3.99),
    "async_adaptive": (130, 3.06),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("fl.engine.self_ms_per_round", "ms", "lower")]
    + [
        (f"{span}.{suffix}", unit, "lower")
        for span in SPAN_NAMES
        for suffix, unit in (("self_ms_per_round", "ms"),
                             ("calls_per_round", "count"))
    ]
    + [
        ("fl.engine.round_ms_p90", "ms", "lower"),
        ("fl.engine.warmup_round_ms", "ms", "lower"),
        ("sparsify.uplink_elements_per_round", "count", "lower"),
        ("sparsify.downlink_elements_per_round", "count", "lower"),
        ("online.k_mean", "count", "lower"),
        ("scenarios.cohort_mean", "count", "higher"),
        ("scenarios.dropped_uploads_per_round", "count", "lower"),
        ("fl.async_engine.staleness_mean", "count", "lower"),
        ("parallel.ipc_bytes_back_per_round", "B", "lower"),
        ("parallel.worker_cpu_ms_per_round", "ms", "lower"),
        ("parallel.serial_baseline_round_ms", "ms", "lower"),
        ("parallel.speedup_vs_serial", "x", "higher"),
        ("proc.cpu_ms_per_round", "ms", "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
    ]
)


def run_child(name: str, seed: int, rounds: int, trace_path=None) -> dict:
    """Run one pass in a fresh process and return what it printed."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", name,
               "--seed", str(seed), "--rounds", str(rounds)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    started = time.time()
    # Its own session, so a hung pass can be stopped with its workers.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{name}: pass exited with {child.returncode}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = result.pop("ready_at") - started
    return result


def per_layer(untraced: list[dict], traced: dict) -> dict:
    """The per-layer metrics of one workload from its traced pass, with
    the untraced passes as the reference the overhead is taken against."""
    trace = traced["trace"]
    rounds = len(traced["round_s"])
    values = {"fl.engine.self_ms_per_round":
              trace["layers"][ROOT_SPAN]["self_ms_per_round"]}
    for span in SPAN_NAMES:
        for suffix, value in trace["layers"][span].items():
            values[f"{span}.{suffix}"] = value
    values.update(trace["counts"])
    clean = sorted(metrics.index_median([p["round_s"] for p in untraced]))
    values["fl.engine.round_ms_p90"] = 1e3 * clean[int(0.9 * (rounds - 1))]
    values["fl.engine.warmup_round_ms"] = 1e3 * statistics.median(
        p["warmup_s"] for p in untraced
    )
    values["parallel.worker_cpu_ms_per_round"] = (
        1e3 * traced["worker_cpu_s"] / rounds
    )
    baseline_ms = trace.get("serial_baseline_round_ms", 0.0)
    values["parallel.serial_baseline_round_ms"] = baseline_ms
    values["parallel.speedup_vs_serial"] = (
        baseline_ms / (1e3 * statistics.median(clean))
    )
    values["proc.cpu_ms_per_round"] = 1e3 * statistics.median(
        p["cpu_s"] for p in untraced
    ) / rounds
    values["bench.trace_overhead_pct"] = 100.0 * (
        sum(traced["round_s"]) / sum(clean) - 1.0
    )
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def summarize(name: str, untraced: list[dict], traced: dict | None,
              target: float | None) -> dict:
    """Gate and metrics of one workload from its finished passes."""
    every = untraced + ([traced] if traced else [])
    violations = metrics.check_passes(every, target)
    summary = {}
    if traced is not None:
        trace = traced["trace"]
        if trace["reconcile_gap"] > RECONCILE_LIMIT:
            violations.append(
                f"traced pass: self times miss the rounds' total by "
                f"{100 * trace['reconcile_gap']:.2f}%"
            )
        if trace["wrappers_left"]:
            violations.append(
                f"traced pass: wrappers not removed: {trace['wrappers_left']}"
            )
        summary["per_layer"] = per_layer(untraced, traced)
    summary["end_to_end"] = metrics.end_to_end(untraced, target)
    summary["passes"] = len(untraced)
    summary["ops_attempted"] = sum(len(p["round_s"]) for p in every)
    summary["ops_failed"] = len(violations)
    summary["violations"] = violations
    for message in violations:
        print(f"FAILED {name}: {message}", file=sys.stderr)
    return summary


def host_block() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": 1,
    }


def print_summary(name: str, summary: dict) -> None:
    print(f"\n{name}  (passes {summary['passes']}, ops "
          f"{summary['ops_attempted']}, failed {summary['ops_failed']})")
    for group in ("end_to_end", "per_layer"):
        for metric, entry in summary.get(group, {}).items():
            print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")


# ----------------------------------------------------------------------
def run_suite(seed: int, passes: int, quick: bool) -> dict:
    """All five workloads, untraced passes interleaved, then traced."""
    OUT.mkdir(exist_ok=True)
    plan = {
        name: (QUICK_ROUNDS, None) if quick else spec
        for name, spec in WORKLOADS.items()
    }
    untraced: dict[str, list[dict]] = {name: [] for name in plan}
    for number in range(passes):
        for name, (rounds, _) in plan.items():
            print(f"pass {number + 1}/{passes} {name}", file=sys.stderr)
            untraced[name].append(run_child(name, seed, rounds))
    result = {"host": host_block(), "seed": seed, "quick": quick,
              "workloads": {}}
    for name, (rounds, target) in plan.items():
        print(f"traced pass {name}", file=sys.stderr)
        traced = run_child(name, seed, rounds, OUT / f"trace_{name}.json")
        result["workloads"][name] = summarize(
            name, untraced[name], traced, target
        )
        print_summary(name, result["workloads"][name])
    # This change defines the benchmark; it claims no gain.
    result["claim"] = None
    return result


def write_result(result: dict, label: str) -> Path:
    path = OUT / f"result_{label}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {path}")
    return path


def failed_ops(result: dict) -> int:
    return sum(w["ops_failed"] for w in result["workloads"].values())


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The ``BENCHMARK.json`` form: one workload, one result line."""
    rounds, target = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    untraced = [run_child(name, seed, rounds)]
    traced = None
    if trace:
        traced = run_child(name, seed, rounds, OUT / f"trace_{name}.json")
    else:
        # As many passes as fit in --seconds, an odd number so that the
        # index median is a measured value, never fewer than three.
        fit = int(seconds // sum(untraced[0]["round_s"]))
        passes = min(MAX_PASSES, max(PASSES, fit - (fit + 1) % 2))
        while len(untraced) < passes:
            untraced.append(run_child(name, seed, rounds))
    summary = summarize(name, untraced, traced, target)
    group = summary["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": summary["ops_failed"] == 0,
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"],
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in group.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke profile: 1 pass of 10 rounds, no target")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare the two sets")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmark needs the program under test at {SRC}",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = 1 if args.quick else PASSES
    if args.repeat_check:
        results = [run_suite(args.seed, passes, args.quick) for _ in "AB"]
        paths = [
            write_result(result, f"seed{args.seed}_{label}")
            for result, label in zip(results, "AB")
        ]
        return max(compare.main([str(p) for p in paths]),
                   int(any(failed_ops(r) for r in results)))
    result = run_suite(args.seed, passes, args.quick)
    write_result(result, f"seed{args.seed}")
    return int(failed_ops(result) > 0)


if __name__ == "__main__":
    sys.exit(main())
