"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per (workload, pass).  It builds the
workload, runs one untimed warm-up round, then ``--rounds`` timed rounds
back to back (closed loop, one driver), and prints one JSON object: the
per-round wall times, the history the correctness gate compares across
passes, set-up time, memory and CPU.  With ``--trace PATH`` the layer
wrappers of :mod:`trace` are installed for this pass only and the spans
are written to ``PATH``.
"""

from __future__ import annotations

import os

# Before numpy is imported: OpenBLAS here is built with MAX_THREADS=64
# and unpinned it oversubscribes the two cores the benchmark runs on.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
SERIAL_BASELINE_ROUNDS = 20


def _timed_rounds(built, rounds: int, tracer=None) -> list[float]:
    seconds = []
    for index in range(rounds):
        if tracer is not None:
            tracer.round = index + 1
        start = time.perf_counter()
        built.step()
        seconds.append(time.perf_counter() - start)
    return seconds


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_pass(name: str, seed: int, rounds: int, trace_path: str | None) -> dict:
    from trace import Tracer, layer_summary, reconcile
    from workloads import BUILDERS, build_mlp_sharded

    built = BUILDERS[name](seed)
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install(built)
    start = time.perf_counter()
    built.step()
    warmup_s = time.perf_counter() - start
    # Set-up ends here: run.py subtracts the wall time at which it
    # started this process, so interpreter start and imports count.
    ready_at = time.time()

    cpu_start = time.process_time()
    round_s = _timed_rounds(built, rounds, tracer)
    cpu_s = time.process_time() - cpu_start

    trainer = built.trainer
    records = trainer.history.records
    result = {
        "ready_at": ready_at,
        "warmup_s": warmup_s,
        "round_s": round_s,
        "cpu_s": cpu_s,
        # JSON has no NaN: rounds the evaluation cadence skipped carry None.
        "loss": [None if math.isnan(r.loss) else r.loss for r in records],
        "cumulative_time": [r.cumulative_time for r in records],
        "k": [r.k for r in records],
    }
    if tracer is not None:
        tracer.remove()
        timed = records[1:]
        counts = {
            "sparsify.uplink_elements_per_round":
                _mean(r.uplink_elements for r in timed),
            "sparsify.downlink_elements_per_round":
                _mean(r.downlink_elements for r in timed),
            "online.k_mean": _mean(r.k for r in timed),
            "parallel.ipc_bytes_back_per_round":
                tracer.ipc_bytes_back / rounds,
        }
        if built.scenario is not None:
            deliveries = built.scenario.stats.rounds[1:]
            counts["scenarios.cohort_mean"] = _mean(
                d.cohort for d in deliveries
            )
            counts["scenarios.dropped_uploads_per_round"] = _mean(
                len(d.dropped_ids) for d in deliveries
            )
        staleness = getattr(trainer, "staleness_history", None)
        if staleness is not None:
            counts["fl.async_engine.staleness_mean"] = _mean(staleness[1:])
        result["trace"] = {
            "reconcile_gap": reconcile(tracer.spans),
            "layers": layer_summary(tracer.spans, rounds),
            "counts": counts,
            "wrappers_left": sorted(
                attr for obj in (trainer, trainer.engine.model)
                for attr in vars(obj) if callable(vars(obj)[attr])
            ),
        }
        tracer.dump(trace_path)

    trainer.close()
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Linux reports ru_maxrss in KiB; for reaped children it is the
    # largest single worker, so the sum is the parent plus one worker.
    result["maxrss_kb"] = own.ru_maxrss + reaped.ru_maxrss
    result["worker_cpu_s"] = reaped.ru_utime + reaped.ru_stime

    if tracer is not None and built.pool is not None:
        baseline = build_mlp_sharded(seed, serial=True)
        baseline.step()
        result["trace"]["serial_baseline_round_ms"] = 1e3 * statistics.median(
            _timed_rounds(baseline, SERIAL_BASELINE_ROUNDS)
        )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", default=None,
                        help="write this pass's spans to this file")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        sys.exit(f"benchmark needs the program under test at {SRC}")
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_pass(args.workload, args.seed, args.rounds, args.trace)))


if __name__ == "__main__":
    main()
