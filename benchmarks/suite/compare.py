"""Compare two result files of the suite: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate.  One row per workload and
end-to-end metric, with the candidate's value as a ratio *of the base*
and a verdict:

``better`` / ``worse``
    the candidate's value moved by more than the metric's bound (for the
    two history-derived metrics at one seed: beyond rounding);
``within``
    it did not;
``unresolved``
    the passes of either run spread wider than the bound, so a move of
    that size cannot be told from noise; not reported as unchanged.
    Decided all the same when every pass of one run beats every pass of
    the other.

Exits nonzero on any ``worse`` row or when the candidate failed a larger
share of its operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import END_TO_END, Metric, spread


def worsening(metric: Metric, base: float, candidate: float) -> float:
    """Signed change as a share of the base; positive means worse."""
    change = (candidate - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: Metric, base: dict, candidate: dict, same_seed: bool) -> str:
    moved = worsening(metric, base["value"], candidate["value"])
    bound = metric.bound
    if metric.exact_rel is not None and same_seed:
        bound = metric.exact_rel
    elif max(spread(base["per_pass"]), spread(candidate["per_pass"])) > bound:
        # Too noisy for the bound, unless the passes do not even overlap.
        sign = 1.0 if metric.better == "lower" else -1.0
        a = [sign * v for v in base["per_pass"]]
        b = [sign * v for v in candidate["per_pass"]]
        if min(b) > max(a) and moved > bound:
            return "worse"
        if max(b) < min(a) and moved < -bound:
            return "better"
        return "unresolved"
    if moved > bound:
        return "worse"
    if moved < -bound:
        return "better"
    return "within"


def compare(base: dict, candidate: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base, candidate, unit, ratio, verdict)``
    and whether the candidate counts as a regression."""
    same_seed = base["seed"] == candidate["seed"]
    rows = []
    regressed = False
    for name, base_workload in base["workloads"].items():
        cand_workload = candidate["workloads"][name]
        for metric in END_TO_END:
            a = base_workload["end_to_end"][metric.name]
            b = cand_workload["end_to_end"][metric.name]
            outcome = verdict(metric, a, b, same_seed)
            rows.append((name, metric.name, a["value"], b["value"],
                         metric.unit, b["value"] / a["value"], outcome))
            regressed |= outcome == "worse"
        base_share = base_workload["ops_failed"] / base_workload["ops_attempted"]
        cand_share = cand_workload["ops_failed"] / cand_workload["ops_attempted"]
        if cand_share > base_share:
            print(f"{name}: failed share rose from {base_share:.4f} of "
                  f"{base_workload['ops_attempted']} to {cand_share:.4f} of "
                  f"{cand_workload['ops_attempted']} operations")
            regressed = True
    return rows, regressed


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(p).read_text()) for p in paths)
    rows, regressed = compare(base, candidate)
    print(f"{'workload':<15} {'metric':<19} {'base':>12} {'candidate':>12} "
          f"{'unit':<10} {'cand/base':>9}  verdict")
    for name, metric, a, b, unit, ratio, outcome in rows:
        print(f"{name:<15} {metric:<19} {a:>12.6g} {b:>12.6g} {unit:<10} "
              f"{ratio:>9.4f}  {outcome}")
    return int(regressed)


if __name__ == "__main__":
    sys.exit(main())
