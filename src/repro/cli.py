"""Command-line interface: regenerate paper figures and export artifacts.

Usage::

    python -m repro.cli fig4 --out results/ --scale bench
    python -m repro.cli fig7 --out results/ --rounds 200 --seed 1
    python -m repro.cli fig5 --out results/ --backend serial
    python -m repro.cli fig4 --backend sharded --jobs 4
    python -m repro.cli sweep --scale smoke --jobs 2
    python -m repro.cli scenario --deadline 2.5 2.5 9 --over-selection 0.3
    python -m repro.cli scenario --deadline-policy adaptive
    python -m repro.cli scenario --async --staleness adaptive
    python -m repro.cli scenario --adversary-fraction 0.25 --aggregator median
    python -m repro.cli adversary --adversary-kind sign_flip
    python -m repro.cli list

Each figure command runs the corresponding experiment driver
(:mod:`repro.experiments`) and writes JSON + CSV artifacts into ``--out``.
``--scale`` picks a configuration preset: ``smoke`` (seconds), ``bench``
(tens of seconds, the benchmark suite's setting), ``default`` (minutes),
or ``paper`` (the paper's 156-client scale; hours).

``--backend`` selects the execution backend (the in-process ``serial``
or the multiprocessing ``sharded``); ``--jobs N`` sets the sharded worker
count (0 = all usable CPUs) and implies ``--backend sharded`` when more
than one worker is requested without an explicit backend.  Histories are
bit-identical across backends — only wall-clock speed changes.

``scenario`` wraps the fixed-k and adaptive-k trainers in a deployment
scenario — availability churn, straggler profiles, and a deadline-gated
server that drops late uploads (recovered later through residual
accumulation); see :mod:`repro.scenarios` and :mod:`repro.experiments.
scenario`.  ``--deadline-policy {fixed,cycling,adaptive}`` selects how
the deadline evolves — ``adaptive`` learns it online (the dual of the
learned k) — and the run also writes a fixed-vs-cycling-vs-adaptive
comparison panel (``scenario_deadline_policies``).  ``--async`` (or any
of ``--staleness``/``--commit-count``) additionally runs the
asynchronous staleness-weighted commit comparison
(:mod:`repro.fl.async_engine`): the synchronous full-barrier baseline
vs async commits under each staleness discount on the same
heterogeneous timing, written as ``scenario_async_*`` artifacts.

``adversary`` runs the Byzantine attack x defense panel
(:mod:`repro.experiments.adversary`): the same FAB-top-k trainer per
(adversary fraction x aggregator) cell, in the sparse and dense upload
regimes, over an always-available population by default (add scenario
flags to attack under churn).  ``scenario`` accepts the same
``--adversary-*``/``--aggregator`` flags for a single attacked run.

``sweep`` runs a whole grid of figure configurations
(``--figures × --scales × --seeds × --backends``) across a process pool
(``--jobs`` sweep workers) with completed runs cached in a
content-addressed store (``--cache-dir``), so re-running a sweep only
computes what changed; see :mod:`repro.parallel.sweep`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.declared import add_flags, overrides_from
from repro.experiments.config import (
    SCALE_NAMES,
    ExperimentConfig,
    scaled_config,
)
from repro.fl.backends import BACKEND_NAMES
from repro.experiments.io import (
    export_figure_csv,
    figure_from_dict,
    write_json,
)
from repro.experiments.plotting import render_figure
from repro.obs import configure_cli_logging, get_logger
from repro.parallel.sweep import (
    SWEEP_FIGURES,
    SweepSpec,
    collect_artifacts,
    run_sweep,
)
from repro.scenarios import ScenarioConfig

#: every figure command is sweepable: one tuple, two names
FIGURES = SWEEP_FIGURES

logger = get_logger("cli")


def _run_figure(figure: str, config: ExperimentConfig, out: Path,
                plot: bool = False) -> list[str]:
    """Run one figure driver and write its artifacts; returns filenames.

    The figure → artifacts mapping is :func:`repro.parallel.sweep.
    collect_artifacts` — the same collector the sweep orchestrator
    caches, so `repro <figN>` output and cached sweep exports cannot
    drift apart.  Figure artifacts additionally get a CSV (and an
    optional ASCII chart); history artifacts are JSON-only.
    """
    written: list[str] = []
    for name, payload in collect_artifacts(figure, config).items():
        write_json(out / f"{name}.json", payload)
        written.append(f"{name}.json")
        if payload.get("kind") != "figure":
            continue
        fig_data = figure_from_dict(payload)
        export_figure_csv(fig_data, out / f"{name}.csv")
        written.append(f"{name}.csv")
        if plot:
            try:
                print(render_figure(fig_data))
                print()
            except ValueError:
                pass  # empty panel (e.g. no accuracy series)
    return written


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The ``scenario``/``adversary`` flags that are not a field's value
    (every other deployment knob is declared on its
    :class:`~repro.scenarios.ScenarioConfig` field)."""
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="JSON availability trace "
                        '({"rounds": [[ids...], ...], "cycle": true}); '
                        "implies --availability trace")
    p.add_argument("--no-deadline-probe", action="store_true",
                   help="adaptive: disable the counterfactual probe "
                        "(freezes the deadline at its start value)")
    p.add_argument("--alpha-sweep", type=float, nargs="+", default=None,
                   metavar="ALPHA",
                   help="additionally run the scenario comparison at "
                        "each Dirichlet(ALPHA) label-skew split and "
                        "write a scenario x alpha panel "
                        "(scenario_dirichlet_alpha); eager "
                        "federations only")


def _scenario_overrides(
    args, seed: int, base: ScenarioConfig | None = None
) -> dict:
    """The ScenarioConfig dict the subcommand's flags describe.

    ``base`` is the preset unset flags fall back to: the churn regime
    for ``scenario``, an always-available population for ``adversary``
    (the panel isolates the Byzantine axis).
    """
    from repro.experiments.scenario import population_cohort
    from repro.scenarios.availability import load_trace_json

    if base is None:
        base = ScenarioConfig.default_churn()
    scenario = base.with_overrides(seed=seed)
    overrides = overrides_from(args, ScenarioConfig)
    if getattr(args, "population", None) and args.participants is None:
        # Population-scale runs must name a cohort: participants=0
        # ("all available") is an O(N) round, the one thing a virtual
        # population exists to avoid.
        overrides["participants"] = population_cohort()
    if (
        overrides.get("adversary_fraction", 0.0) > 0.0
        and "adversary" not in overrides
        and scenario.adversary == "none"
    ):
        # A positive fraction needs an attack; default to the headline one.
        overrides["adversary"] = "sign_flip"
    if "async_mode" not in overrides and (
        "staleness_discount" in overrides or "commit_count" in overrides
    ):
        # Async-only knobs are a request for the async comparison.
        overrides["async_mode"] = True
    if "deadline" in overrides:
        values = overrides["deadline"]
        overrides["deadline"] = (
            values[0] if len(values) == 1 else tuple(values)
        )
    if args.no_deadline_probe:
        overrides["deadline_probe"] = False
    effective_deadline = overrides.get("deadline", scenario.deadline)
    if overrides.get("deadline_policy") == "fixed" and isinstance(
        effective_deadline, tuple
    ):
        # An explicit fixed request against a schedule preset: compare
        # like with like by collapsing the cycle to its mean budget.
        # (Every other deadline rule is ScenarioConfig's.)
        overrides["deadline"] = sum(effective_deadline) / len(
            effective_deadline
        )
    if args.trace is not None:
        rounds, cycle = load_trace_json(args.trace)
        overrides["availability"] = "trace"
        overrides["trace"] = tuple(tuple(e) for e in rounds)
        overrides["trace_cycle"] = cycle
    return scenario.with_overrides(**overrides).to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures of Han et al., ICDCS 2020.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figure commands")
    for figure in FIGURES:
        if figure == "scenario":
            help_text = (
                "run a deployment scenario (availability churn + deadline-"
                "gated partial aggregation): fixed-k vs adaptive-k"
            )
        elif figure == "adversary":
            help_text = (
                "run the Byzantine attack x defense panel: convergence "
                "per (adversary fraction x aggregator), sparse and dense"
            )
        else:
            help_text = f"reproduce {figure} of the paper"
        p = sub.add_parser(figure, help=help_text)
        deployment = figure in ("scenario", "adversary")
        if deployment:
            add_flags(p, ScenarioConfig)
            _add_scenario_flags(p)
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--scale", default="bench", choices=SCALE_NAMES)
        # --population needs a scenario's cohort target to stay O(cohort).
        add_flags(
            p, ExperimentConfig, skip=() if deployment else ("population",)
        )
        p.add_argument("--plot", action="store_true",
                       help="render ASCII charts to stdout")
        p.add_argument("--verbose", action="store_true",
                       help="debug-level progress logging")
    ps = sub.add_parser(
        "sweep",
        help="run a cached grid of figure configs over a process pool",
    )
    ps.add_argument("--figures", nargs="+", default=list(SWEEP_FIGURES),
                    choices=SWEEP_FIGURES, metavar="FIG",
                    help=f"figures to sweep (default: all of {SWEEP_FIGURES})")
    ps.add_argument("--scale", "--scales", nargs="+", dest="scales",
                    default=["bench"], choices=SCALE_NAMES)
    ps.add_argument("--seeds", nargs="+", type=int, default=[0])
    ps.add_argument("--backends", nargs="+", default=["serial"],
                    choices=BACKEND_NAMES)
    ps.add_argument("--rounds", type=int, default=None,
                    help="override every unit's round count")
    ps.add_argument("--jobs", type=int, default=1,
                    help="sweep pool worker processes (1 = run inline, "
                         "0 = all usable CPUs)")
    ps.add_argument("--out", default=None,
                    help="also export every unit's artifacts here")
    ps.add_argument("--cache-dir", default="results/sweep-cache",
                    help="content-addressed results store directory")
    ps.add_argument("--force", action="store_true",
                    help="recompute cached units")
    ps.add_argument("--telemetry", default=None, metavar="PATH",
                    help="append each unit's trace events to PATH "
                         "(units run with config.telemetry set; the "
                         "cache key ignores it)")
    ps.add_argument("--verbose", action="store_true",
                    help="debug-level progress logging")
    pt = sub.add_parser(
        "trace-report",
        help="summarize a --telemetry JSONL trace file",
    )
    pt.add_argument("trace_file", metavar="FILE",
                    help="JSONL trace written by --telemetry")
    pt.add_argument("--json", action="store_true",
                    help="emit the summary as JSON instead of a table")
    pt.add_argument("--verbose", action="store_true",
                    help="debug-level progress logging")
    return parser


def _run_trace_report(args, parser) -> int:
    from repro.obs import format_trace_report, summarize_trace

    try:
        summary = summarize_trace(args.trace_file)
    except OSError as exc:
        parser.error(f"cannot read {args.trace_file}: {exc.strerror or exc}")
    except ValueError as exc:  # names the path and the line
        parser.error(str(exc))
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_trace_report(summary))
    return 0


def _run_sweep_command(args) -> int:
    spec = SweepSpec(
        figures=tuple(args.figures),
        scales=tuple(args.scales),
        seeds=tuple(args.seeds),
        backends=tuple(args.backends),
        rounds=args.rounds,
        telemetry=args.telemetry,
    )
    from repro.parallel.pool import default_worker_count

    report = run_sweep(
        spec,
        cache_dir=args.cache_dir,
        out=args.out,
        jobs=args.jobs if args.jobs >= 1 else default_worker_count(),
        force=args.force,
        echo=logger.info,
    )
    for result in report.results:
        timing = "cache hit" if result.status == "cached" else (
            f"{result.seconds:.2f}s"
        )
        logger.info(
            "%s: %s (%s), %d artifacts [%s]",
            result.unit.run_id, result.status, timing,
            len(result.artifacts), result.key[:12],
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(verbose=getattr(args, "verbose", False))
    if args.command == "list":
        for figure in FIGURES:
            print(figure)
        return 0
    if args.command == "trace-report":
        return _run_trace_report(args, parser)
    if args.command == "sweep":
        if args.jobs < 0:  # the pool size is not a config field
            parser.error(f"jobs must be in [0, inf), got {args.jobs}")
        return _run_sweep_command(args)

    overrides = overrides_from(args, ExperimentConfig)
    # What one flag implies about another (the only hand-written rules).
    if overrides.get("jobs", 1) != 1 and "backend" not in overrides:
        overrides["backend"] = "sharded"
    if "dirichlet_alpha" in overrides and "partition" not in overrides:
        overrides["partition"] = "dirichlet"
    try:
        config = scaled_config(args.scale, args.command).with_overrides(
            **overrides
        )
        if args.command in ("scenario", "adversary"):
            base = (
                ScenarioConfig(availability="always")
                if args.command == "adversary" else None
            )
            config = config.with_overrides(
                scenario=_scenario_overrides(args, config.seed, base=base)
            )
    except ValueError as error:
        # Out of a field's declared range, or an invalid combination.
        parser.error(str(error))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = _run_figure(args.command, config, out, plot=args.plot)
    if args.command == "scenario" and args.alpha_sweep:
        # The α panel is a CLI-only extra (it multiplies the scenario
        # run per α), kept out of collect_artifacts so sweep cache keys
        # and the cached artifact set stay exactly the figure suite's.
        from repro.experiments.io import figure_to_dict
        from repro.experiments.scenario import run_dirichlet_sweep

        panel = run_dirichlet_sweep(config, args.alpha_sweep)
        write_json(out / "scenario_dirichlet_alpha.json", figure_to_dict(panel))
        written.append("scenario_dirichlet_alpha.json")
        export_figure_csv(panel, out / "scenario_dirichlet_alpha.csv")
        written.append("scenario_dirichlet_alpha.csv")
        if args.plot:
            print(render_figure(panel))
            print()
    for name in written:
        print(out / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
