"""Command-line interface: regenerate paper figures and export artifacts.

Usage::

    python -m repro.cli fig4 --out results/ --scale bench
    python -m repro.cli fig7 --out results/ --rounds 200 --seed 1
    python -m repro.cli fig5 --out results/ --backend vectorized
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

``--backend`` selects the execution backend (``serial``, ``vectorized``,
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

FIGURES = (
    "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "scenario", "adversary",
)

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
    """Deployment-scenario knobs of the ``scenario`` subcommand.

    Defaults are ``None`` so unset flags leave the preset
    (:meth:`repro.scenarios.ScenarioConfig.default_churn`, seeded from
    the experiment seed) untouched.
    """
    from repro.scenarios import (
        AVAILABILITY_KINDS,
        DEADLINE_POLICY_KINDS,
        REWEIGHT_MODES,
    )

    p.add_argument("--availability", default=None, choices=AVAILABILITY_KINDS,
                   help="who is online each round (default: markov churn)")
    p.add_argument("--p-drop", type=float, default=None,
                   help="markov: per-round P(online -> offline)")
    p.add_argument("--p-recover", type=float, default=None,
                   help="markov: per-round P(offline -> online)")
    p.add_argument("--period", type=int, default=None,
                   help="diurnal: rounds per day cycle")
    p.add_argument("--duty", type=float, default=None,
                   help="diurnal: fraction of the cycle a client is online")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="JSON availability trace "
                        '({"rounds": [[ids...], ...], "cycle": true}); '
                        "implies --availability trace")
    p.add_argument("--participants", type=int, default=None,
                   help="uploads aggregated per round, m (0 = all available)")
    p.add_argument("--over-selection", type=float, default=None,
                   help="sample m*(1+eps) clients, aggregate the first m "
                        "to finish")
    p.add_argument("--deadline", type=float, nargs="+", default=None,
                   help="round deadline(s); several values cycle "
                        "(periodic straggler amnesty)")
    p.add_argument("--deadline-policy", default=None,
                   choices=DEADLINE_POLICY_KINDS,
                   help="how the deadline evolves: fixed (a schedule "
                        "preset collapses to its mean), cycling, or "
                        "adaptive (the server learns the deadline online "
                        "over [--deadline-min, --deadline-max], the dual "
                        "of the learned k; the interval defaults to the "
                        "schedule's min/max, or to [d/2, 2d] around a "
                        "single --deadline d)")
    p.add_argument("--deadline-min", type=float, default=None,
                   help="adaptive: lower edge of the deadline interval")
    p.add_argument("--deadline-max", type=float, default=None,
                   help="adaptive: upper edge of the deadline interval")
    p.add_argument("--no-deadline-probe", action="store_true",
                   help="adaptive: disable the counterfactual probe "
                        "(freezes the deadline at its start value)")
    p.add_argument("--min-uploads", type=int, default=None,
                   help="floor of accepted uploads per round")
    p.add_argument("--reweight", default=None, choices=REWEIGHT_MODES,
                   help="partial-aggregate normalization: over arrivals "
                        "or over the sampled cohort")
    p.add_argument("--slow-fraction", type=float, default=None,
                   help="fraction of clients that are stragglers")
    p.add_argument("--slow-factor", type=float, default=None,
                   help="compute+comm slowdown of a straggler")
    p.add_argument("--async", dest="async_mode", action="store_const",
                   const=True, default=None,
                   help="additionally run the asynchronous staleness-"
                        "weighted commit comparison (sync barrier vs "
                        "async commits per staleness discount, equal "
                        "simulated time; writes scenario_async_*)")
    p.add_argument("--staleness", default=None,
                   choices=("constant", "poly", "polynomial", "adaptive"),
                   help="staleness discount of async commits: constant "
                        "(no correction), poly[nomial] (1+s)^-a, or "
                        "adaptive (the exponent a learned online, a "
                        "third dual of the learned k); implies --async")
    p.add_argument("--commit-count", type=int, default=None,
                   help="arrivals the async server buffers per commit "
                        "(0 = half the target cohort); implies --async")
    p.add_argument("--population", type=int, default=None, metavar="N",
                   help="run over a virtual population of N clients "
                        "(e.g. 1000000): per-client data, availability "
                        "and straggler profiles regenerate from (seed, "
                        "id) on demand, so rounds cost O(cohort) and "
                        "memory O(ever-sampled) at any N; pairs with "
                        "--participants m (defaults to a small fixed "
                        "cohort — an all-available round would be O(N))")
    p.add_argument("--alpha-sweep", type=float, nargs="+", default=None,
                   metavar="ALPHA",
                   help="additionally run the scenario comparison at "
                        "each Dirichlet(ALPHA) label-skew split and "
                        "write a scenario x alpha panel "
                        "(scenario_dirichlet_alpha); eager "
                        "federations only")
    _add_adversary_flags(p)


def _add_adversary_flags(p: argparse.ArgumentParser) -> None:
    """Byzantine-attack + robust-aggregation knobs.

    Shared by ``scenario`` (one attack x defense run under churn) and
    ``adversary`` (the attack x defense panel, where the kind/scale set
    the mounted attack and the fraction/aggregator of each cell are
    swept by the driver).
    """
    from repro.fl.robust import AGGREGATOR_KINDS
    from repro.scenarios import ADVERSARY_KINDS

    p.add_argument("--adversary-kind", default=None, choices=ADVERSARY_KINDS,
                   help="Byzantine attack mounted by designated clients "
                        "(default: none for scenario, sign_flip for the "
                        "adversary panel)")
    p.add_argument("--adversary-fraction", type=float, default=None,
                   help="probability each client is Byzantine (one "
                        "seeded draw per client); a positive value "
                        "implies --adversary-kind sign_flip")
    p.add_argument("--adversary-scale", type=float, default=None,
                   help="attack magnitude (sign-flip/scale multiplier, "
                        "noise amplitude in upload-RMS units)")
    p.add_argument("--aggregator", default=None, choices=AGGREGATOR_KINDS,
                   help="server aggregation rule; mean is the paper's "
                        "weighted mean, the others are "
                        "Byzantine-tolerant")
    p.add_argument("--trim-fraction", type=float, default=None,
                   help="per-coordinate trim rate of the trimmed_mean "
                        "aggregator")


def _scenario_overrides(
    args, seed: int, base: "ScenarioConfig | None" = None
) -> dict:
    """The ScenarioConfig dict the subcommand's flags describe.

    ``base`` is the preset unset flags fall back to: the churn regime
    for ``scenario``, an always-available population for ``adversary``
    (the panel isolates the Byzantine axis).
    """
    from repro.scenarios import ScenarioConfig
    from repro.scenarios.availability import load_trace_json

    if base is None:
        base = ScenarioConfig.default_churn()
    scenario = base.with_overrides(seed=seed)
    overrides = {}
    if getattr(args, "population", None) and args.participants is None:
        # Population-scale runs must name a cohort: participants=0
        # ("all available") is an O(N) round, the one thing a virtual
        # population exists to avoid.
        from repro.experiments.scenario import DEFAULT_POPULATION_COHORT

        overrides["participants"] = DEFAULT_POPULATION_COHORT
    for flag, field_name in (
        ("availability", "availability"), ("p_drop", "p_drop"),
        ("p_recover", "p_recover"), ("period", "period"), ("duty", "duty"),
        ("participants", "participants"),
        ("over_selection", "over_selection"), ("min_uploads", "min_uploads"),
        ("reweight", "reweight"), ("slow_fraction", "slow_fraction"),
        ("slow_factor", "slow_factor"),
        ("async_mode", "async_mode"), ("staleness", "staleness_discount"),
        ("commit_count", "commit_count"),
        ("deadline_policy", "deadline_policy"),
        ("deadline_min", "deadline_min"), ("deadline_max", "deadline_max"),
        ("adversary_kind", "adversary"),
        ("adversary_fraction", "adversary_fraction"),
        ("adversary_scale", "adversary_scale"),
        ("aggregator", "aggregator"), ("trim_fraction", "trim_fraction"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
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
    if args.deadline is not None:
        overrides["deadline"] = (
            args.deadline[0] if len(args.deadline) == 1
            else tuple(args.deadline)
        )
    if args.no_deadline_probe:
        overrides["deadline_probe"] = False
    policy = overrides.get("deadline_policy")
    effective_deadline = overrides.get("deadline", scenario.deadline)
    if policy == "fixed" and isinstance(effective_deadline, tuple):
        # An explicit fixed request against a schedule preset: compare
        # like with like by collapsing the cycle to its mean budget.
        overrides["deadline"] = sum(effective_deadline) / len(
            effective_deadline
        )
    elif policy == "cycling" and isinstance(effective_deadline, float):
        overrides["deadline"] = (effective_deadline,)
    elif (
        policy == "adaptive"
        and isinstance(effective_deadline, (int, float))
        and "deadline_min" not in overrides
        and "deadline_max" not in overrides
    ):
        # A single deadline has no schedule to seed the interval from;
        # search around it (matching the comparison panel's convention).
        overrides["deadline_min"] = effective_deadline / 2.0
        overrides["deadline_max"] = effective_deadline * 2.0
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
        if figure in ("scenario", "adversary"):
            _add_scenario_flags(p)
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--scale", default="bench", choices=SCALE_NAMES)
        p.add_argument("--rounds", type=int, default=None,
                       help="override the preset's round count")
        p.add_argument("--seed", type=int, default=None,
                       help="override the preset's seed")
        p.add_argument("--comm-time", type=float, default=None,
                       help="override the preset's communication time")
        p.add_argument("--backend", default=None,
                       choices=BACKEND_NAMES,
                       help="execution backend for the trainers "
                            "(vectorized batches all clients per round, "
                            "sharded fans them out over worker processes; "
                            "identical results, faster)")
        p.add_argument("--jobs", type=int, default=None,
                       help="sharded worker processes (0 = all usable "
                            "CPUs); any value except 1 implies "
                            "--backend sharded")
        p.add_argument("--partition", default=None,
                       choices=("auto", "dirichlet"),
                       help="client partition: auto follows the paper "
                            "(femnist by writer, cifar by class); "
                            "dirichlet applies a Dirichlet(alpha) "
                            "label-skew split")
        p.add_argument("--dirichlet-alpha", type=float, default=None,
                       help="Dirichlet concentration for --partition "
                            "dirichlet (small = near-single-class "
                            "clients, large = near-IID); implies "
                            "--partition dirichlet")
        p.add_argument("--plot", action="store_true",
                       help="render ASCII charts to stdout")
        p.add_argument("--telemetry", default=None, metavar="PATH",
                       help="trace the run: append structured JSONL "
                            "events (round spans, byte counts, drops, "
                            "counters) to PATH; summarize with "
                            "`repro trace-report PATH`.  Observation-"
                            "only — results are bit-identical with or "
                            "without it")
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


def _run_trace_report(args) -> int:
    from repro.obs import format_trace_report, summarize_trace

    summary = summarize_trace(args.trace_file)
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
        return _run_trace_report(args)
    if args.command == "sweep":
        return _run_sweep_command(args)

    config = scaled_config(args.scale, args.command)
    overrides = {}
    if args.rounds is not None:
        overrides["num_rounds"] = args.rounds
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.comm_time is not None:
        overrides["comm_time"] = args.comm_time
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
        if args.backend is None and args.jobs != 1:
            overrides["backend"] = "sharded"
    if args.partition is not None:
        overrides["partition"] = args.partition
    if args.dirichlet_alpha is not None:
        overrides["dirichlet_alpha"] = args.dirichlet_alpha
        if args.partition is None:
            overrides["partition"] = "dirichlet"
    if getattr(args, "population", None):
        overrides["population"] = args.population
    if args.telemetry is not None:
        overrides["telemetry"] = args.telemetry
    if overrides:
        config = config.with_overrides(**overrides)
    if args.command in ("scenario", "adversary"):
        from repro.scenarios import ScenarioConfig

        base = (
            ScenarioConfig(availability="always")
            if args.command == "adversary" else None
        )
        try:
            scenario = _scenario_overrides(args, config.seed, base=base)
        except ValueError as error:
            # An invalid flag combination, caught by ScenarioConfig.
            parser.error(str(error))
        config = config.with_overrides(scenario=scenario)

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
