"""Sweep orchestrator: experiment grids over a process pool, cached.

A :class:`SweepSpec` declares a grid of figure × scale × seed × backend
configurations.  :func:`run_sweep` expands the grid, skips every unit
whose content key already sits in the :class:`~repro.parallel.store.
ResultsStore`, fans the remaining units out across a process pool, and
persists each finished unit (config + all figure artifacts as JSON) back
into the store — so re-running a sweep only computes what changed, and a
fully cached re-run costs a directory scan.

Units are whole figure runs: the figure drivers are already the unit of
reproduction everywhere else (CLI, benchmarks), and one driver is large
enough that process dispatch overhead is noise.  Grid axes multiply, so
a spec with 6 figures × 2 seeds × 2 backends is 24 independent runs.

Use from Python::

    spec = SweepSpec(figures=("fig4", "fig5"), scales=("bench",),
                     seeds=(0, 1))
    report = run_sweep(spec, cache_dir="results/sweep-cache", jobs=4)

or from the CLI: ``python -m repro.cli sweep --scale smoke --jobs 2``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.config import (
    SCALE_NAMES,
    ExperimentConfig,
    scaled_config,
)
from repro.experiments.io import (
    SCHEMA_VERSION,
    figure_to_dict,
    history_to_dict,
    write_json,
)
from repro.fl.backends import BACKEND_NAMES
from repro.parallel.pool import in_daemon_process, preferred_start_method
from repro.parallel.store import ResultsStore, content_key

SWEEP_FIGURES = (
    "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "scenario", "adversary",
)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of figure runs (axes multiply)."""

    figures: tuple[str, ...] = SWEEP_FIGURES
    scales: tuple[str, ...] = ("bench",)
    seeds: tuple[int, ...] = (0,)
    backends: tuple[str, ...] = ("serial",)
    #: optional round-count override applied to every unit
    rounds: int | None = None
    #: optional JSONL trace destination applied to every unit
    #: (observation-only; excluded from cache keys)
    telemetry: str | None = None

    def __post_init__(self) -> None:
        for figure in self.figures:
            if figure not in SWEEP_FIGURES:
                raise ValueError(
                    f"unknown figure {figure!r}; expected one of "
                    f"{SWEEP_FIGURES}"
                )
        for scale in self.scales:
            if scale not in SCALE_NAMES:
                raise ValueError(
                    f"unknown scale {scale!r}; expected one of {SCALE_NAMES}"
                )
        for backend in self.backends:
            if backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{BACKEND_NAMES}"
                )


@dataclass(frozen=True)
class SweepUnit:
    """One expanded grid point: a figure at a fully resolved config."""

    figure: str
    scale: str
    config: ExperimentConfig

    @property
    def run_id(self) -> str:
        """Human-readable artifact-directory name (unique within a grid)."""
        return (
            f"{self.figure}_{self.scale}_seed{self.config.seed}"
            f"_{self.config.backend}"
        )

    def key(self) -> str:
        """Content address: figure + full config + artifact schema.

        Telemetry is excluded: it is observation-only (traced runs are
        bit-identical to untraced), so a trace destination must neither
        invalidate cached results nor fork the cache.
        """
        config = self.config.to_dict()
        config.pop("telemetry", None)
        return content_key({
            "kind": "figure-run",
            "schema": SCHEMA_VERSION,
            "figure": self.figure,
            "config": config,
        })


@dataclass
class UnitResult:
    unit: SweepUnit
    key: str
    status: str  # "cached" | "computed"
    seconds: float
    artifacts: tuple[str, ...]


@dataclass
class SweepReport:
    results: list[UnitResult] = field(default_factory=list)
    seconds: float = 0.0
    #: ResultsStore.load outcomes over the whole sweep — first-class so
    #: CI asserts on them directly instead of grepping the summary line.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.status == "cached")

    @property
    def computed(self) -> int:
        return sum(1 for r in self.results if r.status == "computed")


def expand(spec: SweepSpec) -> list[SweepUnit]:
    """Every grid point of ``spec`` as a concrete figure run."""
    units = []
    for figure in spec.figures:
        for scale in spec.scales:
            for seed in spec.seeds:
                for backend in spec.backends:
                    overrides: dict = {"seed": seed, "backend": backend}
                    if spec.rounds is not None:
                        overrides["num_rounds"] = spec.rounds
                    if spec.telemetry is not None:
                        overrides["telemetry"] = spec.telemetry
                    config = scaled_config(scale, figure).with_overrides(
                        **overrides
                    )
                    units.append(SweepUnit(figure, scale, config))
    return units


def collect_artifacts(figure: str, config: ExperimentConfig) -> dict[str, dict]:
    """Run one figure driver; return its artifacts as JSON-ready dicts.

    The artifact names and payloads match what ``python -m repro.cli
    <figure>`` writes, so cached sweep results re-export byte-compatible
    files.
    """
    # Imports are local so sweep pool workers pay them lazily and a
    # broken driver only fails the units that need it.
    if figure == "fig1":
        from repro.experiments.fig1 import run_fig1

        result = run_fig1(config)
        return {"fig1_post_switch_loss": figure_to_dict(result.figure)}
    if figure == "fig4":
        from repro.experiments.fig4 import run_fig4

        result = run_fig4(config)
        artifacts = {
            "fig4_loss_vs_time": figure_to_dict(result.loss_vs_time),
            "fig4_accuracy_vs_time": figure_to_dict(result.accuracy_vs_time),
            "fig4_contribution_cdf": figure_to_dict(result.contribution_cdf),
        }
        for method, history in result.histories.items():
            artifacts[f"fig4_history_{method}"] = history_to_dict(history)
        return artifacts
    if figure == "fig5":
        from repro.experiments.fig5 import run_fig5

        result = run_fig5(config)
        return {
            "fig5_loss_vs_time": figure_to_dict(result.loss_vs_time),
            "fig5_accuracy_vs_time": figure_to_dict(result.accuracy_vs_time),
            "fig5_k_traces": figure_to_dict(result.k_traces),
        }
    if figure == "fig6":
        from repro.experiments.fig6 import run_fig6

        result = run_fig6(config)
        return {
            "fig6_loss_vs_time": figure_to_dict(result.loss_vs_time),
            "fig6_k_traces": figure_to_dict(result.k_traces),
        }
    if figure == "scenario":
        from repro.experiments.scenario import (
            resolve_scenario_config,
            run_deadline_adaptation,
            run_scenario,
            supports_deadline_comparison,
        )
        from repro.scenarios import ScenarioConfig

        result = run_scenario(config)
        artifacts = {
            "scenario_loss_vs_time": figure_to_dict(result.loss_vs_time),
            "scenario_accuracy_vs_time": figure_to_dict(
                result.accuracy_vs_time
            ),
            "scenario_k_traces": figure_to_dict(result.k_traces),
            "scenario_delivery": figure_to_dict(result.delivery),
        }
        for method, history in result.histories.items():
            artifacts[f"scenario_history_{method}"] = history_to_dict(history)
        resolved = resolve_scenario_config(config)
        assert resolved.scenario is not None
        resolved_scenario = ScenarioConfig.from_dict(resolved.scenario)
        if supports_deadline_comparison(resolved_scenario):
            adaptation = run_deadline_adaptation(config)
            artifacts["scenario_deadline_policies"] = figure_to_dict(
                adaptation.loss_vs_time
            )
            artifacts["scenario_deadline_traces"] = figure_to_dict(
                adaptation.deadline_traces
            )
        if resolved_scenario.async_mode:
            from repro.experiments.scenario import run_async_comparison

            comparison = run_async_comparison(config)
            artifacts["scenario_async_loss_vs_time"] = figure_to_dict(
                comparison.loss_vs_time
            )
            artifacts["scenario_async_staleness"] = figure_to_dict(
                comparison.staleness
            )
            for label, history in comparison.histories.items():
                slug = label.replace("-", "_")
                artifacts[f"scenario_async_history_{slug}"] = (
                    history_to_dict(history)
                )
        return artifacts
    if figure == "adversary":
        from repro.experiments.adversary import run_adversary_panel

        result = run_adversary_panel(config)
        artifacts = {
            "adversary_final_loss": figure_to_dict(result.final_loss),
            "adversary_loss_vs_time": figure_to_dict(result.loss_vs_time),
        }
        for label, history in result.histories.items():
            # "trimmed_mean/sparse/f=0.25" -> "trimmed_mean_sparse_f0.25"
            slug = label.replace("/", "_").replace("=", "")
            artifacts[f"adversary_history_{slug}"] = history_to_dict(history)
        return artifacts
    if figure in ("fig7", "fig8"):
        from repro.experiments.fig7 import run_fig7, run_fig8

        runner = run_fig7 if figure == "fig7" else run_fig8
        result = runner(config)
        assert result.k_traces is not None
        artifacts = {f"{figure}_k_traces": figure_to_dict(result.k_traces)}
        for beta, fig_data in result.loss_curves.items():
            artifacts[f"{figure}_replay_beta_{beta:g}"] = figure_to_dict(
                fig_data
            )
        return artifacts
    raise ValueError(f"unknown figure {figure!r}")


def _run_unit(payload: tuple[str, dict]) -> tuple[dict[str, dict], float]:
    """Pool-dispatchable unit runner (module-level for picklability)."""
    figure, config_dict = payload
    config = ExperimentConfig.from_dict(config_dict)
    start = time.perf_counter()
    artifacts = collect_artifacts(figure, config)
    return artifacts, time.perf_counter() - start


def run_sweep(
    spec: SweepSpec,
    cache_dir: str | Path,
    out: str | Path | None = None,
    jobs: int = 1,
    force: bool = False,
    echo=None,
) -> SweepReport:
    """Run every unit of ``spec``, computing only what the cache misses.

    ``jobs`` is the sweep pool's process count (1 = run inline); each
    *unit* additionally honors its own config's backend/jobs for
    within-run parallelism.  ``force`` recomputes (and overwrites) cached
    units.  With ``out`` set, every unit's artifacts are (re-)exported as
    ``<out>/<run_id>/<name>.json`` whether cached or computed.
    """
    say = echo if echo is not None else (lambda message: None)
    start = time.perf_counter()
    store = ResultsStore(cache_dir)
    entries: list[dict] = []
    for unit in expand(spec):
        key = unit.key()
        payload = None if force else store.load(key)
        entries.append({
            "unit": unit,
            "key": key,
            "payload": payload,
            "status": "cached" if payload is not None else "computed",
            "seconds": 0.0,
        })
    pending = [e for e in entries if e["payload"] is None]
    say(
        f"sweep: {len(entries)} runs ({len(entries) - len(pending)} cached, "
        f"{len(pending)} to compute) with {jobs} sweep worker(s)"
    )
    if pending:
        tasks = [
            (e["unit"].figure, e["unit"].config.to_dict()) for e in pending
        ]
        workers = min(jobs, len(tasks))
        if workers > 1 and not in_daemon_process():
            context = mp.get_context(preferred_start_method())
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                outcomes = list(pool.map(_run_unit, tasks))
        else:
            outcomes = [_run_unit(task) for task in tasks]
        for entry, (artifacts, seconds) in zip(pending, outcomes):
            unit = entry["unit"]
            payload = {
                "schema": SCHEMA_VERSION,
                "kind": "sweep-unit",
                "figure": unit.figure,
                "scale": unit.scale,
                "config": unit.config.to_dict(),
                "seconds": round(seconds, 6),
                "artifacts": artifacts,
            }
            store.store(entry["key"], payload)
            entry["payload"] = payload
            entry["seconds"] = seconds
            say(f"  computed {unit.run_id} in {seconds:.2f}s")

    report = SweepReport(cache_hits=store.hits, cache_misses=store.misses)
    out_dir = Path(out) if out is not None else None
    for entry in entries:
        unit, payload = entry["unit"], entry["payload"]
        names = tuple(sorted(payload["artifacts"]))
        if out_dir is not None:
            for name in names:
                write_json(
                    out_dir / unit.run_id / f"{name}.json",
                    payload["artifacts"][name],
                )
        report.results.append(UnitResult(
            unit=unit,
            key=entry["key"],
            status=entry["status"],
            seconds=entry["seconds"],
            artifacts=names,
        ))
    report.seconds = time.perf_counter() - start
    say(
        f"sweep finished in {report.seconds:.2f}s: "
        f"{report.computed} computed, {report.cached} cached"
    )
    return report
