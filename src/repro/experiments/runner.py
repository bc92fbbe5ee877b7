"""Shared experiment machinery: builders, series containers, text tables."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import (
    FederatedDataset,
    partition_by_class,
    partition_by_writer,
    partition_dirichlet,
)
from repro.data.synthetic import make_cifar_like, make_femnist_like
from repro.data.virtual import VirtualFederation
from repro.experiments.config import ExperimentConfig
from repro.fl.backends import ExecutionBackend, resolve_backend
from repro.fl.metrics import TrainingHistory
from repro.nn.flat import FlatModel
from repro.nn.models import make_cnn, make_mlp
from repro.online.interval import SearchInterval
from repro.simulation.timing import TimingModel


def build_federation(config: ExperimentConfig):
    """Dataset + partition exactly as the paper's two settings.

    MLP configs get flat feature vectors; CNN configs
    (``extras={"model_type": "cnn"}``) keep the (channels, H, W) layout.
    ``config.population > 0`` swaps in a femnist-like
    :class:`~repro.data.virtual.VirtualFederation` whose clients
    regenerate on demand (O(cohort) rounds at any N);
    ``config.partition == "dirichlet"`` applies the Dirichlet(α)
    label-skew split to either eager dataset.
    """
    flatten = config.extras.get("model_type", "mlp") != "cnn"
    if config.population:
        return VirtualFederation.build(
            population=config.population,
            samples_per_client=config.samples_per_client,
            num_classes=config.num_classes,
            image_size=config.image_size,
            classes_per_writer=min(
                config.classes_per_writer, config.num_classes
            ),
            flatten=flatten,
            seed=config.seed,
        )
    femnist = config.dataset == "femnist"
    if femnist:
        ds = make_femnist_like(
            num_writers=config.num_clients,
            samples_per_writer=config.samples_per_client,
            num_classes=config.num_classes,
            image_size=config.image_size,
            classes_per_writer=min(config.classes_per_writer, config.num_classes),
            flatten=flatten,
            seed=config.seed,
        )
    else:
        ds = make_cifar_like(
            num_clients=config.num_clients,
            samples_per_client=config.samples_per_client,
            num_classes=config.num_classes,
            image_size=config.image_size,
            flatten=flatten,
            seed=config.seed,
        )
    if config.partition == "dirichlet":
        return partition_dirichlet(
            ds, num_clients=config.num_clients,
            alpha=config.dirichlet_alpha, seed=config.seed,
        )
    if femnist:
        return partition_by_writer(ds, seed=config.seed)
    return partition_by_class(ds, num_clients=config.num_clients, seed=config.seed)


def build_model(config: ExperimentConfig) -> FlatModel:
    """Fresh model with the config's architecture and seed.

    Default is an MLP (fast, laptop-scale); set
    ``extras={"model_type": "cnn"}`` to use the paper's CNN family
    (requires ``image_size`` divisible by 4 and image inputs).
    """
    channels = 1 if config.dataset == "femnist" else 3
    model_type = config.extras.get("model_type", "mlp")
    if model_type == "cnn":
        return make_cnn(
            image_size=config.image_size,
            channels=channels,
            num_classes=config.num_classes,
            dense_width=config.hidden[0] if config.hidden else 64,
            seed=config.seed,
        )
    if model_type != "mlp":
        raise ValueError(f"unknown model_type {model_type!r}")
    input_dim = channels * config.image_size**2
    return make_mlp(
        input_dim, config.num_classes, hidden=config.hidden, seed=config.seed
    )


def build_timing(
    config: ExperimentConfig, dimension: int, comm_time: float | None = None
) -> TimingModel:
    return TimingModel(
        dimension=dimension,
        comm_time=comm_time if comm_time is not None else config.comm_time,
    )


def build_scenario(
    config: ExperimentConfig,
    client_ids: list[int],
    dimension: int,
    comm_time: float | None = None,
):
    """(timing, scenario) for the config's deployment scenario, if any.

    With ``config.scenario`` unset this is just :func:`build_timing` and
    ``None`` — the paper's ideal population.  Otherwise the scenario's
    straggler profiles — the enumerated designation, or a population's
    per-cid map — seed a :class:`~repro.simulation.heterogeneous.
    HeterogeneousTimingModel`, the one owner of client speeds: it paces
    the straggler tail (which availability-only scenarios still pay) and
    times the deadline gate's arrivals.  The returned
    :class:`~repro.scenarios.DeploymentScenario` is freshly built —
    scenarios hold mutable per-run state (availability chains, sampling
    RNG, and under ``deadline_policy: "adaptive"`` the online deadline
    walk), so call this once per trainer.
    """
    if config.scenario is None:
        return build_timing(config, dimension, comm_time), None
    # Imported here: repro.scenarios pulls in the engine, which this
    # module's other builders do not need.
    from repro.scenarios import DeploymentScenario, ScenarioConfig
    from repro.simulation.heterogeneous import HeterogeneousTimingModel

    scenario_config = ScenarioConfig.from_dict(config.scenario)
    comm_time = comm_time if comm_time is not None else config.comm_time
    if config.population:
        # Population-scale path: per-cid laws instead of enumerated
        # lists — O(cohort) per round at any N (``client_ids`` unused).
        from repro.scenarios import build_population_scenario
        from repro.simulation.population import PopulationModel

        model = PopulationModel.from_scenario_config(
            scenario_config, config.population
        )
        timing = HeterogeneousTimingModel(dimension, comm_time,
                                          model.profiles)
        return timing, build_population_scenario(
            scenario_config, model, timing
        )
    timing = HeterogeneousTimingModel(
        dimension, comm_time, scenario_config.build_profiles(client_ids)
    )
    return timing, DeploymentScenario.build(
        scenario_config, client_ids, timing
    )


def build_telemetry(config: ExperimentConfig):
    """The config's telemetry: a JSONL-backed instance, or the no-op.

    :class:`ExperimentRun` opens this once per run, passes it into every
    trainer, and closes it on exit so counters flush with the backend
    teardown.  Telemetry is observation-only — it consumes no
    RNG and touches no numeric state, so artifacts are identical with
    or without it.
    """
    from repro.obs import open_telemetry

    return open_telemetry(config.telemetry)


def build_backend(config: ExperimentConfig) -> ExecutionBackend:
    """The execution backend the config's trainers should run on.

    ``config.backend`` is a name ("serial", "vectorized" or "sharded");
    :class:`ExperimentRun` builds one instance per run and passes it
    into all the run's trainers, so a whole experiment switches backends
    from one config field (or the CLI's ``--backend``/``--jobs`` flags).
    Histories are backend-independent — only wall-clock speed changes.
    Sharded backends honor ``config.jobs`` (0 = all usable CPUs) and
    must be closed when the trainers are done (the run's exit does).
    """
    return resolve_backend(config.backend, jobs=config.jobs)


def build_search_interval(config: ExperimentConfig, dimension: int) -> SearchInterval:
    """K = [0.002·D, D] as in the paper's Fig. 5 setup."""
    kmin = max(2.0, config.kmin_fraction * dimension)
    return SearchInterval(kmin, float(dimension))


def fig4_sparsity(dimension: int, cohort: int) -> int:
    """Fig. 4's fixed sparsity, k ≈ 0.4·D/N.

    Paper: k = 1000 with D > 4·10⁵ and N = 156.  Preserving kN/D (not
    k/D) keeps the regime that separates the methods: unidirectional's
    downlink of up to kN elements is a large fraction of D, while
    bidirectional schemes ship only k.
    """
    return max(2, int(0.4 * dimension / cohort))


class ExperimentRun:
    """One figure run: the scaffolding every driver loop shares.

    The paper's evaluation protocol (Section V) is the same for every
    figure and panel — build a *fresh* model and federation per method,
    train it on the run's one backend, read curves off the history — so
    driver loops differ only in which trainer they build and what they
    plot.  A run owns the execution backend and the telemetry sink for
    the driver's ``with`` block; :meth:`fresh` hands each loop iteration
    what a trainer constructor needs (recipe: ROADMAP "Experiment
    drivers").
    """

    def __init__(self, config: ExperimentConfig, figure: str) -> None:
        self.config = config
        self.figure = figure
        self.backend = build_backend(config)
        self.telemetry = build_telemetry(config)

    def __enter__(self) -> "ExperimentRun":
        return self

    def __exit__(self, *exc_info) -> None:
        # Nested so a backend teardown failure still flushes and closes
        # the telemetry sink (buffered events must survive mid-run raises).
        try:
            self.backend.close()
        finally:
            self.telemetry.close()

    def fresh(
        self, label: str, config: ExperimentConfig | None = None,
        comm_time: float | None = None, **overrides,
    ) -> tuple[FlatModel, FederatedDataset, dict]:
        """(model, federation, trainer kwargs) for the method ``label``.

        ``config`` is the method's variant of the run's config (a panel
        cell's scenario, say) and ``comm_time`` overrides its β.  The
        kwargs hold the timing model, the freshly built deployment
        scenario (``"scenario"``, only when the config names one; see
        :func:`build_scenario`) and the settings every trainer takes
        from the config; ``overrides`` replace any of them.  Events
        traced from here on carry ``figure=<the run's>, method=label``.
        """
        config = config if config is not None else self.config
        self.telemetry.annotate(figure=self.figure, method=label)
        model = build_model(config)
        federation = build_federation(config)
        # Population-scale runs derive availability/profiles from
        # per-cid laws — enumerating client ids would be O(N).
        client_ids = (
            [] if config.population or config.scenario is None
            else [c.client_id for c in federation.clients]
        )
        timing, scenario = build_scenario(
            config, client_ids, model.dimension, comm_time
        )
        common = dict(
            timing=timing,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            eval_every=config.eval_every,
            eval_max_samples=config.eval_max_samples,
            backend=self.backend,
            telemetry=(self.telemetry if self.telemetry.enabled else None),
            seed=config.seed,
        )
        if scenario is not None:
            common["scenario"] = scenario
        common.update(overrides)
        return model, federation, common


@dataclass
class Series:
    """One labelled (x, y) curve of a figure."""

    label: str
    x: list[float]
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")

    def y_at(self, x_query: float) -> float:
        """Step-interpolated y at x_query (last value whose x <= query)."""
        if not self.x:
            raise ValueError("empty series")
        result = self.y[0]
        for xv, yv in zip(self.x, self.y):
            if xv <= x_query:
                result = yv
            else:
                break
        return result


@dataclass
class FigureData:
    """A figure as a set of labelled curves plus free-form notes."""

    title: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, x: list[float], y: list[float]) -> None:
        self.series.append(Series(label, list(x), list(y)))

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    def add_k_trace(self, label: str, history: TrainingHistory) -> None:
        """Add a history's k_m against the round index m."""
        rounds = [float(r.round_index) for r in history]
        self.add(label, rounds, history.ks())

    def y_at(self, x_query: float) -> dict[str, float]:
        """Every curve's step-interpolated y at ``x_query``, by label."""
        return {s.label: s.y_at(x_query) for s in self.series}

    def second_half_std(self) -> dict[str, float]:
        """Std-dev of every curve's y over its second half, by label."""
        return {
            s.label: float(np.std(s.y[len(s.y) // 2:])) for s in self.series
        }

    def to_csv(self) -> str:
        """Long-format CSV: series,x,y."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["series", "x", "y"])
        for s in self.series:
            for xv, yv in zip(s.x, s.y):
                writer.writerow([s.label, f"{xv:.6g}", f"{yv:.6g}"])
        return buf.getvalue()


def text_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table (examples/reproduce_paper.py, tests/slow)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def contribution_cdf(contributions: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-client contributed element counts (Fig. 4 right)."""
    if not contributions:
        raise ValueError("no contributions recorded")
    values = np.sort(np.array(list(contributions.values()), dtype=float))
    cdf = np.arange(1, values.size + 1) / values.size
    return values, cdf
