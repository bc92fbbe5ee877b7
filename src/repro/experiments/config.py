"""Experiment configuration presets.

The paper's scale (156 FEMNIST clients, D > 400,000, thousands of rounds)
is reproducible here by :func:`ExperimentConfig.paper_scale`, but the
default presets are deliberately laptop-scale: the claims under test are
*qualitative orderings* (which method wins, how learned k moves with β),
which are preserved at reduced dimension (``tests/slow/`` asserts them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.declared import option, validate
from repro.fl.backends import BACKEND_NAMES


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to build a federation, model, and trainer.

    ``dataset`` is "femnist" (writer-partitioned, 62 classes) or "cifar"
    (one class per client, 10 classes).
    """

    dataset: str = option("femnist", one_of=("femnist", "cifar"))
    num_clients: int = option(20, within="[1, inf)")
    #: when positive, replace the eager federation with a
    #: :class:`~repro.data.virtual.VirtualFederation` of this many
    #: clients (``num_clients`` is then ignored); requires a scenario
    #: with an explicit participants target so rounds stay O(cohort)
    population: int = option(
        0, within="[0, inf)", flag="--population", metavar="N",
        help="run over a virtual population of N clients (e.g. 1000000): "
             "per-client data, availability and straggler profiles "
             "regenerate from (seed, id) on demand, so rounds cost "
             "O(cohort) and memory O(ever-sampled) at any N; pairs with "
             "--participants m (defaults to a small fixed cohort — an "
             "all-available round would be O(N))")
    partition: str = option(
        "auto", one_of=("auto", "dirichlet"), flag="--partition",
        help="client partition: auto follows the paper (femnist by writer, "
             "cifar by class); dirichlet applies a Dirichlet(alpha) "
             "label-skew split")
    dirichlet_alpha: float = option(
        0.5, within="(0, inf)", flag="--dirichlet-alpha",
        help="Dirichlet concentration for --partition dirichlet (small = "
             "near-single-class clients, large = near-IID); implies "
             "--partition dirichlet")
    samples_per_client: int = option(30, within="[1, inf)")
    image_size: int = option(12, within="[1, inf)")
    num_classes: int = option(62, within="[1, inf)")
    classes_per_writer: int = option(8, within="[1, inf)")
    hidden: tuple[int, ...] = (32,)
    learning_rate: float = option(0.05, within="(0, inf)")
    batch_size: int = option(32, within="[1, inf)")
    comm_time: float = option(
        10.0, within="[0, inf)", flag="--comm-time",
        help="override the preset's communication time")
    num_rounds: int = option(
        300, within="[1, inf)", flag="--rounds",
        help="override the preset's round count")
    eval_every: int = option(5, within="[1, inf)")
    eval_max_samples: int = option(1000, within="[1, inf)")
    #: paper: kmin = 0.002 * D
    kmin_fraction: float = option(0.002, within="(0, 1)")
    alpha: float = option(1.5, within="(1, inf)")         # paper: α = 1.5
    update_window: int = option(20, within="[1, inf)")    # paper: M_u = 20
    backend: str = option(
        "serial", one_of=BACKEND_NAMES, flag="--backend",
        help="execution backend for the trainers (serial runs the "
             "clients in process, a cache-sized block at a time; sharded "
             "fans them out over worker processes; identical results)")
    jobs: int = option(
        0, within="[0, inf)", flag="--jobs",
        help="sharded worker processes (0 = all usable CPUs); any value "
             "except 1 implies --backend sharded")
    #: deployment scenario as a ScenarioConfig.to_dict() mapping (kept as
    #: a plain dict so configs stay import-light and sweep-cacheable);
    #: None = the paper's ideal population (everyone, always, no deadline)
    scenario: dict | None = None
    #: Observation-only: traced runs are bit-identical to untraced ones,
    #: and sweep cache keys exclude this field.  None disables.
    telemetry: str | None = option(
        None, flag="--telemetry", metavar="PATH",
        help="trace the run: append structured JSONL events (round spans, "
             "byte counts, drops, counters) to PATH; summarize with "
             "`repro trace-report PATH`.  Observation-only — results are "
             "bit-identical with or without it")
    seed: int = option(0, flag="--seed", help="override the preset's seed")
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate(self)
        if self.population and self.dataset != "femnist":
            raise ValueError(
                "virtual populations are femnist-like; use dataset='femnist'"
            )
        if self.population and self.partition != "auto":
            raise ValueError(
                "virtual populations carry their own per-client generator; "
                "partition overrides only apply to eager federations"
            )
        if self.scenario is not None and not isinstance(self.scenario, dict):
            raise ValueError(
                "scenario must be a ScenarioConfig.to_dict() mapping or None"
            )
        if self.telemetry is not None and not isinstance(self.telemetry, str):
            raise ValueError("telemetry must be a JSONL path string or None")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with fields replaced (configs are immutable)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization (sweep cache keys, cross-process dispatch)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping of every field; round-trips via from_dict."""
        data = asdict(self)
        data["hidden"] = list(self.hidden)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (or parsed JSON)."""
        data = dict(data)
        if "hidden" in data:
            data["hidden"] = tuple(data["hidden"])
        return cls(**data)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Tiny preset for unit/integration tests (seconds)."""
        return cls(
            num_clients=6,
            samples_per_client=15,
            image_size=8,
            num_classes=10,
            classes_per_writer=4,
            hidden=(8,),
            num_rounds=30,
            eval_every=5,
            batch_size=16,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """Benchmark preset: minutes for the full figure suite."""
        return cls()

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's FEMNIST setup (156 clients, D > 400k). Hours."""
        return cls(
            num_clients=156,
            samples_per_client=222,   # ≈ 34,659 training samples total
            image_size=28,
            num_classes=62,
            hidden=(512,),            # D ≈ 28²·512 + 512·62 ≈ 430k
            learning_rate=0.01,
            batch_size=32,
            num_rounds=5000,
            eval_every=20,
            eval_max_samples=4000,
        )

    @classmethod
    def cifar_default(cls) -> "ExperimentConfig":
        """CIFAR-like preset for Fig. 8 (one class per client)."""
        return cls(
            dataset="cifar",
            num_clients=20,
            samples_per_client=40,
            image_size=8,
            num_classes=10,
            hidden=(32,),
        )


SCALE_NAMES = ("smoke", "bench", "default", "paper")


def scaled_config(scale: str, figure: str | None = None) -> ExperimentConfig:
    """The preset behind a CLI/sweep ``--scale`` name, per target figure.

    ``smoke`` runs in seconds, ``bench`` in tens of seconds (the
    benchmark suite's setting), ``default`` in minutes, ``paper`` at the
    paper's 156-client scale (hours).  Fig. 6 runs at the paper's large
    communication time β = 100; Fig. 8 swaps in the CIFAR-like
    federation while keeping the scale's round/evaluation budget.
    """
    if scale == "smoke":
        base = ExperimentConfig.smoke()
    elif scale == "bench":
        base = ExperimentConfig(
            num_clients=24, samples_per_client=25, image_size=10,
            num_classes=16, classes_per_writer=5, hidden=(16,),
            learning_rate=0.05, batch_size=16, num_rounds=150,
            eval_every=5, eval_max_samples=300,
        )
    elif scale == "default":
        base = ExperimentConfig.default()
    elif scale == "paper":
        base = ExperimentConfig.paper_scale()
    else:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {SCALE_NAMES}"
        )
    if figure == "fig6":
        base = base.with_overrides(comm_time=100.0)
    if figure == "fig8":
        cifar = ExperimentConfig.cifar_default()
        base = cifar.with_overrides(
            num_rounds=base.num_rounds, eval_every=base.eval_every,
            learning_rate=base.learning_rate, batch_size=base.batch_size,
        )
    return base
