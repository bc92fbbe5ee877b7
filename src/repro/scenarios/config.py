"""Declarative deployment-scenario configuration.

:class:`ScenarioConfig` is the JSON-serializable description of one
deployment regime — availability process, cohort size, over-selection,
deadline schedule, reweighting mode, and straggler population.  It rides
inside :class:`repro.experiments.config.ExperimentConfig.scenario` (as a
plain dict, so experiment configs stay import-light and content-
addressable for the sweep cache) and is materialized into runtime
objects by :func:`repro.scenarios.scenario.DeploymentScenario.build`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.declared import option, validate
from repro.fl.async_engine import STALENESS_ALIASES, STALENESS_DISCOUNT_KINDS
from repro.fl.robust import AGGREGATOR_KINDS
from repro.online.interval import SearchInterval
from repro.scenarios.adversary import ADVERSARY_KINDS
from repro.scenarios.deadline import (
    AdaptiveDeadlinePolicy,
    CyclingDeadlinePolicy,
    DeadlinePolicy,
)
from repro.simulation.heterogeneous import ClientProfile
from repro.simulation.population import PROFILE_TAG

AVAILABILITY_KINDS = ("always", "markov", "diurnal", "trace")
REWEIGHT_MODES = ("arrived", "cohort")
DEADLINE_POLICY_KINDS = ("fixed", "cycling", "adaptive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to wrap a trainer in a deployment scenario.

    Each field declares its own range, CLI flag and ``--help`` text
    (:func:`repro.declared.option`); what spans fields:

    - **Availability** — ``markov`` uses ``p_drop``/``p_recover``,
      ``diurnal`` uses ``period``/``duty``, ``trace`` replays ``trace``
      (a tuple of per-round id tuples, cycling when ``trace_cycle``).
    - **Cohort** — ``participants=0`` means "every available client",
      so over-selection needs an explicit target m.
    - **Deadline family** — ``deadline`` is the per-round compute+uplink
      budget: a float, a tuple (cycling per-round schedule, enabling
      periodic straggler amnesty), or ``None`` (wait for everyone).
      ``deadline_policy`` ``"fixed"`` follows the scalar every round
      (for backward compatibility a tuple under ``"fixed"`` is
      normalized to ``"cycling"``), and ``"cycling"`` over a scalar d
      cycles the one-entry schedule ``(d,)``; ``"adaptive"`` learns the
      deadline online with the SignOGD dual of the learned k
      (:class:`~repro.scenarios.deadline.AdaptiveDeadlinePolicy`) over
      ``[deadline_min, deadline_max]``, which may be omitted when
      ``deadline`` is a tuple with distinct entries — the interval is
      then its (min, max) and ``deadline`` cleared — or, with both
      edges omitted, when it is a scalar d — the interval is then
      ``[d/2, 2d]``.  Under ``"adaptive"`` a float ``deadline`` is the
      initial decision d₁ (``None`` starts at the midpoint), and
      ``deadline_probe=False`` freezes the deadline at d₁ — a control.
      :attr:`deadline_interval` is the interval a regime spans and
      :meth:`deadline_schedule` builds its policy — the only place one
      is built.  ``min_uploads`` is a floor: the server extends the
      round rather than aggregate fewer.
    - **Reweighting** — ``"arrived"`` renormalizes aggregation weights
      over the uploads that made it (each update is a proper weighted
      average of the arrivals); ``"cohort"`` keeps the sampled cohort's
      total weight in the denominator, scaling the update down when
      uploads are missing (unbiased w.r.t. the cohort).
    - **Stragglers** — ``slow_fraction``/``slow_factor`` feed both the
      deadline gate's finish times and the
      :class:`~repro.simulation.heterogeneous.HeterogeneousTimingModel`
      a scenario run charges time with.
    - **Adversary / aggregator** — ``adversary="none"`` and
      ``aggregator="mean"`` are the degenerate settings that stay
      bit-identical to the plain trainer (the paper's weighted mean,
      the unmodified server path); each client is designated Byzantine
      by one seeded Bernoulli(``adversary_fraction``) draw, fixed for
      the run.
    - **Async** — ``async_mode`` runs the asynchronous comparison
      (:func:`repro.experiments.scenario.run_async_comparison`) on top
      of the synchronous artifacts.  Under async commits the deadline
      family is inert — stragglers arrive late (and get discounted by
      staleness) instead of being dropped — while the adversary and
      aggregator fields apply to every variant alike (arrivals are
      corrupted before the commit discounts them); see
      :mod:`repro.fl.async_engine`.
      ``commit_count`` 0 means "derive" (the drivers use half the
      target cohort, so commits close before the stragglers land).
    - ``seed`` seeds availability chains, straggler designation, and
      cohort sampling (all streams are derived, so one scenario seed
      pins the whole deployment realization).
    """

    availability: str = option(
        "markov", one_of=AVAILABILITY_KINDS, flag="--availability",
        help="who is online each round (default: markov churn)")
    p_drop: float = option(
        0.1, within="[0, 1]", flag="--p-drop",
        help="markov: per-round P(online -> offline)")
    p_recover: float = option(
        0.5, within="[0, 1]", flag="--p-recover",
        help="markov: per-round P(offline -> online)")
    period: int = option(
        24, within="[1, inf)", flag="--period",
        help="diurnal: rounds per day cycle")
    duty: float = option(
        0.5, within="(0, 1]", flag="--duty",
        help="diurnal: fraction of the cycle a client is online")
    trace: tuple[tuple[int, ...], ...] | None = None
    trace_cycle: bool = True
    participants: int = option(
        0, within="[0, inf)", flag="--participants",
        help="uploads aggregated per round, m (0 = all available)")
    over_selection: float = option(
        0.0, within="[0, inf)", flag="--over-selection",
        help="sample m*(1+eps) clients, aggregate the first m to finish")
    deadline: float | tuple[float, ...] | None = option(
        None, flag="--deadline", type=float, nargs="+",
        help="round deadline(s); several values cycle (periodic straggler "
             "amnesty)")
    deadline_policy: str = option(
        "fixed", one_of=DEADLINE_POLICY_KINDS, flag="--deadline-policy",
        help="how the deadline evolves: fixed (a schedule preset collapses "
             "to its mean), cycling, or adaptive (the server learns the "
             "deadline online over [--deadline-min, --deadline-max], the "
             "dual of the learned k; the interval defaults to the "
             "schedule's min/max, or to [d/2, 2d] around a single "
             "--deadline d)")
    deadline_min: float | None = option(
        None, flag="--deadline-min", type=float,
        help="adaptive: lower edge of the deadline interval")
    deadline_max: float | None = option(
        None, flag="--deadline-max", type=float,
        help="adaptive: upper edge of the deadline interval")
    deadline_probe: bool = True
    min_uploads: int = option(
        1, within="[1, inf)", flag="--min-uploads",
        help="floor of accepted uploads per round")
    reweight: str = option(
        "arrived", one_of=REWEIGHT_MODES, flag="--reweight",
        help="partial-aggregate normalization: over arrivals or over the "
             "sampled cohort")
    slow_fraction: float = option(
        0.0, within="[0, 1]", flag="--slow-fraction",
        help="fraction of clients that are stragglers")
    slow_factor: float = option(
        4.0, within="(0, inf)", flag="--slow-factor",
        help="compute+comm slowdown of a straggler")
    adversary: str = option(
        "none", one_of=ADVERSARY_KINDS, flag="--adversary-kind",
        help="Byzantine attack mounted by designated clients (default: none "
             "for scenario, sign_flip for the adversary panel)")
    adversary_fraction: float = option(
        0.0, within="[0, 1]", flag="--adversary-fraction",
        help="probability each client is Byzantine (one seeded draw per "
             "client); a positive value implies --adversary-kind sign_flip")
    adversary_scale: float = option(
        10.0, within="(0, inf)", flag="--adversary-scale",
        help="attack magnitude (sign-flip/scale multiplier, noise amplitude "
             "in upload-RMS units)")
    aggregator: str = option(
        "mean", one_of=AGGREGATOR_KINDS, flag="--aggregator",
        help="server aggregation rule; mean is the paper's weighted mean, "
             "the others are Byzantine-tolerant")
    trim_fraction: float = option(
        0.25, within="[0, 0.5)", flag="--trim-fraction",
        help="per-coordinate trim rate of the trimmed_mean aggregator")
    async_mode: bool = option(
        False, flag="--async", dest="async_mode",
        action="store_const", const=True,
        help="additionally run the asynchronous staleness-weighted commit "
             "comparison (sync barrier vs async commits per staleness "
             "discount, equal simulated time; writes scenario_async_*)")
    #: the flag's wider choices: ``--staleness`` keeps its ``poly`` shorthand
    staleness_discount: str = option(
        "constant", one_of=STALENESS_DISCOUNT_KINDS, flag="--staleness",
        choices=("constant", "poly", "polynomial", "adaptive"),
        help="staleness discount of async commits: constant (no "
             "correction), poly[nomial] (1+s)^-a, or adaptive (the exponent "
             "a learned online, a third dual of the learned k); implies "
             "--async")
    commit_count: int = option(
        0, within="[0, inf)", flag="--commit-count",
        help="arrivals the async server buffers per commit (0 = half the "
             "target cohort); implies --async")
    seed: int = 0

    def __post_init__(self) -> None:
        alias = STALENESS_ALIASES.get(self.staleness_discount)
        if alias is not None:  # normalized first: one_of names the kinds
            object.__setattr__(self, "staleness_discount", alias)
        validate(self)
        if self.availability == "trace" and not self.trace:
            raise ValueError("trace availability needs a non-empty trace")
        if self.trace is not None:
            object.__setattr__(
                self, "trace",
                tuple(tuple(int(c) for c in entry) for entry in self.trace),
            )
        if self.over_selection > 0.0 and self.participants == 0:
            raise ValueError(
                "over_selection needs an explicit participants target m"
            )
        if isinstance(self.deadline, (list, tuple)):
            object.__setattr__(
                self, "deadline", tuple(float(d) for d in self.deadline)
            )
        elif self.deadline is not None:
            object.__setattr__(self, "deadline", float(self.deadline))
        self._normalize_deadline_policy()
        if self.adversary_fraction > 0.0 and self.adversary == "none":
            raise ValueError(
                "adversary_fraction > 0 needs an adversary kind"
            )

    def _normalize_deadline_policy(self) -> None:
        """Validate/normalize the deadline_policy family of fields.

        Runs inside ``__post_init__`` (after the ``deadline`` value
        itself is normalized), so serialized configs round-trip: every
        normalization is idempotent on its own output.
        """
        if self.deadline_policy == "fixed" and isinstance(self.deadline, tuple):
            if len(self.deadline) == 1:
                object.__setattr__(self, "deadline", self.deadline[0])
            else:
                # Legacy configs predate the field: a schedule means cycling.
                object.__setattr__(self, "deadline_policy", "cycling")
        if self.deadline_policy == "cycling" and isinstance(
            self.deadline, float
        ):
            # A single deadline cycles as the one-entry schedule.
            object.__setattr__(self, "deadline", (self.deadline,))
        if self.deadline_policy == "cycling" and not isinstance(
            self.deadline, tuple
        ):
            raise ValueError(
                "cycling deadline_policy needs a deadline sequence"
            )
        if self.deadline_policy != "adaptive":
            if self.deadline_min is not None or self.deadline_max is not None:
                raise ValueError(
                    "deadline_min/deadline_max only apply to the adaptive "
                    "deadline_policy"
                )
            return
        dmin, dmax = self.deadline_min, self.deadline_max
        if isinstance(self.deadline, tuple):
            if dmin is None:
                dmin = min(self.deadline)
            if dmax is None:
                dmax = max(self.deadline)
            # The schedule only seeded the interval; d1 = its midpoint.
            object.__setattr__(self, "deadline", None)
        elif dmin is None and dmax is None and self.deadline is not None:
            # A single d with no edges: search around it, from d1 = d.
            dmin, dmax = self.deadline_interval
        if dmin is None or dmax is None:
            raise ValueError(
                "adaptive deadline_policy needs deadline_min/deadline_max "
                "(or a deadline schedule to derive them from)"
            )
        dmin, dmax = float(dmin), float(dmax)
        if not 0.0 < dmin < dmax:
            raise ValueError(
                f"need 0 < deadline_min < deadline_max, got [{dmin}, {dmax}]"
            )
        if self.deadline is not None and not dmin <= self.deadline <= dmax:
            raise ValueError(
                f"initial deadline {self.deadline} outside "
                f"[{dmin}, {dmax}]"
            )
        object.__setattr__(self, "deadline_min", dmin)
        object.__setattr__(self, "deadline_max", dmax)

    @property
    def deadline_interval(self) -> tuple[float, float] | None:
        """The deadline interval this regime spans: the adaptive edges,
        a schedule's (min, max) when its entries differ, ``[d/2, 2d]``
        around a single deadline d, or ``None`` (no deadline, or an
        all-equal schedule)."""
        if self.deadline_min is not None and self.deadline_max is not None:
            return self.deadline_min, self.deadline_max
        if isinstance(self.deadline, tuple):
            lo, hi = min(self.deadline), max(self.deadline)
            return (lo, hi) if lo < hi else None
        if self.deadline is None:
            return None
        return self.deadline / 2.0, self.deadline * 2.0

    def deadline_schedule(self) -> DeadlinePolicy | None:
        """The deadline policy this config names; ``None`` without a
        deadline (the server waits for everyone).

        A fixed d is the one-entry cycle ``(d,)``.  Adaptive policies
        are stateful — like the rest of a
        :class:`~repro.scenarios.scenario.DeploymentScenario`, build a
        fresh one per run.
        """
        if self.deadline_policy == "adaptive":
            assert self.deadline_min is not None
            assert self.deadline_max is not None
            return AdaptiveDeadlinePolicy(
                SearchInterval(self.deadline_min, self.deadline_max),
                d1=self.deadline,
                probe=self.deadline_probe,
            )
        if self.deadline is None:
            return None
        return CyclingDeadlinePolicy(
            self.deadline if isinstance(self.deadline, tuple)
            else (self.deadline,)
        )

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Copy with fields replaced (scenario configs are immutable)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization (ExperimentConfig.scenario carries the dict form)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping; round-trips via :meth:`from_dict`."""
        data = asdict(self)
        if self.trace is not None:
            data["trace"] = [list(entry) for entry in self.trace]
        if isinstance(self.deadline, tuple):
            data["deadline"] = list(self.deadline)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        if data.get("trace") is not None:
            data["trace"] = tuple(tuple(e) for e in data["trace"])
        if isinstance(data.get("deadline"), list):
            data["deadline"] = tuple(data["deadline"])
        return cls(**data)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def default_churn(cls) -> "ScenarioConfig":
        """The reference availability+deadline regime of the scenario CLI.

        Markov churn; a quarter of the population stragglers at 4×; a
        cycling deadline schedule of three tight rounds (2.5× the unit
        computation time — fast clients always make it, stragglers never
        do) followed by one amnesty round at 9.0 in which slow clients
        flush the residuals accumulated while dropped.
        """
        return cls(
            availability="markov",
            p_drop=0.15,
            p_recover=0.6,
            deadline=(2.5, 2.5, 2.5, 9.0),
            deadline_policy="cycling",
            slow_fraction=0.25,
            slow_factor=4.0,
        )

    # ------------------------------------------------------------------
    def build_profiles(self, client_ids: list[int]) -> list[ClientProfile]:
        """Seeded straggler designation for this scenario's population."""
        ids = sorted(int(c) for c in client_ids)
        slow = set()
        count = int(round(self.slow_fraction * len(ids)))
        if count:
            rng = np.random.default_rng((self.seed, PROFILE_TAG))
            slow = set(
                int(c)
                for c in rng.choice(ids, size=count, replace=False)
            )
        return [
            ClientProfile(
                client_id=cid,
                compute_factor=self.slow_factor if cid in slow else 1.0,
                comm_factor=self.slow_factor if cid in slow else 1.0,
            )
            for cid in ids
        ]
