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

from repro.fl.async_engine import STALENESS_DISCOUNT_KINDS
from repro.fl.robust import AGGREGATOR_KINDS
from repro.scenarios.adversary import ADVERSARY_KINDS
from repro.simulation.heterogeneous import ClientProfile

AVAILABILITY_KINDS = ("always", "markov", "diurnal", "trace")
REWEIGHT_MODES = ("arrived", "cohort")
DEADLINE_POLICY_KINDS = ("fixed", "cycling", "adaptive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to wrap a trainer in a deployment scenario.

    Attributes
    ----------
    availability:
        One of :data:`AVAILABILITY_KINDS`.  ``markov`` uses
        ``p_drop``/``p_recover``; ``diurnal`` uses ``period``/``duty``;
        ``trace`` replays ``trace`` (a tuple of per-round id tuples,
        cycling when ``trace_cycle``).
    participants:
        Target ``m`` of aggregated uploads per round; 0 means "every
        available client" (over-selection then requires an explicit m).
    over_selection:
        ε of the "sample ``m·(1+ε)``, aggregate the first ``m`` to
        finish" rule; 0 disables over-selection.
    deadline:
        Per-round compute+uplink budget — a float, a tuple (cycling
        per-round schedule, enabling periodic straggler amnesty), or
        ``None`` (wait for everyone).  Under ``deadline_policy
        "adaptive"`` a float is the initial decision d₁ (``None`` starts
        at the interval midpoint).
    deadline_policy:
        One of :data:`DEADLINE_POLICY_KINDS`.  ``"fixed"`` follows the
        (scalar) ``deadline`` every round; ``"cycling"`` cycles a
        ``deadline`` tuple; ``"adaptive"`` learns the deadline online
        with the SignOGD dual of the learned k
        (:class:`~repro.scenarios.deadline.AdaptiveDeadlinePolicy`) over
        ``[deadline_min, deadline_max]``.  For backward compatibility a
        tuple ``deadline`` under the default ``"fixed"`` is normalized
        to ``"cycling"``.
    deadline_min / deadline_max:
        The adaptive policy's search interval.  May be omitted when
        ``deadline`` is a tuple with distinct entries — the interval is
        then derived as its (min, max) and ``deadline`` cleared (d₁
        defaults to the midpoint).
    deadline_probe:
        Whether the adaptive policy runs its per-round counterfactual
        probe (``False`` freezes the deadline at d₁ — a control).
    min_uploads:
        Floor of accepted uploads per round (the server extends the
        round rather than aggregate fewer).
    reweight:
        ``"arrived"`` renormalizes aggregation weights over the uploads
        that made it (each round's update is a proper weighted average of
        the arrivals); ``"cohort"`` keeps the sampled cohort's total
        weight in the denominator, scaling the update down when uploads
        are missing (unbiased w.r.t. the cohort).
    slow_fraction / slow_factor:
        Fraction of clients designated stragglers and their compute+comm
        slowdown; feeds both the deadline gate's finish times and the
        :class:`~repro.simulation.heterogeneous.HeterogeneousTimingModel`
        a scenario run charges time with.
    adversary:
        One of :data:`repro.scenarios.adversary.ADVERSARY_KINDS` — the
        Byzantine attack a designated fraction of clients mounts on
        their uploads (``"none"`` = everyone honest; the degenerate
        config stays bit-identical to the plain trainer).
    adversary_fraction:
        Probability each client is designated Byzantine (one seeded
        Bernoulli draw per client, fixed for the run).
    adversary_scale:
        Attack magnitude (sign-flip/scale multiplier, noise amplitude
        in upload-RMS units).
    aggregator:
        One of :data:`repro.fl.robust.AGGREGATOR_KINDS` — the server's
        aggregation rule.  ``"mean"`` is the paper's weighted mean (the
        unmodified server path); the others are Byzantine-tolerant.
    trim_fraction:
        Per-coordinate trim rate of the ``"trimmed_mean"`` aggregator.
    async_mode:
        Run the asynchronous staleness-weighted commit comparison
        (:func:`repro.experiments.scenario.run_async_comparison`) on top
        of the synchronous artifacts.  Under async commits the deadline
        family of fields is inert — stragglers arrive late (and get
        discounted by staleness) instead of being dropped — and the
        adversary fields (``adversary``, ``adversary_fraction``,
        ``adversary_scale``) are unsupported: corruption runs in the
        scenario hooks async commits do not install, so naming an
        ``adversary`` together with ``async_mode`` raises; see
        :mod:`repro.fl.async_engine`.
    staleness_discount:
        One of :data:`repro.fl.async_engine.STALENESS_DISCOUNT_KINDS`
        (``"poly"``/``"const"`` shorthands are normalized) — the
        discount the async trainer applies to an s-commits-stale upload.
    commit_count:
        Arrivals the async server buffers per commit; 0 means "derive"
        (the experiment drivers use half the target cohort, so commits
        close before the stragglers land).
    seed:
        Seeds availability chains, straggler designation, and cohort
        sampling (all streams are derived, so one scenario seed pins the
        whole deployment realization).
    """

    availability: str = "markov"
    p_drop: float = 0.1
    p_recover: float = 0.5
    period: int = 24
    duty: float = 0.5
    trace: tuple[tuple[int, ...], ...] | None = None
    trace_cycle: bool = True
    participants: int = 0
    over_selection: float = 0.0
    deadline: float | tuple[float, ...] | None = None
    deadline_policy: str = "fixed"
    deadline_min: float | None = None
    deadline_max: float | None = None
    deadline_probe: bool = True
    min_uploads: int = 1
    reweight: str = "arrived"
    slow_fraction: float = 0.0
    slow_factor: float = 4.0
    adversary: str = "none"
    adversary_fraction: float = 0.0
    adversary_scale: float = 10.0
    aggregator: str = "mean"
    trim_fraction: float = 0.25
    async_mode: bool = False
    staleness_discount: str = "constant"
    commit_count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.availability not in AVAILABILITY_KINDS:
            raise ValueError(
                f"unknown availability {self.availability!r}; expected one "
                f"of {AVAILABILITY_KINDS}"
            )
        if self.availability == "trace" and not self.trace:
            raise ValueError("trace availability needs a non-empty trace")
        if self.trace is not None:
            object.__setattr__(
                self, "trace",
                tuple(tuple(int(c) for c in entry) for entry in self.trace),
            )
        if not 0.0 <= self.p_drop <= 1.0 or not 0.0 <= self.p_recover <= 1.0:
            raise ValueError("p_drop/p_recover must be in [0, 1]")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        if self.participants < 0:
            raise ValueError("participants must be >= 0 (0 = all available)")
        if self.over_selection < 0.0:
            raise ValueError("over_selection must be >= 0")
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
        if self.min_uploads < 1:
            raise ValueError("min_uploads must be >= 1")
        if self.reweight not in REWEIGHT_MODES:
            raise ValueError(
                f"unknown reweight mode {self.reweight!r}; expected one of "
                f"{REWEIGHT_MODES}"
            )
        if not 0.0 <= self.slow_fraction <= 1.0:
            raise ValueError("slow_fraction must be in [0, 1]")
        if self.slow_factor <= 0.0:
            raise ValueError("slow_factor must be positive")
        if self.adversary not in ADVERSARY_KINDS:
            raise ValueError(
                f"unknown adversary {self.adversary!r}; expected one of "
                f"{ADVERSARY_KINDS}"
            )
        if not 0.0 <= self.adversary_fraction <= 1.0:
            raise ValueError("adversary_fraction must be in [0, 1]")
        if self.adversary_fraction > 0.0 and self.adversary == "none":
            raise ValueError(
                "adversary_fraction > 0 needs an adversary kind"
            )
        if self.adversary_scale <= 0.0:
            raise ValueError("adversary_scale must be positive")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(
                f"unknown aggregator {self.aggregator!r}; expected one of "
                f"{AGGREGATOR_KINDS}"
            )
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        normalized = {"poly": "polynomial", "const": "constant"}.get(
            self.staleness_discount, self.staleness_discount
        )
        if normalized not in STALENESS_DISCOUNT_KINDS:
            raise ValueError(
                f"unknown staleness_discount {self.staleness_discount!r}; "
                f"expected one of {STALENESS_DISCOUNT_KINDS}"
            )
        object.__setattr__(self, "staleness_discount", normalized)
        if self.commit_count < 0:
            raise ValueError(
                "commit_count must be >= 0 (0 = derived from the cohort)"
            )
        if self.async_mode and self.adversary != "none":
            raise ValueError(
                "async_mode cannot be combined with adversary="
                f"{self.adversary!r}: async commits do not install the "
                "scenario hooks that corrupt uploads"
            )

    def _normalize_deadline_policy(self) -> None:
        """Validate/normalize the deadline_policy family of fields.

        Runs inside ``__post_init__`` (after the ``deadline`` value
        itself is normalized), so serialized configs round-trip: every
        normalization is idempotent on its own output.
        """
        if self.deadline_policy not in DEADLINE_POLICY_KINDS:
            raise ValueError(
                f"unknown deadline_policy {self.deadline_policy!r}; "
                f"expected one of {DEADLINE_POLICY_KINDS}"
            )
        if self.deadline_policy == "fixed" and isinstance(self.deadline, tuple):
            if len(self.deadline) == 1:
                object.__setattr__(self, "deadline", self.deadline[0])
            else:
                # Legacy configs predate the field: a schedule means cycling.
                object.__setattr__(self, "deadline_policy", "cycling")
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
            rng = np.random.default_rng((self.seed, 0x51C0))
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
