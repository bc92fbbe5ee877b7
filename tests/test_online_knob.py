"""OnlineKnob: the one learning rule behind the three learned decisions.

- the knob over ``SignOGD`` / ``AdaptiveSignOGD`` walks exactly like the
  bare walker, and its probe points equal the three formulas the
  adapters used to hand-write (kept here as the reference);
- several readings are alternatives: the first available sign wins;
- a zero-width interval freezes all three knobs instead of crashing in
  the estimator mid-run (through a real scenario round and a real async
  commit, not only the unit);
- a source lint keeps it one rule: nobody outside ``repro/online`` calls
  the estimator or builds a walker.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import async_engine
from repro.fl.async_engine import AdaptiveStalenessDiscount, AsyncFLTrainer
from repro.fl.trainer import FLTrainer
from repro.online import (
    AdaptiveKTrainer,
    AdaptiveSignOGD,
    OnlineKnob,
    Reading,
    SearchInterval,
    SignOGD,
    SignPolicy,
)
from repro.scenarios import (
    AdaptiveDeadlinePolicy,
    DeadlineRoundPolicy,
    DeploymentScenario,
    ScenarioConfig,
)
from repro.simulation.heterogeneous import (
    ClientProfile,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK

from helpers import make_gaussian_blobs, make_logistic, partition_iid


def reading_for(sign, value, probe_value):
    """A reading whose eq. (10)–(11) estimate is exactly ``sign`` for a
    probe *below* the value (None: the probe loss did not decrease)."""
    loss_probe = {1: 0.4, 0: 0.5, -1: 0.8, None: 1.2}[sign]
    return Reading(1.0, 0.5, loss_probe, 1.0, 1.0, value, probe_value)


signs = st.lists(st.sampled_from([-1, 0, 1, None]), min_size=1, max_size=60)
intervals = st.tuples(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.0, max_value=500.0),
).map(lambda lo_width: SearchInterval(lo_width[0], lo_width[0] + lo_width[1]))


class TestKnobWalksLikeTheBareWalker:
    @settings(max_examples=60, deadline=None)
    @given(sequence=signs)
    def test_over_sign_ogd(self, sequence):
        K = SearchInterval(2.0, 400.0)
        bare = SignOGD(K, k1=150.0)
        knob = OnlineKnob.over(K, start=150.0)
        for sign in sequence:
            bare.update(sign)
            knob.observe(reading_for(sign, knob.value, knob.value / 2.0))
        assert knob.history == bare.k_history
        assert knob.walker.m == bare.m == len(sequence) + 1

    @settings(max_examples=60, deadline=None)
    @given(sequence=signs)
    def test_over_adaptive_sign_ogd(self, sequence):
        K = SearchInterval(2.0, 400.0)
        bare = AdaptiveSignOGD(K, k1=150.0, alpha=1.2, update_window=4)
        walker = AdaptiveSignOGD(K, k1=150.0, alpha=1.2, update_window=4)
        knob = OnlineKnob(walker)
        for sign in sequence:
            bare.update(sign)
            knob.observe(reading_for(sign, knob.value, knob.value / 2.0))
        assert knob.history == bare.k_history
        assert walker.restart_rounds == bare.restart_rounds
        assert walker.interval == bare.interval

    def test_algorithm3_is_algorithm2_until_the_first_restart(self):
        K = SearchInterval(1.0, 101.0)
        a2 = SignOGD(K, k1=60.0)
        a3 = AdaptiveSignOGD(K, k1=60.0, update_window=1000)
        assert isinstance(a3, SignOGD)
        for sign in (1, -1, None, 1, 1, 0, -1):
            assert a2.step_size() == a3.step_size()
            a2.update(sign)
            a3.update(sign)
        assert a2.k_history == a3.k_history


class TestProbePoints:
    @settings(max_examples=200, deadline=None)
    @given(
        interval=intervals,
        fraction=st.floats(min_value=0.0, max_value=1.0),
        m=st.integers(min_value=1, max_value=200),
    )
    def test_equal_the_three_legacy_formulas(self, interval, fraction, m):
        x = interval.project(interval.kmin + fraction * interval.width)
        knob = OnlineKnob.over(interval, start=x)
        for _ in range(m - 1):
            knob.observe()  # advance the round counter, value unchanged
        assert knob.value == x and knob.walker.m == m
        step = knob.walker.step_size()

        # online/policy.py::SignPolicy.probe_k
        k_probe = max(x - step / 2.0, 1.0)
        assert knob.probe_below(floor=1.0) == (
            k_probe if k_probe < x else None
        )
        # scenarios/deadline.py::AdaptiveDeadlinePolicy.probe_deadline and
        # fl/async_engine.py::AdaptiveStalenessDiscount.probe_exponent
        relative = max(x - step / 2.0, x / 2.0)
        assert knob.probe_below(floor=x / 2.0) == (
            relative if relative < x else None
        )
        # ...probe_deadline_up
        up = x + step / 2.0
        assert knob.probe_above() == (up if up > x else None)
        if interval.width > 0 and step / 2.0 > 1e-12 * x:
            # On a real interval the relative-floor probes never vanish.
            assert knob.probe_below(floor=x / 2.0) is not None
            assert knob.probe_above() is not None


class TestReadingsAreAlternatives:
    def _knob(self):
        return OnlineKnob.over(SearchInterval(2.0, 10.0))

    def test_first_available_sign_wins(self):
        # d' says +1, d'' (probe above, so its slope flips) says −1.
        one, two = self._knob(), self._knob()
        down = reading_for(1, 6.0, 5.0)
        up = Reading(1.0, 0.5, 0.2, 5.0, 6.0, 6.0, 7.0)
        one.observe(down)
        two.observe(down, up)
        assert two.history == one.history and two.value < 6.0

    def test_second_reading_substitutes_for_an_unavailable_first(self):
        knob, only_up = self._knob(), self._knob()
        up = Reading(1.0, 0.5, 0.2, 5.0, 6.0, 6.0, 7.0)
        knob.observe(reading_for(None, 6.0, 5.0), up)
        only_up.observe(up)
        assert knob.history == only_up.history and knob.value > 6.0

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_none_available_advances_m_with_the_value_unchanged(self, count):
        knob = self._knob()
        knob.observe(*[reading_for(None, 6.0, 5.0)] * count)
        assert knob.value == 6.0
        assert knob.walker.m == 2 and knob.history == [6.0, 6.0]


# ----------------------------------------------------------------------
# Zero-width intervals: legal (SearchInterval accepts kmin == kmax), and
# before the single probe rule the deadline and the exponent returned a
# probe EQUAL to the decision, which killed the next observe() inside
# estimate_derivative ("probe k' must differ from k").
# ----------------------------------------------------------------------
def _setup(seed=4, clients=6):
    ds = make_gaussian_blobs(num_samples=240, num_classes=4, feature_dim=12,
                             separation=3.0, seed=seed)
    fed = partition_iid(ds, num_clients=clients, seed=seed)
    return make_logistic(12, 4, seed=seed), fed


def _straggler_profiles(fed):
    return [
        ClientProfile(
            client_id=c.client_id,
            compute_factor=4.0 if c.client_id % 3 == 0 else 1.0,
            comm_factor=4.0 if c.client_id % 3 == 0 else 1.0,
        )
        for c in fed.clients
    ]


class TestZeroWidthIntervalFreezesTheWalk:
    def test_all_three_adapters_stop_probing(self, monkeypatch):
        policy = SignPolicy(SignOGD(SearchInterval(5.0, 5.0)))
        deadline = AdaptiveDeadlinePolicy(SearchInterval(5.0, 5.0))
        monkeypatch.setattr(async_engine, "DEFAULT_EXPONENT_INTERVAL",
                            (0.5, 0.5))
        discount = AdaptiveStalenessDiscount()
        assert policy.probe_k() is None
        assert deadline.probe_deadline(1) is None
        assert deadline.probe_deadline_up(1) is None
        assert discount.probe_exponent() is None

    def test_learned_k_run_completes(self):
        model, fed = _setup()
        policy = SignPolicy(SignOGD(SearchInterval(5.0, 5.0)))
        trainer = AdaptiveKTrainer(
            model, fed, FABTopK(), policy,
            TimingModel(model.dimension, comm_time=8.0),
            learning_rate=0.1, batch_size=8, seed=4,
        )
        trainer.run(4)
        assert policy.algorithm.k_history == [5.0] * 5

    def test_learned_deadline_round_completes(self):
        model, fed = _setup()
        ids = [c.client_id for c in fed.clients]
        profiles = _straggler_profiles(fed)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=8.0, profiles=profiles
        )
        config = ScenarioConfig(
            availability="always", deadline_policy="adaptive",
            deadline_min=2.0, deadline_max=9.0, seed=4,
        )
        scenario = DeploymentScenario.build(config, ids, timing, profiles)
        # ScenarioConfig insists on dmin < dmax; a hand-built policy need
        # not.  d = 5 cuts the 4x stragglers, so the d''-replay would run.
        pinned = AdaptiveDeadlinePolicy(SearchInterval(5.0, 5.0))
        scenario.hooks.policy = DeadlineRoundPolicy(pinned)
        trainer = FLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.1,
            batch_size=8, seed=4, scenario=scenario,
        )
        trainer.run(4, k=9)
        assert scenario.stats.total_dropped > 0
        assert pinned.knob.history == [5.0] * 5
        assert pinned.knob.walker.m == 5

    def test_learned_exponent_commit_completes(self, monkeypatch):
        model, fed = _setup()
        profiles = _straggler_profiles(fed)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=8.0, profiles=profiles
        )
        monkeypatch.setattr(async_engine, "DEFAULT_EXPONENT_INTERVAL",
                            (0.5, 0.5))
        pinned = AdaptiveStalenessDiscount()
        trainer = AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.1,
            batch_size=8, seed=4, discount=pinned, commit_count=3,
            profiles=profiles,
        )
        trainer.run(6, k=9)
        assert max(trainer.staleness_history) > 0  # stale commits ran
        assert pinned.exponent_history == [0.5] * 7


# ----------------------------------------------------------------------
# Tooling: keep it one rule
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
WALKERS = {"SignOGD", "AdaptiveSignOGD"}
#: the figure drivers that build the k policy's walker (fig7 and fig6's
#: Algorithm-3 arm take the proposed policy from fig5.make_policy)
WALKER_BUILDERS = {"experiments/fig5.py", "experiments/fig6.py"}


def _called_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )


class TestOneLearningRule:
    def test_only_the_online_package_estimates_signs_and_builds_walkers(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative.startswith("online/"):
                continue
            source = path.read_text()
            for node in ast.walk(ast.parse(source)):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node)
                if name == "estimate_sign" or (
                    name in WALKERS and relative not in WALKER_BUILDERS
                ):
                    offenders.append(f"{relative}:{node.lineno} {name}(...)")
            if "_loss_prev" in source and relative != "fl/engine.py":
                offenders.append(f"{relative}: carries its own _loss_prev")
        assert offenders == [], (
            "the learning rule lives in repro/online/knob.py and the "
            "L(w(m-1)) carry in fl/engine.py: " + "; ".join(offenders)
        )

    def test_the_lint_sees_the_estimator_call_it_allows(self):
        # Guard against a vacuous lint: the one real call site parses.
        calls = [
            node for node in ast.walk(
                ast.parse((SRC / "online" / "knob.py").read_text())
            )
            if isinstance(node, ast.Call)
            and _called_name(node) == "estimate_sign"
        ]
        assert len(calls) == 1


def _calls_by_class(relative):
    """(enclosing class name or None, call node) of every call in a file."""
    tree = ast.parse((SRC / relative).read_text())
    inside = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                inside.setdefault(id(node), cls.name)
    return [
        (inside.get(id(node)), node)
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]


def _sources():
    return [
        path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
    ]


class TestOneKRule:
    """The engine holds the k rule; the learned k is the one hook that
    draws it (``LearnedK``), and ``EngineFacade`` holds the one loop."""

    def test_only_learned_k_rounds_and_asks_the_policy(self):
        offenders = [
            f"{relative}:{node.lineno} {owner}: {_called_name(node)}(...)"
            for relative in _sources()
            for owner, node in _calls_by_class(relative)
            if _called_name(node) == "stochastic_round"
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("propose", "probe_k"))
            if (relative, owner) != ("online/adaptive_trainer.py", "LearnedK")
        ]
        assert offenders == [], (
            "only LearnedK draws k (stochastic_round) and asks a policy "
            "for it (propose/probe_k): " + "; ".join(offenders)
        )

    def test_the_rounding_stream_is_made_once_by_the_engine(self):
        sites = [
            relative
            for relative in _sources()
            for node in ast.walk(ast.parse((SRC / relative).read_text()))
            if isinstance(node, ast.Constant) and node.value == 0xADA9
        ]
        assert sites == ["fl/engine.py"]

    def test_only_the_engine_facade_defines_run_loops(self):
        offenders = [
            f"{relative}: {cls.name}.{item.name}"
            for relative in _sources()
            for cls in ast.walk(ast.parse((SRC / relative).read_text()))
            if isinstance(cls, ast.ClassDef) and cls.name != "EngineFacade"
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and item.name in ("run", "run_for_time")
        ]
        assert offenders == [], (
            "EngineFacade.run/run_for_time are the only run loops: "
            + "; ".join(offenders)
        )

    def test_the_lints_see_the_calls_they_allow(self):
        # Guard against vacuous lints: LearnedK's own calls parse.
        names = [
            _called_name(node)
            for owner, node in _calls_by_class("online/adaptive_trainer.py")
            if owner == "LearnedK"
        ]
        assert names.count("stochastic_round") == 2
        assert {"propose", "probe_k"} <= set(names)
