"""The declaration itself: ``repro.declared`` over both config classes.

Every field that declares a ``within``/``one_of`` accepts what it
declares and rejects the rest with a message that names it; every field
that declares a flag gets exactly one argparse action whose parsed value
comes back as ``{field: value}``; and an engine setting is spelt in one
signature, so a misspelt keyword fails there, naming itself.
"""

import argparse
import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.declared import add_flags, option, overrides_from, validate
from repro.experiments.config import ExperimentConfig
from repro.fl.async_engine import (
    STALENESS_ALIASES,
    STALENESS_DISCOUNT_KINDS,
    AsyncFLTrainer,
)
from repro.fl.backends import SerialBackend
from repro.fl.fedavg import AlwaysSendAllTrainer, FedAvgTrainer
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.online.baselines import ValueBasedGD
from repro.online.interval import SearchInterval
from repro.scenarios import DeploymentScenario, ScenarioConfig
from repro.simulation.heterogeneous import (
    ClientSampler, HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK

CONFIGS = (ScenarioConfig, ExperimentConfig)
FIELDS = [
    pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")
    for cls in CONFIGS for field in dataclasses.fields(cls)
]
INTERVALS = [p for p in FIELDS if p.values[1].metadata.get("within")]
CHOICES = [p for p in FIELDS if p.values[1].metadata.get("one_of")]
FLAGGED = [p for p in FIELDS if p.values[1].metadata.get("flag")]

#: what a field's in-range value needs beside it to clear the
#: *cross-field* rules (which are not the declaration's business)
COMPANIONS = {
    "over_selection": {"participants": 3},
    "adversary_fraction": {"adversary": "scale"},
    "availability": {"trace": ((0, 1),)},
    "deadline_policy": {"deadline": (2.0, 4.0)},
}
BIG = 10 ** 6  # stands in for "inf" when drawing a value


def _edges(interval):
    low, high = (float(edge) for edge in interval[1:-1].split(","))
    return low, high, interval[0] == "[", interval[-1] == "]"


def _inside(field):
    low, high, closed_low, closed_high = _edges(field.metadata["within"])
    if isinstance(field.default, int):
        return st.integers(
            int(low) + (not closed_low),
            BIG if math.isinf(high) else int(high) - (not closed_high),
        )
    return st.floats(
        low, min(high, float(BIG)), exclude_min=not closed_low,
        exclude_max=not closed_high and not math.isinf(high),
    )


def _outside(field):
    low, high, closed_low, closed_high = _edges(field.metadata["within"])
    number = st.integers if isinstance(field.default, int) else st.floats
    below = number(max_value=low).filter(
        lambda v: v < low or not closed_low
    )
    if math.isinf(high):
        return below
    return below | number(min_value=high).filter(
        lambda v: v > high or not closed_high
    )


def _build(cls, field, value):
    return cls(**{**COMPANIONS.get(field.name, {}), field.name: value})


class TestDeclaredRanges:
    def test_the_census(self):
        # 27 + 25 fields; what each config declares (ISSUE 23's counts).
        census = {
            cls.__name__: (
                len(dataclasses.fields(cls)),
                sum(p.values[0] is cls for p in FLAGGED),
                sum(p.values[0] is cls for p in INTERVALS),
                sum(p.values[0] is cls for p in CHOICES),
            )
            for cls in CONFIGS
        }
        assert census == {
            "ScenarioConfig": (27, 23, 13, 6),
            "ExperimentConfig": (25, 9, 17, 3),
        }

    @pytest.mark.parametrize("cls, field", INTERVALS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_interval_accepts_inside_rejects_outside(self, cls, field, data):
        inside = data.draw(_inside(field))
        assert getattr(_build(cls, field, inside), field.name) == inside
        outside = data.draw(_outside(field) | st.just(float("nan")))
        with pytest.raises(ValueError) as error:
            _build(cls, field, outside)
        assert str(error.value).startswith(
            f"{field.name} must be in {field.metadata['within']}, got "
        )

    @pytest.mark.parametrize("cls, field", CHOICES)
    @settings(max_examples=10, deadline=None)
    @given(bogus=st.text(max_size=12))
    def test_choice_accepts_members_rejects_the_rest(self, cls, field, bogus):
        members = field.metadata["one_of"]
        for member in members:
            # (a tuple deadline normalizes "fixed" to "cycling")
            assert getattr(_build(cls, field, member), field.name) in members
        assume(bogus not in members and bogus not in STALENESS_ALIASES)
        with pytest.raises(ValueError) as error:
            _build(cls, field, bogus)
        assert str(error.value).startswith(
            f"unknown {field.name} {bogus!r}; expected one of "
        )
        assert all(member in str(error.value) for member in members)

    @pytest.mark.parametrize("cls, field", INTERVALS)
    def test_none_is_not_a_number(self, cls, field):
        # No declared interval sits on an Optional field today ...
        assert "None" not in str(field.type)
        with pytest.raises(ValueError, match=f"^{field.name} must be in"):
            _build(cls, field, None)

    def test_none_passes_only_where_the_annotation_allows_it(self):
        # ... so the rule is pinned on a minimal dataclass.
        @dataclasses.dataclass
        class Probe:
            maybe: float | None = option(None, within="(0, inf)")
            always: float = option(1.0, within="(0, inf)")

            def __post_init__(self):
                validate(self)

        assert Probe(maybe=None).maybe is None
        assert Probe(maybe=2.0).maybe == 2.0
        with pytest.raises(ValueError, match="^maybe must be in"):
            Probe(maybe=0.0)
        with pytest.raises(ValueError, match="^always must be in"):
            Probe(always=None)
        with pytest.raises(ValueError, match="^always must be in"):
            Probe(always="fast")


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        staleness=st.sampled_from(
            STALENESS_DISCOUNT_KINDS + tuple(STALENESS_ALIASES)
        ),
        policy=st.sampled_from(("fixed", "cycling", "adaptive")),
        deadline=st.none() | st.floats(0.5, 20.0) | st.lists(
            st.floats(0.5, 20.0), min_size=1, max_size=4
        ).map(tuple),
        async_mode=st.booleans(),
        seed=st.integers(0, 99),
    )
    def test_scenario_dict_round_trips_after_normalisation(
        self, staleness, policy, deadline, async_mode, seed
    ):
        try:
            config = ScenarioConfig(
                staleness_discount=staleness, deadline_policy=policy,
                deadline=deadline, async_mode=async_mode, seed=seed,
            )
        except ValueError:
            assume(False)  # a cross-field rule said no
        assert config.staleness_discount == STALENESS_ALIASES.get(
            staleness, staleness
        )
        if policy == "fixed" and isinstance(deadline, tuple):
            assert config.deadline_policy == (
                "cycling" if len(deadline) > 1 else "fixed"
            )
        data = config.to_dict()
        assert ScenarioConfig.from_dict(data) == config
        assert ScenarioConfig.from_dict(data).to_dict() == data
        outer = ExperimentConfig.smoke().with_overrides(scenario=data)
        assert ExperimentConfig.from_dict(outer.to_dict()) == outer


def _sample_argv(field):
    """(argv words after the flag, the value they parse to)."""
    extra = field.metadata["argparse"]
    if extra.get("action") == "store_const":
        return st.just(([], extra["const"]))
    choices = extra.get("choices") or field.metadata["one_of"]
    if choices:
        return st.sampled_from(choices).map(lambda c: ([c], c))
    kind = extra.get("type") or (
        type(field.default) if field.default is not None else str
    )
    if kind is str:
        return st.just((["out/trace.jsonl"], "out/trace.jsonl"))
    number = st.integers(-50, 50) if kind is int else st.floats(
        -50, 50
    ).map(lambda v: round(v, 3))
    if extra.get("nargs") == "+":
        return st.lists(number, min_size=1, max_size=4).map(
            lambda vs: ([str(v) for v in vs], [kind(v) for v in vs])
        )
    return number.map(lambda v: ([str(v)], kind(v)))


class TestDeclaredFlags:
    @pytest.mark.parametrize("cls, field", FLAGGED)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_one_action_and_the_value_comes_back(self, cls, field, data):
        parser = argparse.ArgumentParser()
        add_flags(parser, cls, skip=[
            other.name for other in dataclasses.fields(cls)
            if other is not field
        ])
        (action,) = [
            a for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert action.option_strings == [field.metadata["flag"]]
        assert action.default is None and action.help
        words, value = data.draw(_sample_argv(field))
        args = parser.parse_args([field.metadata["flag"], *words])
        assert overrides_from(args, cls) == {field.name: value}
        # An unset flag leaves the preset alone.
        assert overrides_from(parser.parse_args([]), cls) == {}

    def test_skip_leaves_a_flag_out(self):
        parser = argparse.ArgumentParser()
        add_flags(parser, ExperimentConfig, skip=("population",))
        flags = {s for a in parser._actions for s in a.option_strings}
        assert "--population" not in flags and "--rounds" in flags
        # overrides_from tolerates a parser that skipped a flag.
        args = parser.parse_args(["--rounds", "9"])
        assert overrides_from(args, ExperimentConfig) == {"num_rounds": 9}


# ----------------------------------------------------------------------
# One signature per engine setting
# ----------------------------------------------------------------------
def _parts():
    ds = make_femnist_like(num_writers=4, samples_per_writer=12,
                           num_classes=6, image_size=6, classes_per_writer=3,
                           seed=1)
    fed = partition_by_writer(ds, seed=1)
    model = make_mlp(36, 6, hidden=(6,), seed=1)
    return model, fed, TimingModel(model.dimension, comm_time=1.0)


FACADES = {
    "FLTrainer": lambda m, f, t, **kw: FLTrainer(m, f, FABTopK(), t, **kw),
    "AsyncFLTrainer": lambda m, f, t, **kw: AsyncFLTrainer(
        m, f, FABTopK(), t, **kw
    ),
    "AdaptiveKTrainer": lambda m, f, t, **kw: AdaptiveKTrainer(
        m, f, FABTopK(), ValueBasedGD(SearchInterval(2.0, 50.0)), t, **kw
    ),
    "FedAvgTrainer": lambda m, f, t, **kw: FedAvgTrainer(m, f, t, 2, **kw),
    "AlwaysSendAllTrainer": lambda m, f, t, **kw: AlwaysSendAllTrainer(
        m, f, t, **kw
    ),
}


class TestEngineSettings:
    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_settings_reach_the_engine_and_typos_name_themselves(
        self, facade
    ):
        model, fed, timing = _parts()
        backend = SerialBackend()
        trainer = FACADES[facade](
            model, fed, timing, learning_rate=0.2, batch_size=4,
            eval_every=3, eval_max_samples=20, backend=backend, seed=7,
        )
        engine = trainer.engine
        assert (engine.learning_rate, engine.eval_every) == (0.2, 3)
        assert engine.backend is backend
        assert len(engine._eval_y) == 20
        if facade in ("FLTrainer", "AsyncFLTrainer"):
            trainer.step(3)  # fixed-k façades take the round's k
        else:
            trainer.step()
        with pytest.raises(TypeError, match="learnin_rate"):
            FACADES[facade](*_parts(), learnin_rate=0.1)

    def test_defaults_are_the_engines(self):
        trainer = FLTrainer(*_parts()[:2], FABTopK())
        assert trainer.engine.learning_rate == 0.01
        assert trainer.timing.comm_time == 0.0  # the façade's default

    def test_scenario_and_sampler_still_conflict(self):
        model, fed, timing = _parts()
        ids = [c.client_id for c in fed.clients]
        scenario = DeploymentScenario.build(
            ScenarioConfig(availability="always"), ids, timing
        )
        for build in (FACADES["FLTrainer"], FACADES["AsyncFLTrainer"],
                      FACADES["AdaptiveKTrainer"]):
            with pytest.raises(ValueError, match="scenario or a sampler"):
                build(model, fed, timing, scenario=scenario,
                      sampler=ClientSampler(ids, 2))

    def test_async_takes_a_scenarios_adversary_seam_not_its_gate(self):
        model, fed, _ = _parts()
        config = ScenarioConfig(availability="always", adversary="sign_flip",
                                adversary_fraction=0.5, slow_fraction=0.5)
        ids = [c.client_id for c in fed.clients]
        timing = HeterogeneousTimingModel(
            model.dimension, 1.0, config.build_profiles(ids)
        )
        attacked = DeploymentScenario.build(config, ids, timing)
        trainer = AsyncFLTrainer(
            model, fed, FABTopK(), timing, scenario=attacked, commit_count=2
        )
        # The deadline gate stays out; the adversary seam and sampler go
        # in, and the timing model times the arrivals.
        seam, commit = trainer.engine.scenario_hooks.hooks
        assert seam is attacked.hooks.adversary_hooks
        assert type(commit).__name__ == "_CommitHooks"
        assert set(trainer.engine.timing.profiles) == {
            c.client_id for c in fed.clients
        }
        assert trainer.engine.sampler is attacked.sampler
