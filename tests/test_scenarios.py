"""Deployment-scenario subsystem tests.

Four load-bearing guarantees (the PR acceptance criteria):

(a) **Backend bit-identity under churn** — the same seeded scenario
    (Markov availability, straggler profiles, deadline drops,
    over-selection — including the online-adapted deadline) produces
    *identical* histories, weights and residuals on the serial and
    sharded backends.
(b) **Exact recovery of dropped uploads** — a deadline-dropped client's
    gradient survives in its residual and is transmitted, bit for bit,
    the next time the client makes a deadline.
(c) **Degenerate scenario = plain trainer** — always-available, no
    deadline, full participation reproduces the scenario-free trainer's
    history exactly.
(d) **Golden scenario history** — a pinned churn+deadline+over-selection
    run guards scenario semantics against drift absolutely, not only by
    cross-backend equality.

Plus unit coverage of the availability processes (including
property-based purity tests — the invariant (a) rests on), the deadline
policies (fixed / cycling / adaptive — the dual of the learned k), the
scenario config round-trip, the sampler, partial-aggregation
reweighting, the deadline-policy comparison panel, and the CLI entry
point.
"""

import ast
import json
import multiprocessing
import pathlib
import resource
import sys
import weakref

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.engine import ChainedHooks, RoundHooks
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.online.adaptive_trainer import AdaptiveKTrainer
from repro.online.algorithm2 import SignOGD
from repro.online.estimator import estimate_sign
from repro.online.interval import SearchInterval
from repro.online.knob import Reading
from repro.online.policy import SignPolicy
from repro.parallel.sharded import ShardedBackend
from repro.scenarios import (
    AdaptiveDeadlinePolicy,
    AlwaysAvailable,
    CyclingDeadlinePolicy,
    DeadlineRoundPolicy,
    DeploymentScenario,
    DiurnalAvailability,
    MarkovAvailability,
    ScenarioConfig,
    ScenarioSampler,
    TraceAvailability,
)
from repro.scenarios.availability import load_trace_json
from repro.simulation.heterogeneous import ClientProfile, HeterogeneousTimingModel
from repro.simulation.timing import TimingModel
from repro.sparsify.base import ClientUpload, SparseVector
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.periodic import PeriodicK

from helpers import materialize, to_dense

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_histories.json"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def history_rows(history):
    return [
        (
            r.round_index, r.k, r.round_time, r.cumulative_time,
            None if np.isnan(r.loss) else r.loss, r.accuracy,
            r.uplink_elements, r.downlink_elements,
            tuple(sorted(r.contributions.items())),
        )
        for r in history
    ]


# ----------------------------------------------------------------------
# Availability processes
# ----------------------------------------------------------------------
class TestAvailability:
    IDS = [0, 1, 2, 3, 4]

    def test_always_available(self):
        av = AlwaysAvailable(self.IDS)
        assert av.available_ids(1) == self.IDS
        assert av.available_ids(1000) == self.IDS

    def test_markov_is_deterministic_and_cached(self):
        a = MarkovAvailability(self.IDS, p_drop=0.3, p_recover=0.4, seed=9)
        b = MarkovAvailability(self.IDS, p_drop=0.3, p_recover=0.4, seed=9)
        # Query out of order on one, in order on the other: same chain.
        seq_a = [a.available_ids(m) for m in (5, 1, 3, 5, 2, 4)]
        seq_b = [b.available_ids(m) for m in (5, 1, 3, 5, 2, 4)]
        assert seq_a == seq_b
        assert a.available_ids(5) == seq_a[0]  # cached, not re-drawn

    def test_markov_edge_probabilities(self):
        never_drop = MarkovAvailability(self.IDS, p_drop=0.0, p_recover=0.0)
        for m in range(1, 10):
            assert never_drop.available_ids(m) == self.IDS
        flip = MarkovAvailability(self.IDS, p_drop=1.0, p_recover=1.0)
        assert flip.available_ids(1) == []      # all dropped after round 0
        assert flip.available_ids(2) == self.IDS  # all recovered

    def test_markov_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            MarkovAvailability(self.IDS, p_drop=1.5)

    def test_diurnal_full_duty_is_always_on(self):
        av = DiurnalAvailability(self.IDS, period=6, duty=1.0, seed=0)
        for m in (1, 3, 6, 7, 100):
            assert av.available_ids(m) == self.IDS

    def test_diurnal_cycles_deterministically(self):
        av = DiurnalAvailability(self.IDS, period=4, duty=0.5, seed=2)
        first_day = [av.available_ids(m) for m in range(1, 5)]
        second_day = [av.available_ids(m) for m in range(5, 9)]
        assert first_day == second_day
        # duty 0.5 of period 4 => every client online exactly 2 rounds/day
        per_client = sum(len(ids) for ids in first_day)
        assert per_client == 2 * len(self.IDS)

    def test_trace_replay_cycle_and_hold(self):
        rounds = [[0, 1], [2], [3, 4]]
        cyc = TraceAvailability(self.IDS, rounds, cycle=True)
        assert [cyc.available_ids(m) for m in (1, 2, 3, 4)] == [
            [0, 1], [2], [3, 4], [0, 1]
        ]
        hold = TraceAvailability(self.IDS, rounds, cycle=False)
        assert hold.available_ids(9) == [3, 4]

    def test_trace_rejects_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown client ids"):
            TraceAvailability(self.IDS, [[0, 99]])

    def test_trace_from_json(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"rounds": [[0], [1, 2]], "cycle": False}))
        rounds, cycle = load_trace_json(path)
        av = TraceAvailability(self.IDS, rounds, cycle=cycle)
        assert av.available_ids(1) == [0]
        assert av.available_ids(5) == [1, 2]
        assert not av.cycle


# ----------------------------------------------------------------------
# Availability purity properties (hypothesis)
#
# Backend bit-identity rests on the determinism contract of
# ClientAvailability: available(cid, round) must be a pure function of
# (construction args, round_index) — identical across repeated calls, in
# any query order, and across freshly built instances with the same
# seed.  Property-based coverage so no adversarial (ids, probabilities,
# query order) combination slips through the example tests above.
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    ids_strategy = st.lists(
        st.integers(min_value=0, max_value=40),
        min_size=1, max_size=8, unique=True,
    )
    seed_strategy = st.integers(min_value=0, max_value=2**16)
    query_strategy = st.lists(
        st.integers(min_value=1, max_value=25), min_size=1, max_size=12
    )
    probability_strategy = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False
    )

    class TestAvailabilityProperties:
        @settings(max_examples=50, deadline=None)
        @given(
            ids=ids_strategy,
            p_drop=probability_strategy,
            p_recover=probability_strategy,
            seed=seed_strategy,
            queries=query_strategy,
        )
        def test_markov_purity(self, ids, p_drop, p_recover, seed, queries):
            first = MarkovAvailability(ids, p_drop, p_recover, seed=seed)
            fresh = MarkovAvailability(ids, p_drop, p_recover, seed=seed)
            known = set(first.client_ids)
            for m in queries:
                observed = first.available_ids(m)
                # Pure across repeated calls on one instance...
                assert first.available_ids(m) == observed
                # ...and across a freshly built instance queried in
                # this (arbitrary) order with the same seed.
                assert fresh.available_ids(m) == observed
                assert observed == sorted(observed)
                assert set(observed) <= known
            # In-order replay on a third instance matches too.
            replay = MarkovAvailability(ids, p_drop, p_recover, seed=seed)
            for m in range(1, max(queries) + 1):
                replay.available_ids(m)
            for m in queries:
                assert replay.available_ids(m) == first.available_ids(m)

        @settings(max_examples=50, deadline=None)
        @given(
            ids=ids_strategy,
            period=st.integers(min_value=1, max_value=12),
            duty=st.floats(
                min_value=0.05, max_value=1.0, allow_nan=False
            ),
            seed=seed_strategy,
            queries=query_strategy,
        )
        def test_diurnal_purity_and_period(
            self, ids, period, duty, seed, queries
        ):
            first = DiurnalAvailability(ids, period, duty, seed=seed)
            fresh = DiurnalAvailability(ids, period, duty, seed=seed)
            for m in queries:
                observed = first.available_ids(m)
                assert first.available_ids(m) == observed
                assert fresh.available_ids(m) == observed
                assert observed == sorted(observed)
                # Deterministic duty cycle: one full period later the
                # same set is online.
                assert first.available_ids(m + period) == observed

        @settings(max_examples=50, deadline=None)
        @given(data=st.data(), ids=ids_strategy, queries=query_strategy)
        def test_trace_purity_cycle_and_hold(self, data, ids, queries):
            rounds = data.draw(st.lists(
                st.lists(st.sampled_from(sorted(set(ids))), unique=True),
                min_size=1, max_size=6,
            ))
            cycling = TraceAvailability(ids, rounds, cycle=True)
            holding = TraceAvailability(ids, rounds, cycle=False)
            for m in queries:
                observed = cycling.available_ids(m)
                assert cycling.available_ids(m) == observed
                assert observed == cycling.available_ids(m + len(rounds))
                assert observed == sorted(rounds[(m - 1) % len(rounds)])
                held = holding.available_ids(m)
                assert held == sorted(
                    rounds[min(m - 1, len(rounds) - 1)]
                )

        @settings(max_examples=25, deadline=None)
        @given(ids=ids_strategy, queries=query_strategy)
        def test_always_purity(self, ids, queries):
            available = AlwaysAvailable(ids)
            for m in queries:
                assert available.available_ids(m) == sorted(ids)

    scenario_config_strategy = st.builds(
        ScenarioConfig,
        availability=st.sampled_from(("always", "markov", "diurnal")),
        p_drop=probability_strategy,
        p_recover=probability_strategy,
        period=st.integers(min_value=1, max_value=48),
        duty=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        participants=st.integers(min_value=0, max_value=6),
        deadline=st.one_of(
            st.none(),
            st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
            st.lists(
                st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
                min_size=1, max_size=4,
            ).map(tuple),
        ),
        min_uploads=st.integers(min_value=1, max_value=3),
        reweight=st.sampled_from(("arrived", "cohort")),
        slow_fraction=probability_strategy,
        slow_factor=st.floats(
            min_value=1.0, max_value=10.0, allow_nan=False
        ),
        seed=seed_strategy,
    )

    class TestScenarioConfigProperties:
        @settings(max_examples=60, deadline=None)
        @given(config=scenario_config_strategy)
        def test_dict_round_trip(self, config):
            data = config.to_dict()
            assert ScenarioConfig.from_dict(data) == config
            # And through an actual JSON wire format (the sweep cache).
            assert ScenarioConfig.from_dict(
                json.loads(json.dumps(data))
            ) == config

        @settings(max_examples=40, deadline=None)
        @given(
            data=st.data(),
            ids=ids_strategy,
            cycle=st.booleans(),
            seed=seed_strategy,
        )
        def test_trace_config_round_trip(self, data, ids, cycle, seed):
            rounds = data.draw(st.lists(
                st.lists(st.sampled_from(sorted(set(ids))), unique=True),
                min_size=1, max_size=5,
            ))
            config = ScenarioConfig(
                availability="trace",
                trace=tuple(tuple(entry) for entry in rounds),
                trace_cycle=cycle,
                seed=seed,
            )
            payload = json.loads(json.dumps(config.to_dict()))
            rebuilt = ScenarioConfig.from_dict(payload)
            assert rebuilt == config
            # The replayed process is the same one, round for round.
            original = DeploymentScenario.build(
                config, sorted(ids),
                TimingModel(dimension=10, comm_time=1.0),
            )
            replayed = DeploymentScenario.build(
                rebuilt, sorted(ids),
                TimingModel(dimension=10, comm_time=1.0),
            )
            for m in range(1, 2 * len(rounds) + 2):
                assert (
                    original.sampler.availability.available_ids(m)
                    == replayed.sampler.availability.available_ids(m)
                )

        @settings(max_examples=40, deadline=None)
        @given(
            bounds=st.tuples(
                st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
                st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
            ).filter(lambda pair: pair[0] < pair[1]),
            probe=st.booleans(),
            seed=seed_strategy,
        )
        def test_adaptive_config_round_trip(self, bounds, probe, seed):
            dmin, dmax = bounds
            config = ScenarioConfig(
                deadline_policy="adaptive",
                deadline_min=dmin, deadline_max=dmax,
                deadline_probe=probe, seed=seed,
            )
            payload = json.loads(json.dumps(config.to_dict()))
            assert ScenarioConfig.from_dict(payload) == config


# ----------------------------------------------------------------------
# Deadline policy
# ----------------------------------------------------------------------
def _uploads(nnz_by_client):
    dimension = 100
    uploads = []
    for cid, nnz in nnz_by_client.items():
        indices = np.arange(nnz, dtype=np.int64)
        uploads.append(ClientUpload(
            client_id=cid,
            payload=SparseVector.from_sorted(
                indices, np.ones(nnz), dimension
            ),
            sample_count=10,
        ))
    return uploads


def _finish(uploads, profiles=None):
    """The uploads' arrival times on a D = 100, β = 10 timing model
    carrying ``profiles`` (a per-cid map; None: every client at unit
    speed)."""
    timing = (
        TimingModel(dimension=100, comm_time=10.0) if profiles is None
        else HeterogeneousTimingModel(100, 10.0, profiles)
    )
    return timing.arrival_times(
        [up.client_id for up in uploads], [up.payload.nnz for up in uploads]
    )


class TestDeadlinePolicy:
    TIMING = TimingModel(dimension=100, comm_time=10.0)

    def _admit(self, uploads, deadline, profiles=None, target_uploads=None,
               min_uploads=1):
        """The gate's verdict on the timing model's arrival times, and
        the times."""
        finish = _finish(uploads, profiles)
        gate = DeadlineRoundPolicy(None, min_uploads=min_uploads)
        return gate.admit(uploads, finish, deadline, target_uploads), finish

    def test_finish_times_scale_with_profiles(self):
        uploads = _uploads({0: 10, 1: 10})
        base = _finish(uploads)
        np.testing.assert_allclose(base, base[0])
        profiles = {1: ClientProfile(1, compute_factor=3.0, comm_factor=2.0)}
        slowed = _finish(uploads, profiles)
        assert slowed[0] == base[0]
        uplink = self.TIMING.sparse_round(10, 0).uplink
        assert slowed[1] == pytest.approx(3.0 * 1.0 + 2.0 * uplink)

    def test_all_in_time_closes_at_last_finish(self):
        uploads = _uploads({0: 10, 1: 20})
        verdict, finish = self._admit(uploads, 50.0)
        assert verdict.accepted == (0, 1)
        assert verdict.dropped_ids == ()
        assert verdict.close_time == pytest.approx(max(finish))
        assert verdict.close_time < 50.0

    def test_late_upload_dropped_and_deadline_charged(self):
        uploads = _uploads({0: 10, 1: 10})
        profiles = {1: ClientProfile(1, compute_factor=40.0)}
        verdict, _ = self._admit(uploads, 5.0, profiles)
        assert verdict.accepted == (0,)
        assert verdict.dropped_ids == (1,)
        # The server waited for the deadline, not the straggler tail.
        assert verdict.close_time == 5.0

    def test_over_selection_closes_on_mth_finisher(self):
        uploads = _uploads({0: 10, 1: 20, 2: 30})
        verdict, finish = self._admit(uploads, 50.0, target_uploads=2)
        # Fastest two (smallest payloads) accepted, slowest dropped even
        # though it was within the deadline; close at the 2nd finisher.
        assert verdict.accepted == (0, 1)
        assert verdict.dropped_ids == (2,)
        assert verdict.close_time == pytest.approx(finish[1])

    def test_target_reached_exactly_still_closes_early(self):
        # Boundary case: exactly m uploads beat the deadline.  The server
        # has its m-th upload the moment it lands and closes there — it
        # must not sit out the rest of the deadline window.
        uploads = _uploads({0: 10, 1: 20, 2: 10, 3: 10})
        profiles = {3: ClientProfile(3, compute_factor=100.0)}
        verdict, finish = self._admit(
            uploads, 50.0, profiles, target_uploads=3
        )
        assert verdict.accepted == (0, 1, 2)
        assert verdict.dropped_ids == (3,)
        # Client 1's larger payload makes it the 3rd (last) finisher.
        assert verdict.close_time == pytest.approx(finish[1])
        assert verdict.close_time < 50.0

    def test_over_selection_applies_without_deadline(self):
        uploads = _uploads({0: 10, 1: 20, 2: 30})
        policy = DeadlineRoundPolicy(None, over_selection=0.5)
        assert policy.applies(target_uploads=2)
        assert not policy.applies(target_uploads=None)
        finish = _finish(uploads)
        verdict = policy.admit(uploads, finish, None, target_uploads=2)
        assert verdict.accepted == (0, 1)
        assert verdict.close_time == pytest.approx(finish[1])

    def test_min_uploads_floor_extends_the_round(self):
        uploads = _uploads({0: 10, 1: 10})
        profiles = {
            0: ClientProfile(0, compute_factor=30.0),
            1: ClientProfile(1, compute_factor=40.0),
        }
        verdict, finish = self._admit(uploads, 2.0, profiles, min_uploads=1)
        assert verdict.accepted == (0,)
        assert verdict.close_time == pytest.approx(finish[0])
        assert verdict.close_time > 2.0  # round extended past the deadline

    def test_deadline_schedule_cycles(self):
        schedule = ScenarioConfig(deadline=(2.0, 2.0, 9.0)).deadline_schedule()
        assert [schedule.deadline_for(m) for m in range(1, 7)] == [
            2.0, 2.0, 9.0, 2.0, 2.0, 9.0
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="min_uploads"):
            DeadlineRoundPolicy(None, min_uploads=0)
        with pytest.raises(ValueError, match="positive"):
            ScenarioConfig(deadline=-1.0).deadline_schedule()
        with pytest.raises(ValueError, match="positive"):
            ScenarioConfig(deadline=(2.0, 0.0)).deadline_schedule()
        with pytest.raises(ValueError, match="over_selection"):
            DeadlineRoundPolicy(None, over_selection=-0.1)
        with pytest.raises(ValueError, match="no uploads"):
            DeadlineRoundPolicy(None).admit([], np.empty(0), 5.0)
        assert DeadlineRoundPolicy(None).applies(None) is False
        fixed = ScenarioConfig(deadline=5.0).deadline_schedule()
        assert DeadlineRoundPolicy(fixed).applies(None) is True


# ----------------------------------------------------------------------
# Deadline schedules: fixed / cycling / adaptive (the dual of learned k)
# ----------------------------------------------------------------------
class TestFinishTimeHelper:
    def test_pinned_values_for_known_profiles(self):
        # The timing model's arrival times, which every policy judges:
        # finish = computation·compute_factor + uplink(nnz)·comm_factor
        # with uplink(nnz) = (comm_time/2)·(pair_overhead·nnz)/D.
        timing = TimingModel(dimension=100, comm_time=10.0)
        uploads = _uploads({0: 10, 1: 10, 2: 25})
        profiles = {
            1: ClientProfile(1, compute_factor=3.0, comm_factor=2.0),
            2: ClientProfile(2, compute_factor=4.0, comm_factor=4.0),
        }
        times = _finish(uploads, profiles)
        # nnz=10 → uplink = 5·20/100 = 1.0; nnz=25 → uplink = 5·50/100 = 2.5
        np.testing.assert_allclose(
            times, [1.0 + 1.0, 3.0 + 2.0, 4.0 + 10.0]
        )
        # No profiles: everyone at the unit profile.
        np.testing.assert_allclose(
            _finish(uploads), [2.0, 2.0, 3.5]
        )

    def test_gate_judges_the_helpers_times(self):
        # The gate computes no arrival times of its own: it judges the
        # timing model's (nnz=10 → 2.0, nnz=25 → 3.5) against the
        # deadline.
        timing = TimingModel(dimension=100, comm_time=10.0)
        uploads = _uploads({0: 10, 1: 25})
        finish = _finish(uploads)
        verdict = DeadlineRoundPolicy(None).admit(uploads, finish, 3.0)
        assert verdict.accepted == (0,)
        assert verdict.dropped_ids == (1,)
        assert verdict.close_time == 3.0
        assert DeadlineRoundPolicy(None).admit(
            uploads, finish, 3.5
        ).accepted == (0, 1)


class TestDeadlineSchedules:
    def test_fixed_is_constant_and_none_inactive(self):
        fixed = ScenarioConfig(deadline=4.0).deadline_schedule()
        assert [fixed.deadline_for(m) for m in (1, 7, 100)] == [4.0] * 3
        assert DeadlineRoundPolicy(fixed).applies(None)
        # A fixed law is its schedule: nothing for the hooks to probe.
        assert not hasattr(fixed, "probe_deadline")
        assert not hasattr(fixed, "observe")
        # No deadline: no schedule, and the gate never applies.
        assert ScenarioConfig(deadline=None).deadline_schedule() is None
        assert not DeadlineRoundPolicy(None).applies(None)
        with pytest.raises(ValueError, match="positive"):
            ScenarioConfig(deadline=0.0).deadline_schedule()

    def test_cycling_cycles(self):
        cycling = CyclingDeadlinePolicy((2.0, 2.0, 9.0))
        assert [cycling.deadline_for(m) for m in range(1, 7)] == [
            2.0, 2.0, 9.0, 2.0, 2.0, 9.0
        ]
        assert DeadlineRoundPolicy(cycling).applies(None)
        with pytest.raises(ValueError, match="empty"):
            CyclingDeadlinePolicy(())
        with pytest.raises(ValueError, match="positive"):
            CyclingDeadlinePolicy((2.0, -1.0))

    def test_round_policy_holds_a_schedule_or_none(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 9.0))
        assert DeadlineRoundPolicy(adaptive).schedule is adaptive
        assert DeadlineRoundPolicy(adaptive).applies(None)
        assert DeadlineRoundPolicy(None).schedule is None

    def test_adaptive_starts_at_midpoint_or_d1(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        assert adaptive.deadline == 6.0
        assert adaptive.deadline_for(1) == 6.0
        explicit = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0), d1=3.0)
        assert explicit.deadline == 3.0
        with pytest.raises(ValueError, match="outside"):
            AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0), d1=1.0)

    def test_adaptive_probe_is_below_and_never_unavailable(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        probe = adaptive.probe_deadline(1)
        assert probe is not None
        assert probe == pytest.approx(
            max(6.0 - adaptive.knob.walker.step_size() / 2.0, 3.0)
        )
        assert 0.0 < probe < adaptive.deadline
        # Even pinned at the interval's lower edge the probe stays
        # available (floor d/2) — the walk cannot get stuck at dmin the
        # way the k-policy can at k=1.
        pinned = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0), d1=2.0)
        probe = pinned.probe_deadline(1)
        assert probe is not None and 0.0 < probe < 2.0

    def test_adaptive_probe_disabled(self):
        frozen = AdaptiveDeadlinePolicy(
            SearchInterval(2.0, 10.0), probe=False
        )
        assert frozen.probe_deadline(1) is None
        frozen.observe()  # no probe ran, so the round has no reading
        assert frozen.deadline == 6.0  # unchanged, round advanced
        assert frozen.knob.walker.m == 2

    def _observation(self, adaptive, loss_probe, probe_round_time):
        """The round's readings: just the d'-reading."""
        d = adaptive.deadline
        probe = adaptive.probe_deadline(1)
        return [Reading(
            loss_prev=1.0, loss_now=0.5, loss_probe=loss_probe,
            round_time=5.0, probe_round_time=probe_round_time,
            value=d, probe_value=probe,
        )]

    def test_adaptive_descends_when_tighter_is_cheaper(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        before = adaptive.deadline
        # Probe matched the actual loss decrease at lower cost:
        # τ̂ = 3·0.5/0.5 = 3 < τ = 5 → derivative > 0 → tighten.
        adaptive.observe(*self._observation(
            adaptive, loss_probe=0.5, probe_round_time=3.0
        ))
        assert adaptive.deadline < before

    def test_adaptive_loosens_when_tighter_loses_information(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        before = adaptive.deadline
        # Probe barely decreased the loss: τ̂ = 3·0.5/0.1 = 15 > τ = 5
        # → derivative < 0 → loosen.
        adaptive.observe(*self._observation(
            adaptive, loss_probe=0.9, probe_round_time=3.0
        ))
        assert adaptive.deadline > before

    def test_adaptive_unusable_estimate_keeps_deadline(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        before = adaptive.deadline
        # The round failed to decrease the probe loss → estimate
        # unavailable → d unchanged (the paper's rule for k).
        adaptive.observe(*self._observation(
            adaptive, loss_probe=1.2, probe_round_time=3.0
        ))
        assert adaptive.deadline == before
        assert adaptive.knob.walker.m == 2  # round still advanced

    def test_adaptive_projects_into_interval_and_tracks_history(self):
        adaptive = AdaptiveDeadlinePolicy(
            SearchInterval(5.0, 6.0), d1=5.0
        )
        for _ in range(4):
            adaptive.observe(*self._observation(
                adaptive, loss_probe=0.5, probe_round_time=3.0
            ))
        assert adaptive.deadline == 5.0  # projected at the lower edge
        assert adaptive.knob.history == [5.0] * 5
        assert all(
            SearchInterval(5.0, 6.0).contains(d)
            for d in adaptive.knob.history
        )

    def _two_sided(self, adaptive, loss_probe, probe_round_time,
                   loss_probe_up, probe_round_time_up):
        """The round's readings: d' first, then d''."""
        d = adaptive.deadline
        return self._observation(adaptive, loss_probe, probe_round_time) + [
            Reading(
                loss_prev=1.0, loss_now=0.5, loss_probe=loss_probe_up,
                round_time=5.0, probe_round_time=probe_round_time_up,
                value=d, probe_value=adaptive.probe_deadline_up(1),
            )
        ]

    def test_up_probe_sits_strictly_above_the_deadline(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        up = adaptive.probe_deadline_up(1)
        assert up == pytest.approx(
            6.0 + adaptive.knob.walker.step_size() / 2.0
        )
        assert up > adaptive.deadline
        frozen = AdaptiveDeadlinePolicy(
            SearchInterval(2.0, 10.0), probe=False
        )
        assert frozen.probe_deadline_up(1) is None

    def test_up_estimate_breaks_the_deadlock(self):
        # One-sided rule: the tighter replay failed to decrease the
        # loss, so the d'-estimate is unavailable and d would freeze
        # (test_adaptive_unusable_estimate_keeps_deadline).  The upward
        # replay recovered the dropped uploads and moved the loss:
        # τ̂_up = 6·0.5/0.8 = 3.75 < τ = 5 with d'' > d → derivative
        # < 0 → loosen.
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        before = adaptive.deadline
        adaptive.observe(*self._two_sided(
            adaptive, loss_probe=1.2, probe_round_time=3.0,
            loss_probe_up=0.2, probe_round_time_up=6.0,
        ))
        assert adaptive.deadline > before
        assert adaptive.knob.walker.m == 2

    def test_down_estimate_stays_primary(self):
        # Both replays usable but pointing in opposite directions: the
        # d'-estimate drives the walk exactly as in the one-sided
        # policy (a summed combination deadlocks the walk in the tight
        # regime — the signs cancel); d'' is fallback only.
        one_sided = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        one_sided.observe(*self._observation(
            one_sided, loss_probe=0.5, probe_round_time=3.0
        ))
        two_sided = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        two_sided.observe(*self._two_sided(
            two_sided, loss_probe=0.5, probe_round_time=3.0,
            loss_probe_up=0.2, probe_round_time_up=6.0,
        ))
        assert two_sided.deadline == one_sided.deadline < 6.0

    def test_both_estimates_unusable_keeps_deadline(self):
        adaptive = AdaptiveDeadlinePolicy(SearchInterval(2.0, 10.0))
        before = adaptive.deadline
        adaptive.observe(*self._two_sided(
            adaptive, loss_probe=1.2, probe_round_time=3.0,
            loss_probe_up=1.1, probe_round_time_up=6.0,
        ))
        assert adaptive.deadline == before
        assert adaptive.knob.walker.m == 2  # round still advanced

    def test_config_builds_the_deadline_schedule(self):
        # A fixed d is the one-entry cycle; no deadline builds nothing.
        fixed = ScenarioConfig(
            deadline=4.0, deadline_policy="fixed"
        ).deadline_schedule()
        assert isinstance(fixed, CyclingDeadlinePolicy)
        assert fixed.schedule == (4.0,)
        assert ScenarioConfig(deadline=None).deadline_schedule() is None
        cycling = ScenarioConfig(
            deadline=(2.0, 9.0), deadline_policy="cycling"
        ).deadline_schedule()
        assert isinstance(cycling, CyclingDeadlinePolicy)
        assert cycling.schedule == (2.0, 9.0)
        adaptive = ScenarioConfig(
            deadline_policy="adaptive", deadline=3.0,
            deadline_min=2.0, deadline_max=9.0, deadline_probe=False,
        ).deadline_schedule()
        assert isinstance(adaptive, AdaptiveDeadlinePolicy)
        assert adaptive.deadline == 3.0
        assert adaptive.knob.walker.interval.kmin == 2.0
        assert adaptive.knob.walker.interval.kmax == 9.0
        assert not adaptive.probe


# ----------------------------------------------------------------------
# ScenarioConfig
# ----------------------------------------------------------------------
class TestScenarioConfig:
    def test_round_trips_through_dict(self):
        config = ScenarioConfig(
            availability="trace",
            trace=((0, 1), (2,)),
            deadline=(2.5, 9.0),
            participants=3,
            over_selection=0.5,
            reweight="cohort",
            slow_fraction=0.25,
            seed=7,
        )
        data = config.to_dict()
        json.dumps(data)  # must be JSON-ready (sweep cache keys)
        assert ScenarioConfig.from_dict(data) == config

    def test_validation(self):
        with pytest.raises(ValueError, match="availability"):
            ScenarioConfig(availability="quantum")
        with pytest.raises(ValueError, match="trace"):
            ScenarioConfig(availability="trace")
        with pytest.raises(ValueError, match="participants"):
            ScenarioConfig(over_selection=0.5)
        with pytest.raises(ValueError, match="reweight"):
            ScenarioConfig(reweight="magic")
        with pytest.raises(ValueError, match="duty"):
            ScenarioConfig(duty=0.0)

    def test_build_profiles_is_seeded_and_sized(self):
        config = ScenarioConfig(slow_fraction=0.5, slow_factor=3.0, seed=4)
        ids = list(range(10))
        first = config.build_profiles(ids)
        second = config.build_profiles(ids)
        assert first == second
        slow = [p for p in first if p.compute_factor == 3.0]
        assert len(slow) == 5
        assert all(p.comm_factor == 3.0 for p in slow)

    def test_experiment_config_carries_scenario(self):
        from repro.experiments.config import ExperimentConfig

        scenario = ScenarioConfig.default_churn().to_dict()
        config = ExperimentConfig.smoke().with_overrides(scenario=scenario)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="scenario"):
            ExperimentConfig.smoke().with_overrides(scenario="churn")

    def test_deadline_policy_validation(self):
        with pytest.raises(ValueError, match="deadline_policy"):
            ScenarioConfig(deadline_policy="oracle")
        # A scalar under cycling is the one-entry cycle; adaptive around
        # a scalar searches [d/2, 2d].
        assert ScenarioConfig(
            deadline=5.0, deadline_policy="cycling"
        ).deadline == (5.0,)
        around = ScenarioConfig(deadline=5.0, deadline_policy="adaptive")
        assert (around.deadline_min, around.deadline_max) == (2.5, 10.0)
        assert around.deadline == 5.0
        with pytest.raises(ValueError, match="cycling"):
            ScenarioConfig(deadline=None, deadline_policy="cycling")
        with pytest.raises(ValueError, match="deadline_min"):
            ScenarioConfig(deadline_policy="adaptive")
        with pytest.raises(ValueError, match="deadline_min"):
            ScenarioConfig(
                deadline=5.0, deadline_policy="adaptive", deadline_min=2.0
            )
        with pytest.raises(ValueError, match="deadline_min"):
            ScenarioConfig(
                deadline_policy="adaptive",
                deadline_min=9.0, deadline_max=2.0,
            )
        with pytest.raises(ValueError, match="outside"):
            ScenarioConfig(
                deadline_policy="adaptive", deadline=1.0,
                deadline_min=2.0, deadline_max=9.0,
            )
        with pytest.raises(ValueError, match="only apply"):
            ScenarioConfig(deadline=5.0, deadline_min=2.0)

    def test_deadline_policy_normalization(self):
        # Legacy dicts predate the field: a schedule means cycling.
        legacy = ScenarioConfig(deadline=(2.5, 9.0))
        assert legacy.deadline_policy == "cycling"
        assert legacy.deadline == (2.5, 9.0)
        # A 1-entry schedule under "fixed" collapses to its scalar.
        single = ScenarioConfig(deadline=(4.0,), deadline_policy="fixed")
        assert single.deadline_policy == "fixed"
        assert single.deadline == 4.0
        # Adaptive derives its interval from a schedule and clears the
        # schedule (d1 defaults to the interval midpoint).
        derived = ScenarioConfig(
            deadline=(2.5, 2.5, 9.0), deadline_policy="adaptive"
        )
        assert derived.deadline is None
        assert derived.deadline_min == 2.5
        assert derived.deadline_max == 9.0
        assert ScenarioConfig.from_dict(derived.to_dict()) == derived

    def test_legacy_dict_without_policy_fields_loads(self):
        data = ScenarioConfig.default_churn().to_dict()
        for field_name in (
            "deadline_policy", "deadline_min", "deadline_max",
            "deadline_probe",
        ):
            data.pop(field_name)
        config = ScenarioConfig.from_dict(data)
        assert config.deadline_policy == "cycling"
        assert config.deadline == (2.5, 2.5, 2.5, 9.0)


# ----------------------------------------------------------------------
# Lint: one deadline family
# ----------------------------------------------------------------------
#: the raw-spec resolvers, the fixed policy and the gate's override
#: sentinel the config-built schedule replaced
DELETED_DEADLINE_NAMES = frozenset({
    "single_deadline_interval", "resolve_deadline_schedule",
    "build_deadline_schedule", "FixedDeadlinePolicy", "_USE_SCHEDULE",
    "deadline_override",
})
DEADLINE_POLICY_CLASSES = frozenset({
    "CyclingDeadlinePolicy", "AdaptiveDeadlinePolicy", "FixedDeadlinePolicy",
})
DEADLINE_EDGES = frozenset({"deadline_min", "deadline_max"})


def _identifier(node):
    for attr in ("id", "attr", "arg", "name"):
        value = getattr(node, attr, None)
        if isinstance(value, str):
            return value
    return None


def deleted_deadline_names(source):
    """``"line: name"`` for every deleted name ``source`` spells."""
    return [
        f"{node.lineno}: {_identifier(node)}"
        for node in ast.walk(ast.parse(source))
        if _identifier(node) in DELETED_DEADLINE_NAMES
    ]


def deadline_policy_builders(source):
    """The functions of ``source`` that construct a deadline policy."""
    return [
        func.name
        for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and _identifier(call.func) in DEADLINE_POLICY_CLASSES
            for call in ast.walk(func)
        )
    ]


def deadline_edge_assignments(source):
    """``"line: edge"`` for every store to a ``deadline_min``/``max``:
    an attribute, a name, a string subscript or a ``setattr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                for leaf in ast.walk(target):
                    key = _identifier(leaf)
                    if isinstance(leaf, ast.Subscript) and isinstance(
                        leaf.slice, ast.Constant
                    ):
                        key = leaf.slice.value
                    if key in DEADLINE_EDGES:
                        found.append(f"{node.lineno}: {key}")
        elif (
            isinstance(node, ast.Call)
            and _identifier(node.func) in ("setattr", "__setattr__")
            and any(isinstance(a, ast.Constant) and a.value in DEADLINE_EDGES
                    for a in node.args)
        ):
            found.append(f"{node.lineno}: setattr")
    return found


def class_members(source, name):
    """What class ``name`` defines: methods, class-level fields and the
    ``self.x`` its methods assign."""
    cls = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    members = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            members.add(node.target.id)
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            members.update(
                t.attr for t in targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name) and t.value.id == "self"
            )
    return members


class TestOneDeadlineFamily:
    """``ScenarioConfig`` is the one place that knows what a deadline
    spec means and builds its policy; the gate judges the deadline it is
    handed."""

    SOURCES = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }

    def test_deleted_names_stay_deleted(self):
        offenders = [
            f"{name}:{hit}"
            for name, source in self.SOURCES.items()
            for hit in deleted_deadline_names(source)
        ]
        assert offenders == [], "; ".join(offenders)

    def test_one_function_builds_the_deadline_policy(self):
        builders = [
            f"{name}:{func}"
            for name, source in self.SOURCES.items()
            for func in deadline_policy_builders(source)
        ]
        assert builders == ["scenarios/config.py:deadline_schedule"]

    def test_only_the_config_assigns_the_interval_edges(self):
        offenders = [
            f"{name}:{hit}"
            for name, source in self.SOURCES.items()
            if name != "scenarios/config.py"
            for hit in deadline_edge_assignments(source)
        ]
        assert offenders == [], "; ".join(offenders)

    def test_the_gate_holds_a_schedule_and_judges_one_deadline(self):
        source = self.SOURCES["scenarios/deadline.py"]
        # The fixed law is its schedule: no activity flag, no probe
        # stubs, no observe.
        assert class_members(source, "CyclingDeadlinePolicy") == {
            "__init__", "deadline_for", "schedule",
        }
        assert class_members(source, "DeadlineRoundPolicy") == {
            "__init__", "admit", "applies",
            "schedule", "over_selection", "min_uploads",
        }
        assert class_members(source, "DeadlineVerdict") == {
            "accepted", "dropped_ids", "close_time",
        }

    def test_the_lints_are_not_vacuous(self):
        # Each lint flags the pattern it replaced ...
        assert deleted_deadline_names(
            "from repro.scenarios.deadline import single_deadline_interval\n"
            "gate.admit(1, ups, timing, deadline_override=d)\n"
        ) == ["1: single_deadline_interval", "2: deadline_override"]
        assert deadline_policy_builders(
            "def build(config):\n"
            "    return FixedDeadlinePolicy(config.deadline)\n"
            "def other():\n"
            "    return 1\n"
        ) == ["build"]
        assert deadline_edge_assignments(
            "overrides['deadline_min'], overrides['deadline_max'] = lo, hi\n"
            "cfg.deadline_max = 3.0\n"
            "object.__setattr__(cfg, 'deadline_min', 1.0)\n"
            "kwargs = dict(deadline_min=1.0)\n"
        ) == ["1: deadline_min", "1: deadline_max", "2: deadline_max",
              "3: setattr"]
        # ... and the config is where the family lives.
        config = self.SOURCES["scenarios/config.py"]
        assert len(deadline_edge_assignments(config)) >= 2
        assert "_normalize_deadline_policy" in {
            node.name for node in ast.walk(ast.parse(config))
            if isinstance(node, ast.FunctionDef)
        }


# ----------------------------------------------------------------------
# ScenarioSampler
# ----------------------------------------------------------------------
class TestScenarioSampler:
    def test_full_participation_consumes_no_rng(self):
        av = AlwaysAvailable([3, 1, 2])
        sampler = ScenarioSampler(av, count=0, seed=0)
        state_before = sampler._rng.bit_generator.state
        assert sampler.sample() == [1, 2, 3]
        assert sampler._rng.bit_generator.state == state_before

    def test_over_selection_cohort_size(self):
        av = AlwaysAvailable(list(range(10)))
        sampler = ScenarioSampler(av, count=4, over_selection=0.5, seed=1)
        assert sampler.cohort_size == 6
        cohort = sampler.sample()
        assert len(cohort) == 6
        assert cohort == sorted(cohort)

    def test_empty_round_falls_back_to_population(self):
        av = MarkovAvailability([0, 1], p_drop=1.0, p_recover=1.0)
        sampler = ScenarioSampler(av, count=0, seed=0)
        assert sampler.sample() == [0, 1]  # round 1: everyone offline

    def test_rejects_oversized_count(self):
        with pytest.raises(ValueError, match="count"):
            ScenarioSampler(AlwaysAvailable([0, 1]), count=3)


# ----------------------------------------------------------------------
# End-to-end scenario runs
# ----------------------------------------------------------------------
def _federation(seed=5, num_writers=8):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=16,
                           num_classes=8, image_size=8, classes_per_writer=4,
                           seed=seed)
    return partition_by_writer(ds, seed=seed)


CHURN = ScenarioConfig(
    availability="markov",
    p_drop=0.2,
    p_recover=0.6,
    participants=5,
    over_selection=0.4,
    deadline=(2.5, 2.5, 9.0),
    slow_fraction=0.25,
    slow_factor=4.0,
    seed=5,
)


ADAPTIVE_CHURN = CHURN.with_overrides(deadline_policy="adaptive")

#: backend-equivalence matrix rows — deadline drops, and the
#: online-adapted deadline, must stay bit-identical.
SCENARIO_VARIANTS = {
    "churn": CHURN,
    "adaptive-deadline": ADAPTIVE_CHURN,
}


def _scenario_trainer(backend, scenario_config=CHURN, seed=5):
    fed = _federation(seed=seed)
    model = make_mlp(64, 8, hidden=(10,), seed=seed)
    ids = [c.client_id for c in fed.clients]
    profiles = scenario_config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = DeploymentScenario.build(scenario_config, ids, timing, profiles)
    trainer = FLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=3, seed=seed, backend=backend,
        scenario=scenario,
    )
    return trainer, scenario


class TestScenarioBackendEquivalence:
    """Acceptance (a): same seed => bit-identical histories across backends."""

    @pytest.mark.parametrize("backend_name", ["sharded"])
    @pytest.mark.parametrize("variant", sorted(SCENARIO_VARIANTS))
    def test_churn_histories_identical(self, variant, backend_name):
        backend = (
            ShardedBackend(jobs=2) if backend_name == "sharded"
            else backend_name
        )

        def build(backend_spec):
            return _scenario_trainer(
                backend_spec, scenario_config=SCENARIO_VARIANTS[variant]
            )

        serial, s_scn = build("serial")
        fast, f_scn = build(backend)
        hs = serial.run(9, k=12)
        hf = fast.run(9, k=12)
        assert history_rows(hs) == history_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)
        # The deadline gate fired identically too.
        assert [r.dropped_ids for r in s_scn.stats.rounds] == [
            r.dropped_ids for r in f_scn.stats.rounds
        ]
        assert s_scn.stats.total_dropped > 0  # the scenario actually bites
        if variant == "adaptive-deadline":
            # The adaptation state lives in the parent and walked the
            # same path on both backends — and it actually walked.
            trace_s = s_scn.hooks.policy.schedule.knob.history
            trace_f = f_scn.hooks.policy.schedule.knob.history
            assert trace_s == trace_f
            assert len(set(trace_s)) > 1
        fast.close()

    @pytest.mark.parametrize("scenario_config", [CHURN, ADAPTIVE_CHURN],
                             ids=["cycling", "adaptive-deadline"])
    def test_adaptive_trainer_composes_with_scenario(self, scenario_config):
        # With ADAPTIVE_CHURN this is the double-adaptive composition:
        # the trainer learns k while the scenario hook learns the
        # deadline, both through ChainedHooks, still bit-identical.
        def build(backend):
            fed = _federation()
            model = make_mlp(64, 8, hidden=(10,), seed=5)
            ids = [c.client_id for c in fed.clients]
            profiles = scenario_config.build_profiles(ids)
            timing = HeterogeneousTimingModel(
                model.dimension, comm_time=10.0, profiles=profiles
            )
            scenario = DeploymentScenario.build(
                scenario_config, ids, timing, profiles
            )
            policy = SignPolicy(
                SignOGD(SearchInterval(2.0, float(model.dimension)))
            )
            return AdaptiveKTrainer(
                model, fed, FABTopK(), policy, timing, learning_rate=0.05,
                batch_size=8, eval_every=2, seed=5, backend=backend,
                scenario=scenario,
            )

        fast = build(ShardedBackend(jobs=2))
        assert history_rows(build("serial").run(6)) == history_rows(
            fast.run(6)
        )
        fast.close()


class TestPopulationSampler:
    """The O(cohort) rejection sampler over a virtual population."""

    def _model(self, **overrides):
        from repro.simulation.population import PopulationModel

        kwargs = dict(
            population=500, availability="markov", p_drop=0.2,
            p_recover=0.6, seed=0,
        )
        kwargs.update(overrides)
        return PopulationModel(**kwargs)

    def test_rejects_degenerate_construction(self):
        from repro.scenarios import PopulationSampler

        model = self._model()
        with pytest.raises(ValueError, match="cohort size"):
            PopulationSampler(model, count=0)
        with pytest.raises(ValueError, match="over_selection"):
            PopulationSampler(model, count=4, over_selection=-0.1)

    def test_build_requires_an_explicit_cohort(self):
        # participants=0 means "all available" in the list-based path —
        # an O(population) round, exactly what the virtual path forbids.
        from repro.scenarios import build_population_scenario
        from repro.simulation.population import PopulationModel

        config = ScenarioConfig.default_churn().with_overrides(
            participants=0, seed=0
        )
        model = PopulationModel.from_scenario_config(config, 1000)
        timing = TimingModel(dimension=10, comm_time=10.0)
        with pytest.raises(ValueError, match="participants"):
            build_population_scenario(config, model, timing)

    def test_cohort_is_distinct_online_and_deterministic(self):
        from repro.scenarios import PopulationSampler

        a = PopulationSampler(self._model(), count=6, seed=3)
        b = PopulationSampler(self._model(), count=6, seed=3)
        for round_index in range(1, 5):
            cohort = a.sample()
            assert cohort == b.sample()  # pure in (seed, round)
            assert len(cohort) == 6
            assert len(set(cohort)) == 6
            assert all(
                self._model().is_online(cid, round_index) for cid in cohort
            )

    def test_deep_outage_falls_back_to_offline_candidates(
        self, monkeypatch
    ):
        # Nobody ever recovers: the round still runs, filled from the
        # offline candidates in draw order (the population analogue of
        # the list sampler's everyone-offline fallback).
        from repro.scenarios import PopulationSampler

        monkeypatch.setattr(PopulationSampler, "MAX_ATTEMPTS", 2)
        dark = self._model(p_drop=1.0, p_recover=0.0)
        sampler = PopulationSampler(dark, count=5, seed=1)
        sampler.sample()  # round 1: initial all-online state may linger
        cohort = sampler.sample()
        assert len(cohort) == 5
        assert len(set(cohort)) == 5
        assert not any(dark.is_online(cid, 2) for cid in cohort)


class TestVirtualScenarioEquivalence:
    """Scenario drops over a virtual federation equal its eager twin.

    Same churn + deadline + over-selection gate, same seeds — the only
    difference is the data/client layer (lazy regeneration, LRU
    releases).  Histories, weights, residuals and the per-round drop
    sets must all stay bit-identical to the run over
    ``materialize(federation)``.
    """

    #: sparsifier factory per row
    VARIANTS = {
        "churn": lambda: FABTopK(),
    }

    def _virtual(self, seed=7):
        from repro.data.virtual import VirtualFederation

        return VirtualFederation.build(
            8, samples_per_client=14, num_classes=8, image_size=8,
            classes_per_writer=4, test_samples=32, seed=seed,
        )

    def _trainer(self, fed, sparsifier, seed=7):
        model = make_mlp(64, 8, hidden=(10,), seed=seed)
        ids = list(range(8))
        profiles = CHURN.build_profiles(ids)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        scenario = DeploymentScenario.build(CHURN, ids, timing, profiles)
        trainer = FLTrainer(
            model, fed, sparsifier, timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=3, seed=seed, scenario=scenario,
        )
        return trainer, scenario

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_drops_identical_to_materialized_twin(self, name):
        factory = self.VARIANTS[name]
        virtual, v_scn = self._trainer(self._virtual(), factory())
        eager, e_scn = self._trainer(materialize(self._virtual()), factory())
        hv = virtual.run(9, k=12)
        he = eager.run(9, k=12)
        assert history_rows(hv) == history_rows(he)
        assert [r.dropped_ids for r in v_scn.stats.rounds] == [
            r.dropped_ids for r in e_scn.stats.rounds
        ]
        assert e_scn.stats.total_dropped > 0  # the gate actually bit
        np.testing.assert_array_equal(
            virtual.model.get_weights(), eager.model.get_weights()
        )
        # Virtual clients exist in first-participation order; compare
        # residuals by id against the eager population.
        eager_by_id = {c.client_id: c for c in eager.clients}
        assert virtual.clients  # cohorts were drawn
        for cv in virtual.clients:
            np.testing.assert_array_equal(
                cv.residual, eager_by_id[cv.client_id].residual
            )

    def test_population_scenario_backends_identical(self):
        # The full population-scale path (PopulationModel laws +
        # PopulationSampler cohorts + deadline gate) must stay
        # bit-identical between serial and sharded execution — the
        # CI smoke at N=1e5 runs this same check bigger.
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import (
            build_federation,
            build_model,
            build_scenario,
        )

        def build(backend):
            scenario_cfg = ScenarioConfig.default_churn().with_overrides(
                participants=6, over_selection=0.25, seed=0
            )
            config = ExperimentConfig(
                population=2000, samples_per_client=12, image_size=6,
                num_classes=8, classes_per_writer=4, hidden=(8,),
                learning_rate=0.05, batch_size=8, eval_every=2,
                scenario=scenario_cfg.to_dict(), seed=0,
            )
            federation = build_federation(config)
            model = build_model(config)
            timing, scenario = build_scenario(config, [], model.dimension)
            trainer = FLTrainer(
                model, federation, FABTopK(), timing=timing,
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
                eval_every=config.eval_every, seed=config.seed,
                backend=backend, scenario=scenario,
            )
            return trainer, scenario

        serial, s_scn = build("serial")
        fast, f_scn = build(ShardedBackend(jobs=2))
        hs = serial.run(3, k=20)
        hf = fast.run(3, k=20)
        assert history_rows(hs) == history_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        assert [r.dropped_ids for r in s_scn.stats.rounds] == [
            r.dropped_ids for r in f_scn.stats.rounds
        ]
        # Only cohort-touched clients ever came to exist, identically.
        ids_s = [c.client_id for c in serial.clients]
        ids_f = [c.client_id for c in fast.clients]
        assert ids_s == ids_f
        assert 0 < len(ids_s) < 100  # O(cohort), nowhere near N=2000
        fast.close()

    def test_population_smoke_at_1e5_serial_equals_sharded(self):
        # The same path at N = 10^5: (a) serial and sharded stay
        # bit-identical, (b) fewer than 100 clients are ever
        # constructed, and (c) peak RSS stays under 500 MB — building
        # 10^5 clients eagerly would take several GB.  The serial leg
        # runs in a spawned child so that ru_maxrss, a process-wide
        # peak, sees nothing this pytest process allocated before.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            serial = pool.apply_async(_population_smoke_run).get(timeout=300)
        sharded = _population_smoke_run(ShardedBackend(jobs=2))
        rows, weights, drops, touched, peak = serial
        assert rows == sharded[0], "population histories diverged"
        np.testing.assert_array_equal(weights, sharded[1])
        assert drops == sharded[2], "drop sets diverged"
        assert touched == sharded[3]
        assert touched < 100, f"{touched} clients: not O(cohort)"
        assert peak < 500 * 1024 * 1024, f"peak RSS {peak / 1e6:.0f} MB"

    @pytest.mark.parametrize("engine", ["serial", "async"])
    def test_population_rounds_keep_no_minibatch(self, engine, monkeypatch):
        # The memory bound of a population run, as structure: once a
        # round is over, nothing holds a minibatch it drew, and each
        # learned-k probe sample is a one-row array owning its data —
        # also while a straggler's upload is still in flight.
        from repro.data.partition import ClientDataset
        from repro.fl.async_engine import AsyncFLTrainer
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import (
            build_federation,
            build_model,
            build_scenario,
        )

        drawn = []
        minibatch = ClientDataset.minibatch

        def recording_minibatch(dataset, batch_size):
            x, y = minibatch(dataset, batch_size)
            drawn.extend((weakref.ref(x), weakref.ref(y)))
            return x, y

        monkeypatch.setattr(ClientDataset, "minibatch", recording_minibatch)
        scenario_cfg = ScenarioConfig.default_churn().with_overrides(
            participants=6, slow_fraction=0.5, seed=0
        )
        config = ExperimentConfig(
            population=10_000, samples_per_client=20, image_size=8,
            num_classes=10, classes_per_writer=4, hidden=(12,),
            learning_rate=0.05, batch_size=10, eval_every=1_000_000,
            scenario=scenario_cfg.to_dict(), seed=0,
        )
        model = build_model(config)
        timing, scenario = build_scenario(config, [], model.dimension)
        trainer_class, settings = FLTrainer, {"backend": engine}
        if engine == "async":
            trainer_class, settings = AsyncFLTrainer, {"commit_count": 3}
        trainer = trainer_class(
            model, build_federation(config), FABTopK(), timing=timing,
            learning_rate=config.learning_rate, batch_size=config.batch_size,
            seed=config.seed, scenario=scenario, **settings,
        )
        trainer.engine.use_k(SignPolicy(
            SignOGD(SearchInterval(2.0, float(model.dimension)))
        ))
        for _ in range(8):
            trainer.step()
            held = sum(ref() is not None for ref in drawn)
            assert drawn and held == 0, f"{held} batch arrays outlived a round"
            drawn.clear()
            samples = [c.probe_sample for c in trainer.clients
                       if c.probe_sample is not None]
            assert samples
            for array in (a for sample in samples for a in sample):
                assert array.base is None and array.shape[0] == 1
        trainer.close()


def _population_smoke_run(backend="serial"):
    """3 churn + deadline rounds over 10^5 virtual clients: (history
    rows, weights, drop sets, clients constructed, peak RSS bytes)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import (
        build_federation,
        build_model,
        build_scenario,
    )

    scenario_cfg = ScenarioConfig.default_churn().with_overrides(
        participants=8, over_selection=0.25, seed=0
    )
    config = ExperimentConfig(
        population=100_000, samples_per_client=20, image_size=8,
        num_classes=10, classes_per_writer=4, hidden=(12,),
        learning_rate=0.05, batch_size=10, eval_every=1_000_000,
        scenario=scenario_cfg.to_dict(), seed=0,
    )
    model = build_model(config)
    timing, scenario = build_scenario(config, [], model.dimension)
    trainer = FLTrainer(
        model, build_federation(config), FABTopK(), timing=timing,
        learning_rate=config.learning_rate, batch_size=config.batch_size,
        eval_every=config.eval_every, seed=config.seed, backend=backend,
        scenario=scenario,
    )
    try:
        history = trainer.run(3, k=40)
    finally:
        trainer.close()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (
        history_rows(history), model.get_weights(),
        [r.dropped_ids for r in scenario.stats.rounds],
        len(trainer.clients),
        peak if sys.platform == "darwin" else peak * 1024,
    )


class TestAdaptiveDeadlineIntegration:
    """The online-learned deadline, end to end through the engine."""

    def _run(self, scenario_config, rounds=10):
        trainer, scenario = _scenario_trainer(
            "serial", scenario_config=scenario_config
        )
        trainer.run(rounds, k=12)
        return trainer, scenario

    def test_deadline_moves_and_is_recorded(self):
        _, scenario = self._run(ADAPTIVE_CHURN)
        schedule = scenario.hooks.policy.schedule
        assert isinstance(schedule, AdaptiveDeadlinePolicy)
        history = schedule.knob.history
        # One decision per round plus the upcoming one.
        assert len(history) == len(scenario.stats.rounds) + 1
        assert len(set(history)) > 1  # it adapted
        interval = schedule.knob.walker.interval
        assert all(interval.contains(d) for d in history)
        # The per-round stats carry the deadline that was in force.
        assert [r.deadline for r in scenario.stats.rounds] == history[:-1]

    def test_probe_disabled_freezes_the_deadline(self):
        frozen_config = ADAPTIVE_CHURN.with_overrides(
            deadline=4.0, deadline_probe=False
        )
        _, scenario = self._run(frozen_config)
        schedule = scenario.hooks.policy.schedule
        assert schedule.knob.history == [4.0] * (
            len(scenario.stats.rounds) + 1
        )
        assert all(r.deadline == 4.0 for r in scenario.stats.rounds)

    def test_probe_charges_no_extra_time(self):
        # The deadline probe is a counterfactual replay of data the
        # server already has — unlike the k-probe there is no difference
        # downlink, so an adaptive round at deadline d charges exactly
        # what a fixed-d round charges.  Round 1 plays d1 = 4.0 in both
        # runs (the walk only moves from round 2 on); with the probe
        # disabled the whole history must match the fixed run.
        fixed_config = CHURN.with_overrides(
            deadline=4.0, deadline_policy="fixed"
        )
        fixed, _ = self._run(fixed_config, rounds=6)
        probing_config = ADAPTIVE_CHURN.with_overrides(deadline=4.0)
        probing, _ = self._run(probing_config, rounds=1)
        assert history_rows(probing.history) == history_rows(
            fixed.history
        )[:1]
        frozen_config = ADAPTIVE_CHURN.with_overrides(
            deadline=4.0, deadline_probe=False
        )
        frozen, _ = self._run(frozen_config, rounds=6)
        assert history_rows(frozen.history) == history_rows(fixed.history)

    def test_probe_sees_the_wire_the_server_aggregates(self):
        # The counterfactual d'-round must re-aggregate the uploads the
        # server actually aggregates.  With every client fast enough to
        # beat both d and d', the probe set equals the actual set, so
        # w'(m) == w(m) exactly and the sign estimate is 0 — the
        # deadline never moves.
        config = ScenarioConfig(
            availability="always", deadline_policy="adaptive",
            deadline_min=4.0, deadline_max=12.0,
            slow_fraction=0.0, seed=5,
        )
        trainer, scenario = _scenario_trainer(
            "serial", scenario_config=config
        )
        trainer.run(6, k=12)
        schedule = scenario.hooks.policy.schedule
        assert schedule.knob.history == [8.0] * 7

    def test_up_probe_fires_exactly_on_dropped_rounds(self):
        # The upward replay only carries information when the real
        # round closed early — on clean rounds d'' admits the same set
        # as d and the observation must not carry an up triple at all
        # (so no-drop rounds behave exactly as the one-sided policy).
        trainer, scenario = _scenario_trainer(
            "serial", scenario_config=ADAPTIVE_CHURN
        )
        schedule = scenario.hooks.policy.schedule
        seen = []
        original = schedule.observe

        def spy(*readings):
            seen.append(readings)
            original(*readings)

        schedule.observe = spy
        trainer.run(10, k=12)
        dropped = [bool(r.dropped_ids) for r in scenario.stats.rounds]
        assert any(dropped) and not all(dropped)  # both kinds occurred
        assert len(seen) == len(dropped)
        for was_dropped, readings in zip(dropped, seen):
            up = [r for r in readings if r.probe_value > r.value]
            if was_dropped:
                assert len(up) == 1 and readings[-1] is up[0]
                assert up[0].loss_probe is not None
                assert up[0].probe_round_time is not None
            else:
                assert up == []

    def test_up_probe_never_perturbs_a_usable_walk(self):
        # Primacy, end to end: whenever the d'-estimate is usable the
        # two-sided walk is *identical* to the one-sided walk — the
        # upward replay only substitutes on deadlock rounds (down
        # estimate unavailable), it never votes alongside.  A summed
        # combination fails exactly this trace (the up sign cancels
        # the down sign in the tight regime and pins the walk at the
        # interval floor).
        def trace(one_sided):
            trainer, scenario = _scenario_trainer(
                "serial", scenario_config=ADAPTIVE_CHURN
            )
            schedule = scenario.hooks.policy.schedule
            down_always_usable = True
            original = schedule.observe

            def spy(*readings):
                nonlocal down_always_usable
                down = [r for r in readings if r.probe_value < r.value]
                if scenario.stats.rounds[-1].dropped_ids and (
                    not down or estimate_sign(*down[0]) is None
                ):
                    down_always_usable = False
                original(*readings)

            schedule.observe = spy
            if one_sided:
                schedule.probe_deadline_up = lambda round_index: None
            trainer.run(10, k=12)
            return schedule.knob.history, down_always_usable

        one, usable = trace(one_sided=True)
        two, _ = trace(one_sided=False)
        assert usable  # the scenario exercises the primary path only
        assert two == one
        assert len(set(two)) > 1  # and the walk actually moved

    def test_adaptation_state_survives_probing_rounds(self):
        # Probing must not perturb the model: after any round the
        # weights equal w_prev - lr * downlink (the probe swap/restore
        # is exact, not approximately undone).
        trainer, _ = _scenario_trainer(
            "serial", scenario_config=ADAPTIVE_CHURN
        )
        w_prev = trainer.model.get_weights()

        class Recorder(RoundHooks):
            downlink = None

            def observe(self, ctx):
                Recorder.downlink = ctx.downlink.payload

        trainer.engine.run_round(12, hooks=Recorder())
        expected = w_prev.copy()
        expected[Recorder.downlink.indices] -= (
            trainer.learning_rate * Recorder.downlink.values
        )
        np.testing.assert_array_equal(
            trainer.model.get_weights(), expected
        )


class TestDroppedUploadRecovery:
    """Acceptance (b): a deadline-dropped gradient is recovered exactly."""

    def _build(self):
        fed = _federation(seed=11, num_writers=2)
        model = make_mlp(64, 8, hidden=(6,), seed=11)
        ids = [c.client_id for c in fed.clients]
        # Client ids[1] is a hard straggler; round 1's deadline drops it,
        # round 2 is an amnesty round that admits everyone.
        profiles = [
            ClientProfile(ids[0]),
            ClientProfile(ids[1], compute_factor=50.0, comm_factor=50.0),
        ]
        scenario_config = ScenarioConfig(
            availability="always", deadline=(3.0, 1000.0), seed=11,
        )
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        scenario = DeploymentScenario.build(scenario_config, ids, timing)
        trainer = FLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=1, seed=11, scenario=scenario,
        )
        return trainer, scenario

    def test_dropped_gradient_rides_the_residual_to_the_server(self):
        trainer, scenario = self._build()
        straggler = trainer.clients[1]
        dimension = trainer.model.dimension
        w0 = trainer.model.get_weights()

        # Independent replica of the straggler's data stream: gradients
        # g1 (at w0) and later g2 (at w1) computed outside the trainer.
        twin = _federation(seed=11, num_writers=2).clients[1]
        ref_model = make_mlp(64, 8, hidden=(6,), seed=11)

        class Recorder(RoundHooks):
            def __init__(self):
                self.uploads_by_round = {}

            def after_local_steps(self, ctx):
                self.uploads_by_round[ctx.round_index] = list(ctx.uploads)

        recorder = Recorder()
        # ---- round 1: tight deadline, straggler's upload dropped ----
        trainer.engine.run_round(dimension, hooks=recorder)
        assert scenario.stats.rounds[0].dropped_ids == (straggler.client_id,)
        assert [up.client_id for up in recorder.uploads_by_round[1]] == [
            trainer.clients[0].client_id
        ]
        x1, y1 = twin.minibatch(8)
        ref_model.set_weights(w0)
        g1 = ref_model.gradient(x1, y1)
        # Nothing was reset: the whole gradient is still in the residual.
        np.testing.assert_array_equal(straggler.residual, g1)

        # ---- round 2: amnesty deadline, the straggler makes it ----
        w1 = trainer.model.get_weights()
        trainer.engine.run_round(dimension, hooks=recorder)
        assert scenario.stats.rounds[1].dropped_ids == ()
        x2, y2 = twin.minibatch(8)
        ref_model.set_weights(w1)
        g2 = ref_model.gradient(x2, y2)
        upload = {
            up.client_id: up for up in recorder.uploads_by_round[2]
        }[straggler.client_id]
        # The upload carries round 1's dropped gradient plus round 2's —
        # exact recovery through residual accumulation, not approximate.
        np.testing.assert_array_equal(to_dense(upload.payload), g1 + g2)
        # k = D transmitted everything, so the residual is fully drained.
        np.testing.assert_array_equal(
            straggler.residual, np.zeros(dimension)
        )

    def test_discarding_sparsifier_still_discards_for_dropped_clients(self):
        fed = _federation(seed=11, num_writers=2)
        model = make_mlp(64, 8, hidden=(6,), seed=11)
        ids = [c.client_id for c in fed.clients]
        profiles = [
            ClientProfile(ids[0]),
            ClientProfile(ids[1], compute_factor=50.0),
        ]
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        scenario = DeploymentScenario.build(
            ScenarioConfig(availability="always", deadline=3.0, seed=11),
            ids, timing,
        )
        trainer = FLTrainer(
            model, fed, PeriodicK(model.dimension, seed=11),
            timing=timing,
            learning_rate=0.05, batch_size=8, eval_every=1, seed=11,
            scenario=scenario,
        )
        trainer.step(10)
        assert scenario.stats.rounds[0].dropped_ids == (ids[1],)
        # Non-accumulating scheme: the dropped client's residual is
        # discarded too (scheme semantics, not scenario semantics).
        np.testing.assert_array_equal(
            trainer.clients[1].residual, np.zeros(model.dimension)
        )


class TestDegenerateScenario:
    """Acceptance (c): no churn + no deadline == the plain trainer."""

    def test_reproduces_plain_trainer_exactly(self):
        fed = _federation()
        model = make_mlp(64, 8, hidden=(10,), seed=5)
        timing = TimingModel(model.dimension, comm_time=10.0)
        plain = FLTrainer(model, fed, FABTopK(), timing=timing,
                          learning_rate=0.05, batch_size=8, eval_every=3,
                          seed=5)
        idle = ScenarioConfig(
            availability="always", deadline=None, participants=0,
            slow_fraction=0.0, seed=5,
        )
        wrapped, scenario = _scenario_trainer("serial", scenario_config=idle)
        # The idle scenario run must not even perturb timing: rebuild it
        # on the same plain TimingModel the reference uses.
        assert isinstance(wrapped.timing, TimingModel)
        hp = plain.run(8, k=12)
        hw = wrapped.run(8, k=12)
        assert history_rows(hp) == history_rows(hw)
        np.testing.assert_array_equal(
            plain.model.get_weights(), wrapped.model.get_weights()
        )
        for cp, cw in zip(plain.clients, wrapped.clients):
            np.testing.assert_array_equal(cp.residual, cw.residual)
        assert scenario.stats.total_dropped == 0

    def test_pure_over_selection_still_trims_the_cohort(self):
        # No deadline at all, but m·(1+ε) over-selection must still
        # aggregate only the first m finishers — the gate cannot hinge
        # on a deadline being configured.
        config = ScenarioConfig(
            availability="always", deadline=None, participants=3,
            over_selection=0.5, seed=5,
        )
        trainer, scenario = _scenario_trainer("serial",
                                              scenario_config=config)
        trainer.run(3, k=12)
        for r in scenario.stats.rounds:
            assert r.cohort == 5      # ceil(3 * 1.5)
            assert r.arrived == 3
            assert len(r.dropped_ids) == 2


# ----------------------------------------------------------------------
# Golden scenario history
# ----------------------------------------------------------------------
def _golden_scenario_trainer():
    """The pinned scenario run: Markov churn + cycling deadline +
    over-selection at tiny scale.  This construction must not change,
    or the golden loses its meaning."""
    config = ScenarioConfig(
        availability="markov",
        p_drop=0.2,
        p_recover=0.6,
        participants=4,
        over_selection=0.5,
        deadline=(2.5, 2.5, 9.0),
        deadline_policy="cycling",
        slow_fraction=0.25,
        slow_factor=4.0,
        seed=3,
    )
    fed = _federation(seed=3, num_writers=6)
    model = make_mlp(64, 8, hidden=(6,), seed=3)
    ids = [c.client_id for c in fed.clients]
    profiles = config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = DeploymentScenario.build(config, ids, timing, profiles)
    trainer = FLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=2, seed=3, scenario=scenario,
    )
    return trainer, scenario


def _golden_adaptive_deadline_trainer():
    """The pinned *learned-deadline* run (added before the knob
    refactor: the golden above is ``cycling``, so nothing pinned a
    deadline walk).  Tight regime: d₁ = 2 over [1.5, 9] with a 4×
    straggling quarter, so nearly every round drops uploads and the
    d'' replay runs; at lr = 0.5 two of the d'-estimates come out
    unusable and the d'' fallback steps the walk instead.  Run it for
    12 rounds at k = 10.  This construction must not change."""
    config = ScenarioConfig(
        availability="markov",
        p_drop=0.2,
        p_recover=0.6,
        participants=4,
        over_selection=0.5,
        deadline=2.0,
        deadline_policy="adaptive",
        deadline_min=1.5,
        deadline_max=9.0,
        slow_fraction=0.25,
        slow_factor=4.0,
        seed=9,
    )
    fed = _federation(seed=9, num_writers=6)
    model = make_mlp(64, 8, hidden=(6,), seed=9)
    ids = [c.client_id for c in fed.clients]
    profiles = config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = DeploymentScenario.build(config, ids, timing, profiles)
    trainer = FLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.5,
        batch_size=8, eval_every=2, seed=9, scenario=scenario,
    )
    return trainer, scenario


def _golden_rows(name):
    return [
        (row["round_index"], row["k"], row["round_time"],
         row["cumulative_time"], row["loss"], row["accuracy"],
         row["uplink_elements"], row["downlink_elements"],
         tuple(
             (int(cid), n) for cid, n in sorted(
                 row["contributions"].items(), key=lambda kv: int(kv[0])
             )
         ))
        for row in json.loads(GOLDEN_PATH.read_text())[name]
    ]


class TestGoldenScenarioHistory:
    """Acceptance (d): scenario semantics are pinned absolutely.

    Cross-backend equality cannot catch a change that moves every
    backend together (a re-ordered gate, a different close-time charge);
    this golden does.
    """

    def test_history_matches_golden(self):
        trainer, _ = _golden_scenario_trainer()
        trainer.run(6, k=10)
        expected = _golden_rows("scenario_fl_trainer")
        assert history_rows(trainer.history) == expected

    def test_learned_deadline_run_matches_golden(self):
        # History rows AND the learned walk, with the d'' fallback
        # provably on the pinned path.
        trainer, scenario = _golden_adaptive_deadline_trainer()
        schedule = scenario.hooks.policy.schedule
        fallback_rounds = []
        original = schedule.observe

        def spy(*readings):
            signs = [estimate_sign(*r) for r in readings]
            if len(signs) == 2 and signs[0] is None and signs[1]:
                fallback_rounds.append(trainer.round_index)
            original(*readings)

        schedule.observe = spy
        trainer.run(12, k=10)
        assert history_rows(trainer.history) == _golden_rows(
            "adaptive_deadline_fl_trainer"
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert schedule.knob.history == golden[
            "adaptive_deadline_fl_trainer_deadlines"
        ]
        # d' unusable, d'' stepped the walk instead — at least once.
        assert fallback_rounds == [5, 8]
        for m in fallback_rounds:
            assert (schedule.knob.history[m]
                    != schedule.knob.history[m - 1])

    def test_deadline_drops_match_golden(self):
        trainer, scenario = _golden_scenario_trainer()
        trainer.run(6, k=10)
        golden = json.loads(GOLDEN_PATH.read_text())
        expected = golden["scenario_fl_trainer_drops"]
        assert [
            list(r.dropped_ids) for r in scenario.stats.rounds
        ] == expected
        assert sum(len(d) for d in expected) > 0  # the gate really fired


# ----------------------------------------------------------------------
# Partial-aggregation reweighting
# ----------------------------------------------------------------------
class TestReweighting:
    def test_cohort_mode_scales_the_update_down(self):
        def run(reweight):
            config = ScenarioConfig(
                availability="always", deadline=3.0, reweight=reweight,
                seed=11,
            )
            fed = _federation(seed=11, num_writers=2)
            model = make_mlp(64, 8, hidden=(6,), seed=11)
            ids = [c.client_id for c in fed.clients]
            profiles = [
                ClientProfile(ids[0]),
                ClientProfile(ids[1], compute_factor=50.0),
            ]
            timing = HeterogeneousTimingModel(
                model.dimension, comm_time=10.0, profiles=profiles
            )
            scenario = DeploymentScenario.build(config, ids, timing)
            trainer = FLTrainer(
                model, fed, FABTopK(), timing=timing, learning_rate=1.0,
                batch_size=8, eval_every=1, seed=11, scenario=scenario,
            )
            w0 = trainer.model.get_weights()
            trainer.step(12)
            counts = [c.sample_count for c in trainer.clients]
            return trainer.model.get_weights() - w0, counts

        arrived_update, counts = run("arrived")
        cohort_update, _ = run("cohort")
        factor = counts[0] / sum(counts)  # only client 0 arrived
        assert factor < 1.0
        np.testing.assert_allclose(
            cohort_update, arrived_update * factor, rtol=1e-12, atol=1e-15
        )

    def test_server_rejects_nonpositive_total_weight(self):
        from repro.fl.server import Server
        from repro.sparsify.base import SelectionResult

        uploads = _uploads({0: 3})
        selection = SelectionResult(np.arange(3), uploads, 100)
        with pytest.raises(ValueError, match="total_weight"):
            Server(100).aggregate(uploads, selection, total_weight=0.0)


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_chained_hooks_order_and_extra_time(self):
        calls = []

        class Named(RoundHooks):
            def __init__(self, name):
                self.name = name

            def after_local_steps(self, ctx):
                calls.append(self.name)

            def extra_round_time(self, ctx):
                return 1.5

        chain = ChainedHooks(Named("outer"), None, Named("inner"))
        chain.after_local_steps(None)
        assert calls == ["outer", "inner"]
        assert chain.extra_round_time(None) == 3.0
        assert not chain.wants_probes

    def test_scenario_and_sampler_are_mutually_exclusive(self):
        fed = _federation()
        model = make_mlp(64, 8, hidden=(10,), seed=5)
        scenario = DeploymentScenario.build(
            ScenarioConfig(availability="always"),
            [c.client_id for c in fed.clients],
            TimingModel(model.dimension, comm_time=10.0),
        )
        with pytest.raises(ValueError, match="not both"):
            FLTrainer(model, fed, FABTopK(), sampler=object(),
                      scenario=scenario)

    def test_drop_upload_forgets_the_round(self):
        from repro.fl.client import Client
        from repro.sparsify.base import SelectionResult

        fed = _federation(seed=11, num_writers=2)
        model = make_mlp(64, 8, hidden=(1,), seed=0)
        client = Client(fed.clients[0], model.dimension, batch_size=8)
        client.accumulate_gradient(
            model.gradient(*client.draw_minibatch())
        )
        upload = client.select_upload(5, FABTopK())
        residual = client.residual.copy()
        client.drop_upload()
        np.testing.assert_array_equal(client.residual, residual)
        with pytest.raises(RuntimeError, match="select_upload"):
            client.reset_transmitted(
                SelectionResult(np.array([0, 1]), [upload], model.dimension)
            )


# ----------------------------------------------------------------------
# Driver + CLI
# ----------------------------------------------------------------------
class TestScenarioDriverAndCLI:
    def test_run_scenario_smoke(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import run_scenario

        config = ExperimentConfig.smoke().with_overrides(num_rounds=6)
        result = run_scenario(config)
        assert set(result.histories) == {"fixed-k", "adaptive-k"}
        assert result.scenario["availability"] == "markov"
        assert set(result.stats) == {"fixed-k", "adaptive-k"}
        for method in result.histories:
            assert len(result.histories[method]) >= 1
            assert 0.0 <= result.drop_rate(method) <= 1.0
        labels = result.delivery.labels()
        assert "fixed-k arrived" in labels
        assert "adaptive-k dropped (cumulative)" in labels

    def test_cli_scenario_writes_artifacts(self, tmp_path):
        from repro import cli

        code = cli.main([
            "scenario", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "5", "--deadline", "2.5", "9",
            "--over-selection", "0.2", "--participants", "4",
        ])
        assert code == 0
        payload = json.loads(
            (tmp_path / "scenario_loss_vs_time.json").read_text()
        )
        assert {s["label"] for s in payload["series"]} == {
            "fixed-k", "adaptive-k"
        }
        assert (tmp_path / "scenario_delivery.json").exists()
        assert (tmp_path / "scenario_history_fixed-k.json").exists()
        # The deadline-policy comparison panel rides along.
        panel = json.loads(
            (tmp_path / "scenario_deadline_policies.json").read_text()
        )
        labels = {s["label"] for s in panel["series"]}
        assert {"cycling", "adaptive"} <= labels
        assert any(label.startswith("fixed-") for label in labels)
        assert (tmp_path / "scenario_deadline_traces.json").exists()

    def test_cli_scenario_flags_reach_the_config(self):
        from repro import cli

        args = cli.build_parser().parse_args([
            "scenario", "--availability", "diurnal", "--period", "8",
            "--duty", "0.25", "--deadline", "2.0", "2.0", "9.0",
            "--reweight", "cohort", "--seed", "3",
        ])
        scenario = cli._scenario_overrides(args, seed=3)
        assert scenario["availability"] == "diurnal"
        assert scenario["period"] == 8
        assert scenario["deadline"] == [2.0, 2.0, 9.0]
        assert scenario["reweight"] == "cohort"
        assert scenario["seed"] == 3

    def test_cli_deadline_policy_flags(self):
        from repro import cli

        args = cli.build_parser().parse_args([
            "scenario", "--deadline-policy", "adaptive",
            "--deadline-min", "2.0", "--deadline-max", "8.0",
            "--no-deadline-probe",
        ])
        scenario = cli._scenario_overrides(args, seed=0)
        assert scenario["deadline_policy"] == "adaptive"
        assert scenario["deadline_min"] == 2.0
        assert scenario["deadline_max"] == 8.0
        assert scenario["deadline_probe"] is False
        # Without an explicit interval the churn preset's schedule
        # (2.5, 2.5, 2.5, 9.0) seeds it.
        args = cli.build_parser().parse_args([
            "scenario", "--deadline-policy", "adaptive",
        ])
        scenario = ScenarioConfig.from_dict(
            cli._scenario_overrides(args, seed=0)
        )
        assert scenario.deadline_policy == "adaptive"
        assert scenario.deadline_min == 2.5
        assert scenario.deadline_max == 9.0
        # A single --deadline d seeds the interval [d/2, 2d] around it.
        args = cli.build_parser().parse_args([
            "scenario", "--deadline-policy", "adaptive",
            "--deadline", "5",
        ])
        scenario = ScenarioConfig.from_dict(
            cli._scenario_overrides(args, seed=0)
        )
        assert scenario.deadline == 5.0
        assert scenario.deadline_min == 2.5
        assert scenario.deadline_max == 10.0

    def test_cli_fixed_policy_collapses_schedule_preset(self):
        from repro import cli

        args = cli.build_parser().parse_args([
            "scenario", "--deadline-policy", "fixed",
        ])
        scenario = cli._scenario_overrides(args, seed=0)
        assert scenario["deadline_policy"] == "fixed"
        assert scenario["deadline"] == pytest.approx(
            (2.5 + 2.5 + 2.5 + 9.0) / 4.0
        )
        # cycling + a single value wraps it into a 1-entry schedule.
        args = cli.build_parser().parse_args([
            "scenario", "--deadline-policy", "cycling", "--deadline", "4",
        ])
        scenario = cli._scenario_overrides(args, seed=0)
        assert scenario["deadline_policy"] == "cycling"
        assert scenario["deadline"] == [4.0]

    def test_sweep_includes_scenario(self):
        from repro.cli import FIGURES
        from repro.parallel.sweep import SWEEP_FIGURES

        assert "scenario" in SWEEP_FIGURES
        assert SWEEP_FIGURES == FIGURES


# ----------------------------------------------------------------------
# Deadline-policy comparison panel (fixed vs cycling vs adaptive)
# ----------------------------------------------------------------------
class TestDeadlineAdaptationPanel:
    def test_deadline_variants_share_the_regime(self):
        from repro.experiments.scenario import deadline_variants

        variants = deadline_variants(ScenarioConfig.default_churn())
        assert set(variants) == {
            "fixed-2.5", "fixed-9", "cycling", "adaptive"
        }
        assert variants["fixed-2.5"].deadline == 2.5
        assert variants["fixed-9"].deadline == 9.0
        assert variants["cycling"].deadline == (2.5, 2.5, 2.5, 9.0)
        adaptive = variants["adaptive"]
        assert adaptive.deadline_policy == "adaptive"
        assert adaptive.deadline_min == 2.5
        assert adaptive.deadline_max == 9.0
        # Availability / stragglers / seed are shared across variants.
        for variant in variants.values():
            assert variant.availability == "markov"
            assert variant.slow_fraction == 0.25
            assert variant.seed == ScenarioConfig.default_churn().seed

    def test_deadline_variants_around_a_fixed_deadline(self):
        from repro.experiments.scenario import deadline_variants

        variants = deadline_variants(
            ScenarioConfig(deadline=4.0, deadline_policy="fixed")
        )
        assert variants["fixed-2"].deadline == 2.0
        assert variants["fixed-8"].deadline == 8.0
        assert variants["adaptive"].deadline_min == 2.0
        with pytest.raises(ValueError, match="needs a scenario"):
            deadline_variants(ScenarioConfig(deadline=None))

    def test_supports_deadline_comparison(self):
        from repro.experiments.scenario import supports_deadline_comparison

        assert supports_deadline_comparison(ScenarioConfig.default_churn())
        assert supports_deadline_comparison(ScenarioConfig(deadline=4.0))
        assert supports_deadline_comparison(ScenarioConfig(
            deadline_policy="adaptive", deadline_min=2.0, deadline_max=9.0,
        ))
        # Availability-only and degenerate all-equal schedules: no
        # interval to compare over.
        assert not supports_deadline_comparison(
            ScenarioConfig(deadline=None)
        )
        assert not supports_deadline_comparison(
            ScenarioConfig(deadline=(3.0, 3.0), deadline_policy="cycling")
        )

    def test_availability_only_scenario_skips_the_panel(self):
        # Regression guard: a deadline-less scenario's sweep/CLI unit
        # must still produce its primary artifacts — the comparison
        # panel is skipped, not failed.
        from repro.experiments.config import ExperimentConfig
        from repro.parallel.sweep import collect_artifacts

        scenario = ScenarioConfig(
            availability="markov", p_drop=0.2, p_recover=0.6,
            deadline=None, seed=0,
        )
        config = ExperimentConfig.smoke().with_overrides(
            num_rounds=3, scenario=scenario.to_dict()
        )
        artifacts = collect_artifacts("scenario", config)
        assert "scenario_loss_vs_time" in artifacts
        assert "scenario_deadline_policies" not in artifacts
        assert "scenario_deadline_traces" not in artifacts

    def test_run_deadline_adaptation_smoke(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import run_deadline_adaptation

        config = ExperimentConfig.smoke().with_overrides(num_rounds=6)
        result = run_deadline_adaptation(config)
        assert set(result.histories) == {
            "fixed-2.5", "fixed-9", "cycling", "adaptive"
        }
        assert result.loss_vs_time.labels() == list(result.histories)
        assert result.deadline_traces.labels() == list(result.histories)
        # Every policy's trace holds the deadline in force per round.
        fixed = result.deadline_traces.get("fixed-9")
        assert set(fixed.y) == {9.0}
        adaptive_trace = result.deadline_traces.get("adaptive")
        assert all(2.5 <= d <= 9.0 for d in adaptive_trace.y)
        for label in result.histories:
            assert result.stats[label]["rounds"] == len(
                result.deadline_traces.get(label).y
            )
        assert any(
            note.startswith("time to shared target loss")
            for note in result.loss_vs_time.notes
        )

    def test_adaptive_reaches_target_no_slower_than_best_fixed(self):
        # The acceptance regime: heterogeneous profiles where *neither*
        # fixed endpoint is good — the tight endpoint sits below the
        # fast clients' finish time (min_uploads rescues single-upload
        # rounds that plateau on disjoint writer classes), the loose
        # endpoint waits the 4x straggler tail — so a learned deadline,
        # oscillating into its own amnesty cycle, beats both.
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import run_deadline_adaptation

        scenario = ScenarioConfig(
            availability="always",
            deadline_policy="adaptive",
            deadline_min=1.0, deadline_max=12.0,
            slow_fraction=0.25, slow_factor=4.0,
            seed=1,
        )
        config = ExperimentConfig.smoke().with_overrides(
            num_clients=8, samples_per_client=16, num_classes=12,
            classes_per_writer=2, learning_rate=0.1, num_rounds=80,
            eval_every=1, seed=1, scenario=scenario.to_dict(),
        )
        result = run_deadline_adaptation(config)
        finals = result.final_losses()
        fixed_labels = [
            label for label in finals if label.startswith("fixed-")
        ]
        assert len(fixed_labels) == 2
        # The shared target: a loss level every policy's budget reached.
        target = max(finals.values())
        times = result.time_to_loss(target)
        assert times["adaptive"] < float("inf")
        assert times["adaptive"] <= min(
            times[label] for label in fixed_labels
        )
        # And adaptive's *final* loss beats both fixed endpoints
        # outright — the stronger form of the same claim.
        assert finals["adaptive"] < min(
            finals[label] for label in fixed_labels
        )
        # It earned that by actually moving the deadline.
        adaptive_trace = result.deadline_traces.get("adaptive").y
        assert len(set(adaptive_trace)) > 1
