"""Integration tests for the per-figure experiment drivers (smoke scale).

These validate that each driver runs end-to-end, produces the right
figure structure, and — where cheap enough — that the paper's qualitative
claims hold at smoke scale.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig4 import METHODS, run_fig4
from repro.experiments.fig5 import make_policy, run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_cross_application, run_fig7, run_fig8
from repro.experiments.runner import (
    ExperimentRun,
    FigureData,
    Series,
    build_federation,
    build_model,
    build_search_interval,
    build_timing,
    contribution_cdf,
    text_table,
)
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.trainer import FLTrainer
from repro.sparsify.fab_topk import FABTopK


@pytest.fixture(scope="module")
def smoke():
    return ExperimentConfig.smoke()


class TestConfig:
    def test_presets_valid(self):
        for preset in (ExperimentConfig.smoke, ExperimentConfig.default,
                       ExperimentConfig.paper_scale, ExperimentConfig.cifar_default):
            cfg = preset()
            assert cfg.num_rounds >= 1

    def test_with_overrides(self, smoke):
        cfg = smoke.with_overrides(comm_time=50.0)
        assert cfg.comm_time == 50.0
        assert smoke.comm_time != 50.0 or smoke.comm_time == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="imagenet")
        with pytest.raises(ValueError):
            ExperimentConfig(num_rounds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kmin_fraction=0.0)


class TestRunnerHelpers:
    def test_build_federation_femnist(self, smoke):
        fed = build_federation(smoke)
        assert fed.num_clients == smoke.num_clients

    def test_build_federation_cifar(self):
        cfg = ExperimentConfig.cifar_default().with_overrides(
            num_clients=10, samples_per_client=10
        )
        fed = build_federation(cfg)
        assert fed.num_clients == 10
        for c in fed.clients:
            assert np.unique(c.y).size == 1

    def test_build_model_dimension(self, smoke):
        model = build_model(smoke)
        expected_in = smoke.image_size**2
        assert model.dimension == (
            expected_in * 8 + 8 + 8 * smoke.num_classes + smoke.num_classes
        )

    def test_build_timing_override(self, smoke):
        tm = build_timing(smoke, dimension=100, comm_time=42.0)
        assert tm.comm_time == 42.0

    def test_search_interval_follows_paper(self, smoke):
        interval = build_search_interval(smoke, dimension=10_000)
        assert interval.kmin == pytest.approx(0.002 * 10_000)
        assert interval.kmax == 10_000

    def test_series_y_at(self):
        s = Series("a", [1.0, 2.0, 3.0], [10.0, 5.0, 2.0])
        assert s.y_at(0.5) == 10.0
        assert s.y_at(2.5) == 5.0
        assert s.y_at(99.0) == 2.0

    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series("a", [1.0], [1.0, 2.0])

    def test_figure_data_csv(self):
        fig = FigureData("t")
        fig.add("a", [1, 2], [3, 4])
        csv_text = fig.to_csv()
        assert "series,x,y" in csv_text
        assert "a,1,3" in csv_text

    def test_figure_get_missing(self):
        with pytest.raises(KeyError):
            FigureData("t").get("nope")

    def test_text_table(self):
        out = text_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert "333" in lines[3]

    def test_contribution_cdf(self):
        values, cdf = contribution_cdf({0: 5, 1: 3, 2: 8})
        np.testing.assert_array_equal(values, [3, 5, 8])
        np.testing.assert_allclose(cdf, [1 / 3, 2 / 3, 1.0])
        with pytest.raises(ValueError):
            contribution_cdf({})


class TestFig1:
    def test_runs_and_validates_assumption(self, smoke):
        result = run_fig1(
            smoke, pre_ks=[200, 50], k_common=50, post_rounds=15,
        )
        assert len(result.figure.series) == 2
        # Assumption 1: post-switch trajectories should stay close
        # relative to the loss scale.
        scale = max(max(s.y) for s in result.figure.series)
        assert result.max_deviation() < 0.5 * scale

    def test_pre_rounds_recorded(self, smoke):
        result = run_fig1(smoke, pre_ks=[200], k_common=50, post_rounds=5)
        assert list(result.pre_rounds) == [200]
        assert result.pre_rounds[200] >= 1

    def test_default_pre_ks_cover_range(self, smoke):
        result = run_fig1(smoke, post_rounds=3)
        assert len(result.figure.series) >= 3


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = ExperimentConfig.smoke().with_overrides(num_rounds=40)
        return run_fig4(cfg, k=20)

    def test_all_methods_present(self, result):
        assert set(result.histories) == set(METHODS)
        assert set(result.loss_vs_time.labels()) == set(METHODS)

    def test_all_methods_respect_budget_roughly(self, result):
        times = {m: h.total_time for m, h in result.histories.items()}
        budget = max(times.values())
        for m, t in times.items():
            assert t <= budget * 1.6

    def test_losses_decrease(self, result):
        for method, history in result.histories.items():
            losses = [r.loss for r in history if r.loss == r.loss]
            assert losses[-1] < losses[0], method

    def test_fab_fairness_floor_beats_fub(self, result):
        assert result.min_client_contribution("fab-top-k") >= (
            result.min_client_contribution("fub-top-k")
        )

    def test_cdf_panel_has_topk_methods(self, result):
        assert "fab-top-k" in result.contribution_cdf.labels()
        assert "fub-top-k" in result.contribution_cdf.labels()

    def test_ranking_api(self, result):
        t = result.histories["fab-top-k"].total_time / 2
        ranking = result.ranking_at_time(t)
        assert len(ranking) == len(METHODS)


class TestFig5:
    def test_runs_all_policies(self):
        cfg = ExperimentConfig.smoke().with_overrides(num_rounds=20)
        result = run_fig5(cfg)
        assert set(result.histories) == {
            "proposed", "value-based", "exp3", "continuous-bandit"
        }
        for s in result.k_traces.series:
            assert len(s.y) == 20

    def test_k_stability_computed(self):
        cfg = ExperimentConfig.smoke().with_overrides(num_rounds=20)
        result = run_fig5(cfg, policies=("proposed", "exp3"))
        stability = result.k_stability()
        assert set(stability) == {"proposed", "exp3"}

    def test_make_policy_unknown(self, smoke):
        with pytest.raises(ValueError):
            make_policy("nope", smoke, 100)


class TestFig6:
    def test_runs_both_algorithms(self):
        cfg = ExperimentConfig.smoke().with_overrides(num_rounds=25)
        result = run_fig6(cfg, comm_time=100.0)
        assert set(result.histories) == {"algorithm2", "algorithm3"}
        fluct = result.k_fluctuation()
        assert set(fluct) == {"algorithm2", "algorithm3"}


class TestFig7And8:
    def test_cross_application_structure(self):
        cfg = ExperimentConfig.smoke().with_overrides(num_rounds=15)
        result = run_cross_application(
            cfg, comm_times=(1.0, 50.0), learn_rounds=15,
        )
        assert set(result.sequences) == {1.0, 50.0}
        assert len(result.final_loss) == 4
        assert result.k_traces is not None
        # API sanity.
        result.mean_k(1.0)
        result.spread_at(50.0)
        assert result.matched_sequence_rank(1.0) in (0, 1)

    def test_fig7_requires_femnist(self):
        with pytest.raises(ValueError):
            run_fig7(ExperimentConfig.cifar_default())

    def test_fig8_requires_cifar(self):
        with pytest.raises(ValueError):
            run_fig8(ExperimentConfig.smoke())

    def test_fig8_smoke(self):
        cfg = ExperimentConfig.cifar_default().with_overrides(
            num_clients=10, samples_per_client=10, hidden=(8,),
            num_rounds=10, image_size=8,
        )
        result = run_fig8(cfg, comm_times=(1.0, 50.0), learn_rounds=10)
        assert set(result.sequences) == {1.0, 50.0}


# ----------------------------------------------------------------------
# The one harness every driver loop runs through
# ----------------------------------------------------------------------
class TestExperimentRun:
    def test_fresh_hands_out_fresh_parts_and_the_common_kwargs(self, smoke):
        with ExperimentRun(smoke, "fig-test") as run:
            model, federation, common = run.fresh("a")
            model_b, federation_b, common_b = run.fresh(
                "b", comm_time=3.0, eval_every=1
            )
        assert model is not model_b and federation is not federation_b
        assert common["backend"] is common_b["backend"] is run.backend
        assert common["timing"].comm_time == smoke.comm_time
        assert common_b["timing"].comm_time == 3.0
        assert common["eval_every"] == smoke.eval_every
        assert common_b["eval_every"] == 1
        assert common["telemetry"] is None  # untraced: trainers get None
        # No scenario on the config: the key is absent, so trainers that
        # take none (FedAvg, always-send-all) accept the kwargs as-is.
        assert "scenario" not in common
        assert set(common) == {
            "timing", "learning_rate", "batch_size", "eval_every",
            "eval_max_samples", "backend", "telemetry", "seed",
        }

    def test_fresh_builds_the_variant_configs_scenario(self, smoke):
        from repro.experiments.scenario import resolve_scenario_config

        variant = resolve_scenario_config(smoke)
        with ExperimentRun(smoke, "fig-test") as run:
            _, _, first = run.fresh("a", variant)
            _, _, second = run.fresh("b", variant)
        # Scenarios hold per-run state: one per trainer, never shared.
        assert first["scenario"] is not second["scenario"]

    def test_exit_closes_the_backend_and_annotates_the_trace(
        self, smoke, tmp_path
    ):
        import json

        path = tmp_path / "trace.jsonl"
        config = smoke.with_overrides(telemetry=str(path), backend="sharded",
                                      jobs=2)
        with ExperimentRun(config, "fig-test") as run:
            model, federation, common = run.fresh("only")
            trainer = FLTrainer(model, federation, FABTopK(), **common)
            trainer.run(2, k=10)
        assert run.telemetry.sink._file.closed
        with pytest.raises(RuntimeError, match="used after close"):
            trainer.step(10)
        rounds = [
            event for event in map(json.loads, path.read_text().splitlines())
            if event["type"] == "round"
        ]
        assert len(rounds) == 2
        assert all(
            (e["figure"], e["method"]) == ("fig-test", "only") for e in rounds
        )


class TestRunForTime:
    def _trainer(self, smoke):
        model = build_model(smoke)
        return FLTrainer(
            model, build_federation(smoke), FABTopK(),
            timing=build_timing(smoke, model.dimension),
            learning_rate=smoke.learning_rate, batch_size=smoke.batch_size,
        )

    def test_stops_at_the_budget(self, smoke):
        trainer = self._trainer(smoke)
        history = trainer.run_for_time(100.0, 10)
        assert history is trainer.history
        assert trainer.clock >= 100.0
        assert history.records[-2].cumulative_time < 100.0

    def test_max_rounds_bounds_the_run(self, smoke):
        trainer = self._trainer(smoke)
        trainer.run_for_time(1e9, 10, max_rounds=3)
        assert len(trainer.history) == 3

    def test_a_listed_k_holds_its_last_value(self, smoke):
        trainer = self._trainer(smoke)
        trainer.run_for_time(1e9, [30, 20, 10], max_rounds=5)
        assert trainer.history.ks() == [30, 20, 10, 10, 10]

    def test_step_style_trainers_inherit_it(self, smoke):
        from repro.fl.fedavg import AlwaysSendAllTrainer

        with ExperimentRun(smoke, "fig-test") as run:
            model, federation, common = run.fresh("dense")
            trainer = AlwaysSendAllTrainer(model, federation, **common)
            trainer.run_for_time(1e9, max_rounds=2)
        assert len(trainer.history) == 2


class TestCurveAccessors:
    def _history(self):
        nan = float("nan")
        history = TrainingHistory()
        for i, (loss, accuracy) in enumerate(
            [(nan, None), (2.0, 0.5), (nan, None), (1.0, None)], start=1
        ):
            history.append(RoundRecord(
                round_index=i, k=float(10 * i), round_time=1.0,
                cumulative_time=float(i), loss=loss, accuracy=accuracy,
            ))
        return history

    def test_curves_skip_unevaluated_rounds(self):
        history = self._history()
        assert [r.round_index for r in history.evaluated()] == [2, 4]
        assert history.loss_curve() == ([2.0, 4.0], [2.0, 1.0])
        assert history.accuracy_curve() == ([2.0], [0.5])
        assert history.last_evaluated_loss == 1.0
        with pytest.raises(ValueError):
            TrainingHistory().last_evaluated_loss

    def test_figure_helpers(self):
        fig = FigureData(title="t")
        fig.add_k_trace("trace", self._history())
        fig.add("flat", [0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0])
        assert fig.get("trace").x == [1.0, 2.0, 3.0, 4.0]
        assert fig.get("trace").y == [10.0, 20.0, 30.0, 40.0]
        assert fig.y_at(2.5) == {"trace": 20.0, "flat": 5.0}
        assert fig.second_half_std() == {"trace": 5.0, "flat": 0.0}


# ----------------------------------------------------------------------
# Tooling: keep the scaffolding in one place
# ----------------------------------------------------------------------
EXPERIMENTS = (
    pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    / "experiments"
)


def _scaffolding_copies(tree):
    """What ExperimentRun, the trainers' ``run_for_time`` and
    TrainingHistory's curve accessors replaced, found in one module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in ("build_backend", "build_telemetry"):
                found.append((node.lineno, f"{name}(...)"))
            elif name == "close" and ast.unparse(func.value).endswith(
                "backend"
            ):
                found.append((node.lineno, "backend.close()"))
        elif isinstance(node, ast.Compare):
            if (
                isinstance(node.ops[0], (ast.Eq, ast.NotEq))
                and ast.unparse(node.left).endswith(".loss")
                and ast.dump(node.left) == ast.dump(node.comparators[0])
            ):
                found.append((node.lineno, "x.loss == x.loss NaN filter"))
        elif isinstance(node, ast.While):
            if any(
                isinstance(test, ast.Compare)
                and isinstance(test.ops[0], ast.Lt)
                and ast.unparse(test.left).endswith(".clock")
                for test in ast.walk(node.test)
            ):
                found.append((node.lineno, "while ….clock < budget loop"))
    return found


class TestOneHarness:
    def test_drivers_carry_no_private_scaffolding(self):
        offenders = []
        for path in sorted(EXPERIMENTS.glob("*.py")):
            for lineno, what in _scaffolding_copies(ast.parse(path.read_text())):
                if path.name == "runner.py" and "NaN" not in what:
                    continue  # the harness itself builds and closes
                offenders.append(f"{path.name}:{lineno} {what}")
        assert offenders == [], (
            "drivers build/tear down through runner.ExperimentRun, run "
            "budgets through run_for_time and read curves through "
            "TrainingHistory: " + "; ".join(offenders)
        )

    def test_the_lint_sees_what_it_forbids(self):
        # Guard against a vacuous lint: the harness's own teardown and
        # builder calls parse, and so does each forbidden idiom.
        runner = _scaffolding_copies(
            ast.parse((EXPERIMENTS / "runner.py").read_text())
        )
        assert sorted(what for _, what in runner) == [
            "backend.close()", "build_backend(...)", "build_telemetry(...)",
        ]
        idioms = _scaffolding_copies(ast.parse(
            "while trainer.clock < budget:\n"
            "    if r.loss == r.loss and record.loss != record.loss:\n"
            "        backend.close()\n"
        ))
        assert [what for _, what in idioms].count(
            "x.loss == x.loss NaN filter"
        ) == 2
        assert len(idioms) == 4


class TestPaperChecksAreCollected:
    def test_at_least_21_slow_tests_are_collected(self):
        """A rename that drops a module out of the ``slow`` tree must fail
        here, not pass the slow job with fewer tests."""
        root = pathlib.Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "slow", "--collect-only",
             "-q", "-p", "no:cacheprovider"],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        # The ini's -q plus this one: one "path: count" line per module.
        counts = re.findall(r"^tests/\S+\.py: (\d+)$", done.stdout, re.M)
        assert sum(int(n) for n in counts) >= 21, done.stdout
