"""Integration tests for the per-figure experiment drivers (smoke scale).

These validate that each driver runs end-to-end, produces the right
figure structure, and — where cheap enough — that the paper's qualitative
claims hold at smoke scale.
"""

import ast
import inspect
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
        cfg = ExperimentConfig.smoke().with_overrides(
            num_rounds=25, comm_time=100.0
        )
        result = run_fig6(cfg)
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
        # take none (FedAvg) accept the kwargs as-is.
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
        from repro.fl.fedavg import FedAvgTrainer

        with ExperimentRun(smoke, "fig-test") as run:
            model, federation, common = run.fresh("fedavg")
            trainer = FedAvgTrainer(model, federation, aggregation_period=2,
                                    **common)
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
        assert history.final_loss == 1.0
        with pytest.raises(ValueError):
            TrainingHistory().final_loss

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
    def test_at_least_19_slow_tests_are_collected(self):
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
        assert sum(int(n) for n in counts) >= 19, done.stdout


# ----------------------------------------------------------------------
# Surface: src/ holds only what an entry point reaches
# ----------------------------------------------------------------------
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _module_files(src):
    """Dotted name -> path of every module of the packages under ``src``."""
    modules = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path, name):
    """(module, aliases) of every import in ``path``, at any depth —
    function-level imports included — with relative imports resolved
    against the module's dotted ``name``."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                module = ".".join(anchor + [module] if module else anchor)
            yield module, node.names


def _defining_module(module, attr, modules):
    """Where ``from module import attr`` lands: a submodule, or the module
    that defines ``attr`` — a package ``__init__`` re-export is followed
    to its source, not counted as use."""
    if f"{module}.{attr}" in modules:
        return f"{module}.{attr}"
    if modules[module].name != "__init__.py":
        return module
    for source, aliases in _imports(modules[module], module):
        for alias in aliases:
            if (alias.asname or alias.name) == attr and source in modules:
                return _defining_module(source, alias.name, modules)
    return module


def _reached_modules(roots, modules):
    """The modules ``(path, dotted name)`` roots import, directly or
    transitively, plus the roots' own names."""
    reached = {name for _, name in roots}
    todo = list(roots)
    while todo:
        path, name = todo.pop()
        for module, aliases in _imports(path, name):
            if module not in modules:
                continue
            targets = {
                _defining_module(module, alias.name, modules)
                for alias in aliases
            } or {module}
            for target in targets - reached:
                reached.add(target)
                if modules[target].name != "__init__.py":
                    todo.append((modules[target], target))
    return reached


def _unreached_modules(roots, modules):
    """The non-``__init__`` modules no ``(path, dotted name)`` root
    imports, directly or transitively."""
    reached = _reached_modules(roots, modules)
    return sorted(
        name for name, path in modules.items()
        if path.name != "__init__.py" and name not in reached
    )


def _entry_roots():
    """The CLI, the benchmark suite, the examples and the paper-result
    checks: every file a documented command runs."""
    src = ROOT / "src"
    suite = sorted(
        path for path in (ROOT / "benchmarks" / "suite").glob("*.py")
        if not path.name.startswith("test_")
    )
    return [
        (src / "repro" / "cli.py", "repro.cli"),
        (src / "repro" / "__main__.py", "repro.__main__"),
    ] + [
        (path, "")
        for path in suite
        + sorted((ROOT / "examples").glob("*.py"))
        + sorted((ROOT / "tests" / "slow").glob("*.py"))
    ]


class TestEveryModuleIsReached:
    def test_every_module_is_reached_from_an_entry_point(self):
        # There is no allow-list.
        unreached = _unreached_modules(
            _entry_roots(), _module_files(ROOT / "src")
        )
        assert unreached == [], (
            "no CLI command, benchmark workload or paper-result check "
            "imports these modules; delete them or reach them: "
            + ", ".join(unreached)
        )

    def test_the_graph_follows_lazy_imports_not_reexports(self, tmp_path):
        # Guard against a vacuous lint on a throwaway package: a
        # function-level import counts, a relative import resolves, and
        # a re-export reaches only the module that defines the name.
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        for name, source in {
            "__init__.py": "from pkg.used import A\nfrom pkg.spare import B\n",
            "used.py": "from .sub import helper\nA = 1\n",
            "spare.py": "B = 2\n",
            "sub/__init__.py": "",
            "sub/helper.py": "",
            "root.py": "def main():\n    from pkg import A\n",
        }.items():
            (pkg / name).write_text(source)
        modules = _module_files(tmp_path)
        assert _unreached_modules([(pkg / "root.py", "pkg.root")],
                                  modules) == ["pkg.spare"]


# ----------------------------------------------------------------------
# Surface: every constructor setting is set by an entry point
# ----------------------------------------------------------------------
def _reached_files(roots, modules):
    """The roots' paths and the path of every module they reach."""
    return {path for path, _ in roots} | {
        modules[name] for name in _reached_modules(roots, modules)
        if name in modules
    }


def _init_settings(init):
    """``(positional parameters, defaulted keywords)`` of an ``__init__``
    definition, ``self`` aside."""
    args = init.args
    positional = [arg.arg for arg in args.posonlyargs + args.args][1:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return positional, defaulted


def _declared_settings(path, class_name):
    """The keywords with a default in ``class_name.__init__``, in order."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    return _init_settings(item)[1]
    raise LookupError(f"no {class_name}.__init__ in {path}")


def _called_name(func):
    """The name a call is made by: ``f(...)`` and ``m.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _callables(paths):
    """``(bases, forwarding)`` over every class and function defined in
    ``paths``: name -> its base class names (none for a function), and
    the names whose definition (a class's ``__init__``) takes ``**`` — a
    keyword passed to those may reach any class."""
    bases, forwarding = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id for base in node.bases
                    if isinstance(base, ast.Name)
                )
                forwarding.update(
                    node.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__init__" and item.args.kwarg
                )
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name != "__init__"):
                if node.args.kwarg:
                    forwarding.add(node.name)
                bases.setdefault(node.name, set())
    return bases, forwarding


def _plain_callee(func, bases, forwarding):
    """The class or function a call names — ``f(...)``, ``m.f(...)`` —
    when it is one defined in the roots' reach that takes no ``**``;
    else None (``dict``, ``cls``, ``super().__init__``, a subscript, a
    forwarder: the keyword may reach any class)."""
    name = _called_name(func)
    if isinstance(func, ast.Attribute) and not isinstance(
            func.value, (ast.Name, ast.Attribute)):
        return None
    if name not in bases or name in forwarding:
        return None
    return name


def _set_names(path, bases, forwarding, keys_count):
    """``(names, bound, positions)``: the call keywords that may set any
    class's setting (the callee is no plain class or function, or it
    forwards ``**``) plus, with ``keys_count``, every string key of a
    dict literal that merges ``**``;
    ``(class, keyword)`` for each keyword passed to a plain callee —
    also binding the callee's base classes, whose ``__init__`` it may
    inherit; and every ``(called name, index)`` a call fills
    positionally, up to its first ``*args``.  A definition's own
    defaults are not keywords, and a ``**settings`` pass-through names
    nothing."""
    names, bound, positions = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Dict) and keys_count and None in node.keys:
            names.update(
                key.value for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif isinstance(node, ast.Call):
            callee = _plain_callee(node.func, bases, forwarding)
            owners, todo = set(), [callee] if callee else []
            while todo:
                owner = todo.pop()
                if owner not in owners:
                    owners.add(owner)
                    todo += bases.get(owner, ())
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                if callee is None:
                    names.add(keyword.arg)
                else:
                    bound.update((owner, keyword.arg) for owner in owners)
            if _called_name(node.func):
                for index, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    positions.add((_called_name(node.func), index))
    return names, bound, positions


def _unset_settings(roots, modules):
    """``Class.setting`` for every defaulted ``__init__`` parameter of a
    class defined in a module the roots reach that nothing they reach
    sets: by a keyword to the class (or to a callee that may reach any
    class), by a string key of a module's dict that merges ``**``, or
    positionally by the class's name."""
    paths = _reached_files(roots, modules)
    sources = set(modules.values())
    bases, forwarding = _callables(paths)
    names, bound, positions = set(), set(), set()
    for path in paths:
        path_names, path_bound, path_positions = _set_names(
            path, bases, forwarding, keys_count=path in sources
        )
        names |= path_names
        bound |= path_bound
        positions |= path_positions
    unset = []
    for path in sorted(paths & sources):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not (isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"):
                    continue
                positional, defaulted = _init_settings(item)
                unset += [
                    f"{node.name}.{name}" for name in defaulted
                    if name not in names
                    and (node.name, name) not in bound
                    and not (
                        name in positional
                        and (node.name, positional.index(name)) in positions
                    )
                ]
    return sorted(unset)


class TestEverySettingIsSet:
    def test_every_engine_setting_is_set_by_an_entry_point(self):
        # Every class a root reaches, same roots and graph as the module
        # lint; no allow-list.
        unset = _unset_settings(_entry_roots(), _module_files(ROOT / "src"))
        assert unset == [], (
            "no CLI command, benchmark, example or paper-result check "
            "sets these constructor settings; make them constants or "
            "set them: " + ", ".join(unset)
        )

    def test_the_settings_lint_reads_keywords_and_dict_keys(self, tmp_path):
        # Guard against a vacuous lint on a throwaway package: a call
        # keyword, a dict key and a positional argument to the class's
        # name count; a definition's default, a ``**settings``
        # forwarder, a position past ``*args``, a call to another name
        # and an unreached module do not.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        for name, source in {
            "__init__.py": "",
            "engine.py": (
                "class Engine:\n"
                "    def __init__(self, model, rate=0.1, hooks=None,\n"
                "                 order=1, lanes=4, tail=0, *,\n"
                "                 depth=2, spill=0, width):\n"
                "        pass\n"
                "class Pool:\n"
                "    def __init__(self, jobs, method='fork'):\n"
                "        pass\n"
            ),
            "wiring.py": (
                "from pkg.engine import Engine, Pool\n"
                "def build(model, hooks, spill=1, **settings):\n"
                "    settings = {**settings, 'hooks': hooks}\n"
                "    Pool(2, 'spawn')\n"
                "    other(model, 1, 2, 3, 4, 5)\n"
                "    Engine(model, 0.1, None, *settings['rest'], 9)\n"
                "    return Engine(model, 0.2, None, 2, **settings)\n"
            ),
            "spare.py": (
                "from pkg.engine import Engine\n"
                "ENGINE = Engine(None, 0.1, None, 1, 2, 3, depth=3)\n"
            ),
            "root.py": "def main():\n    from pkg.wiring import build\n",
        }.items():
            (pkg / name).write_text(source)
        unset = _unset_settings(
            [(pkg / "root.py", "pkg.root")], _module_files(tmp_path)
        )
        assert unset == [
            "Engine.depth", "Engine.lanes", "Engine.spill", "Engine.tail",
        ]

    def test_a_keyword_sets_only_the_class_it_calls(self, tmp_path):
        # Guard against the same word setting an unrelated class: an
        # unrelated ``Reading(value=)`` call and a harness's JSON
        # ``"value"`` key once made ``Discount(value=)`` look set.  A
        # keyword binds to the class it calls and that class's bases;
        # it counts for every class only through a callee that is no
        # plain name (``dict``, ``cls``, ``super().__init__``, a
        # subscript) or that forwards ``**``; a string key counts only
        # in a module's dict literal that merges ``**``.
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        for name, source in {
            "__init__.py": "",
            "discount.py": (
                "class Discount:\n"
                "    def __init__(self, value=1.0, probe=True, scale=1,\n"
                "                 rate=0, width=0, depth=0, lanes=0):\n"
                "        pass\n"
                "class Half(Discount):\n"
                "    pass\n"
                "class Reading:\n"
                "    def __init__(self, value=None):\n"
                "        pass\n"
                "def build(**kwargs):\n"
                "    return Discount(**kwargs)\n"
            ),
            "wiring.py": (
                "from pkg.discount import Discount, Half, Reading, build\n"
                "EVENTS = {'probe': 1}\n"
                "def run(cls, settings, table):\n"
                "    Reading(value=2.0)\n"
                "    Half(scale=2)\n"
                "    build(rate=3)\n"
                "    settings = dict(width=1)\n"
                "    table['x'](lanes=2)\n"
                "    return Discount(**{**settings, 'depth': 1})\n"
            ),
            "root.py": "def main():\n    from pkg.wiring import run\n",
        }.items():
            (pkg / name).write_text(source)
        harness = tmp_path / "bench" / "harness.py"
        harness.parent.mkdir()
        harness.write_text("RESULT = {'value': 1.0, 'probe': True}\n")
        unset = _unset_settings(
            [(pkg / "root.py", "pkg.root"), (harness, "")],
            _module_files(tmp_path / "src"),
        )
        assert unset == ["Discount.probe", "Discount.value"]

    def test_fl_trainer_documents_exactly_the_engine_settings(self):
        doc = inspect.cleandoc(FLTrainer.__doc__)
        _, _, settings_section = doc.partition(
            "Every other keyword is an *engine setting*"
        )
        documented = re.findall(r"^(\w+):$", settings_section, re.M)
        declared = _declared_settings(
            ROOT / "src" / "repro" / "fl" / "engine.py", "RoundEngine"
        )
        assert documented == declared


# ----------------------------------------------------------------------
# Surface: every function, class, method and property is named by an
# entry point
# ----------------------------------------------------------------------
def _definitions(tree):
    """``(name, lineno)`` of every function, class, method and property
    defined in ``tree``, at any depth; dunders aside."""
    return [
        (node.name, node.lineno) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _named(tree):
    """Every name ``tree`` uses outside the definition it names: a
    ``Name``, an ``Attribute`` or a string constant — so a ``getattr``
    counts — inside no definition of that name, and outside
    ``__all__``."""
    names = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names


def _uncalled_definitions(roots, modules):
    """``module:line name`` of every definition in a module the roots
    reach that nothing they reach names — its own definition and package
    ``__init__`` files aside."""
    paths = _reached_files(roots, modules)
    trees = {path: ast.parse(path.read_text()) for path in paths}
    named = set().union(*(
        _named(tree) for path, tree in trees.items()
        if path.name != "__init__.py"
    ))
    dotted = {path: name for name, path in modules.items()}
    return [
        f"{module}:{lineno} {name}"
        for module, lineno, name in sorted(
            (dotted[path], lineno, name)
            for path, tree in trees.items() if path in dotted
            for name, lineno in _definitions(tree) if name not in named
        )
    ]


class TestEveryFunctionIsCalled:
    def test_every_definition_is_named_by_an_entry_point(self):
        # Same roots and graph as the module lint; no allow-list.
        uncalled = _uncalled_definitions(
            _entry_roots(), _module_files(ROOT / "src")
        )
        assert uncalled == [], (
            "no CLI command, benchmark, example or paper-result check "
            "names these functions, classes, methods or properties; "
            "delete them or use them: " + ", ".join(uncalled)
        )

    def test_the_function_lint_counts_names_attributes_and_strings(
        self, tmp_path
    ):
        # Guard against a vacuous lint on a throwaway package: a method
        # reached by attribute, by a ``getattr`` string or from a root
        # counts; a function named only in its own definition, in
        # ``__all__``, in a package ``__init__`` or in an unreached
        # module does not, and dunders are exempt.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        for name, source in {
            "__init__.py": "from pkg.lib import exported\nexported()\n",
            "lib.py": (
                "__all__ = ['listed']\n"
                "class Model:\n"
                "    def __init__(self):\n"
                "        pass\n"
                "    def step(self):\n"
                "        return self.step\n"
                "    def fit(self):\n"
                "        pass\n"
                "    def probe(self):\n"
                "        pass\n"
                "    @property\n"
                "    def size(self):\n"
                "        pass\n"
                "def recurse(n):\n"
                "    return recurse(n - 1)\n"
                "def listed():\n"
                "    pass\n"
                "def exported():\n"
                "    pass\n"
                "def spared():\n"
                "    pass\n"
                "def build():\n"
                "    model = Model()\n"
                "    model.fit()\n"
                "    return getattr(model, 'probe')\n"
            ),
            "spare.py": "from pkg.lib import spared\nspared()\n",
            "root.py": "from pkg.lib import build\nbuild().size\n",
        }.items():
            (pkg / name).write_text(source)
        uncalled = _uncalled_definitions(
            [(pkg / "root.py", "pkg.root")], _module_files(tmp_path)
        )
        assert uncalled == [
            "pkg.lib:5 step", "pkg.lib:14 recurse", "pkg.lib:16 listed",
            "pkg.lib:18 exported", "pkg.lib:20 spared",
        ]


#: the ``os`` attributes that read the process environment
ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(source):
    """``lineno: expression`` of every environment read in ``source``:
    an ``os`` attribute of :data:`ENVIRONMENT_READS` under any alias of
    ``os``, or one of those names imported from ``os``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                f"{node.lineno}: from os import {alias.name}"
                for alias in node.names if alias.name in ENVIRONMENT_READS
            )
    return sorted(found)


class TestNoEnvironmentReads:
    def test_no_module_under_src_reads_the_environment(self):
        # A setting is a keyword an entry point sets, never an
        # environment variable nothing in the surface lints can see.
        offenders = [
            f"{path.relative_to(ROOT)}:{read}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for read in _environment_reads(path.read_text())
        ]
        assert offenders == [], (
            "modules under src/ read the environment: " + "; ".join(offenders)
        )

    def test_the_environment_lint_sees_every_spelling(self):
        # Guard against a vacuous lint: each spelling of a read counts,
        # other os attributes and a local named environ do not.
        reads = _environment_reads(
            "import os\n"
            "import os as system\n"
            "from os import getenv, path\n"
            "environ = {}\n"
            "a = os.environ['A']\n"
            "b = system.getenv('B')\n"
            "c = os.environ.get('C', os.path.join('x', environ.get('y')))\n"
        )
        assert reads == [
            "3: from os import getenv",
            "5: os.environ",
            "6: system.getenv",
            "7: os.environ",
        ]


# ----------------------------------------------------------------------
# Surface: every layer and loss class is built by an entry point
# ----------------------------------------------------------------------
#: the modules whose classes make up the model
MODEL_MODULES = ("repro.nn.layers", "repro.nn.losses")


def _called_names(path):
    """The name of every call in ``path``: ``f(...)`` and ``m.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _unbuilt_classes(roots, modules, class_modules):
    """The classes of ``class_modules`` that no module the roots reach
    calls by name — the class's own file and package ``__init__`` files
    aside — and that are no base of a class that is called."""
    paths = {path for path, _ in roots} | {
        modules[name] for name in _reached_modules(roots, modules)
        if name in modules
    }
    calls = {
        path: _called_names(path)
        for path in paths if path.name != "__init__.py"
    }
    bases = {}
    built = []
    for module in class_modules:
        own = modules[module]
        for node in ast.parse(own.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    base.id for base in node.bases
                    if isinstance(base, ast.Name)
                ]
                if any(node.name in names for path, names in calls.items()
                       if path != own):
                    built.append(node.name)
    reached = set()
    while built:
        name = built.pop()
        if name in bases and name not in reached:
            reached.add(name)
            built.extend(bases[name])
    return sorted(set(bases) - reached)


class TestEveryLayerIsBuilt:
    def test_every_layer_and_loss_is_built_by_an_entry_point(self):
        # Same roots and graph as the module lint; no allow-list.
        unbuilt = _unbuilt_classes(
            _entry_roots(), _module_files(ROOT / "src"), MODEL_MODULES
        )
        assert unbuilt == [], (
            "no CLI command, benchmark workload or paper-result check "
            "builds these layers or losses; delete them or build them: "
            + ", ".join(unbuilt)
        )

    def test_the_layer_lint_counts_calls_and_bases(self, tmp_path):
        # Guard against a vacuous lint on a throwaway package: a call by
        # name or attribute counts, and so does being a base of a class
        # that is called; a call in the class's own file, a package
        # re-export and an unreached module's call do not.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        for name, source in {
            "__init__.py": "from pkg.layers import Spare\nSPARE = Spare()\n",
            "layers.py": (
                "class Base:\n    pass\n"
                "class Used(Base):\n    pass\n"
                "class Named:\n    pass\n"
                "class Spare:\n    pass\n"
                "class Local:\n    pass\n"
                "LOCAL = Local()\n"
            ),
            "model.py": (
                "from pkg import layers\n"
                "from pkg.layers import Named\n"
                "def build():\n    return [layers.Used(), Named()]\n"
            ),
            "spare.py": "from pkg.layers import Spare\nSPARE = Spare()\n",
            "root.py": "def main():\n    from pkg.model import build\n",
        }.items():
            (pkg / name).write_text(source)
        unbuilt = _unbuilt_classes(
            [(pkg / "root.py", "pkg.root")], _module_files(tmp_path),
            ["pkg.layers"],
        )
        assert unbuilt == ["Local", "Spare"]


# ----------------------------------------------------------------------
# Surface: the event schema holds exactly the kinds a run emits
# ----------------------------------------------------------------------
def _event_kind_mismatches(src, schema):
    """``(never emitted, not in the schema)`` for the ``.event(...)``
    calls in the modules under ``src``: the ``schema`` kinds no call
    passes as its literal first argument, and ``path:line: kind`` of
    every call whose first argument is a kind outside ``schema`` or is
    not a string literal (a kind the lint cannot read)."""
    emitted, unknown = set(), []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event"
            ):
                continue
            kind = node.args[0] if node.args else None
            where = f"{path.relative_to(src)}:{node.lineno}"
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                emitted.add(kind.value)
                if kind.value not in schema:
                    unknown.append(f"{where}: {kind.value}")
            else:
                unknown.append(
                    f"{where}: {ast.unparse(kind) if kind else '(no kind)'}"
                )
    return sorted(set(schema) - emitted), unknown


class TestEveryEventKindIsEmitted:
    def test_every_schema_kind_is_emitted_and_every_emitted_kind_known(self):
        from repro.obs import EVENT_TYPES

        never, unknown = _event_kind_mismatches(ROOT / "src", EVENT_TYPES)
        assert never == [], (
            "no .event(...) call under src/ emits these schema kinds; "
            "delete them from EVENT_TYPES: " + ", ".join(never)
        )
        assert unknown == [], (
            ".event(...) calls under src/ pass a kind that is not a "
            "literal EVENT_TYPES key: " + "; ".join(unknown)
        )

    def test_the_event_lint_reads_literal_first_arguments(self, tmp_path):
        # Guard against a vacuous lint on a throwaway package: a literal
        # first argument emits its kind (any receiver, any depth), a
        # keyword or a mention in a string does not, and an unknown or
        # non-literal kind is named with its file and line.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "emit.py").write_text(
            "def run(tel, kind):\n"
            "    tel.event('round', round=1)\n"
            "    if tel.enabled:\n"
            "        tel.sink.event('span', name='x')\n"
            "    tel.event(kind)\n"
            "    tel.event('mystery')\n"
            "    tel.event(type='drop')\n"
            "    return 'tel.event(\"recovery\")'\n"
        )
        never, unknown = _event_kind_mismatches(
            tmp_path, {"round": {}, "span": {}, "drop": {}, "recovery": {}}
        )
        assert never == ["drop", "recovery"]
        assert unknown == [
            "pkg/emit.py:5: kind", "pkg/emit.py:6: mystery",
            "pkg/emit.py:7: (no kind)",
        ]
