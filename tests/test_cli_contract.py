"""The CLI's surface is pinned: flags, resolved configs, cache keys.

``data/cli_contract.json`` holds three sections, generated at PR 21's
head — *before* the config fields grew their ``option(...)``
declarations and ``cli.py`` started deriving its flags from them:

- ``parsers`` — per subcommand, the *set* of argparse actions (option
  strings, dest, type, nargs, choices, default, const, required, metavar,
  help text, action class).  Order inside ``--help`` is not pinned.
- ``argv`` — command line → outcome, with ``cli._run_figure`` stubbed to
  capture the resolved ``ExperimentConfig.to_dict()`` (or ``exit N`` /
  the escaping exception's type; ``sweep`` rows capture the pool size
  with "all CPUs" stubbed to :data:`ALL_CPUS`).
- ``cache_keys`` — SHA-256 of the canonical JSON of every
  ``scaled_config(scale, figure).to_dict()``: sweep cache keys hash that
  dict, so a renamed/reordered/re-defaulted field would silently
  invalidate every cached unit.

A changed flag, default or range is a deliberate edit of the JSON:
regenerate it by running this file as a script (``PYTHONPATH=src python
tests/test_cli_contract.py``) and say which rows moved.
"""

import argparse
import ast
import hashlib
import json
import pathlib

import pytest

from repro import cli
from repro.experiments.config import SCALE_NAMES, scaled_config

CONTRACT = pathlib.Path(__file__).parent / "data" / "cli_contract.json"

#: what the stubbed ``default_worker_count`` answers ("all usable CPUs")
ALL_CPUS = 7

ARGV = [
    "fig4",
    "fig4 --rounds 7 --seed 3 --comm-time 2.5",
    "fig4 --jobs 4",
    "fig4 --jobs 1",
    "fig4 --backend vectorized --jobs 3",
    "fig4 --scale paper --backend sharded --jobs 0",
    "fig1 --scale default",
    "fig5 --dirichlet-alpha 0.3",
    "fig5 --partition dirichlet",
    "fig6 --partition auto --dirichlet-alpha 2",
    "fig8 --telemetry t.jsonl",
    "fig8 --scale smoke --rounds 4",
    "scenario",
    "scenario --availability diurnal --period 8 --duty 0.25 "
    "--deadline 2 2 9 --reweight cohort --seed 3",
    "scenario --deadline-policy fixed",
    "scenario --deadline-policy cycling --deadline 4",
    "scenario --deadline-policy adaptive",
    "scenario --deadline-policy adaptive --deadline 5",
    "scenario --deadline-policy adaptive --deadline-min 2 --deadline-max 8 "
    "--no-deadline-probe",
    "scenario --deadline 5",
    "adversary --deadline 5",
    "scenario --deadline-policy adaptive --deadline 2 9",
    "scenario --staleness poly",
    "scenario --commit-count 3",
    "scenario --async --staleness adaptive",
    "scenario --adversary-fraction 0.25",
    "scenario --adversary-kind noise --adversary-fraction 0.2 "
    "--adversary-scale 3 --aggregator trimmed_mean --trim-fraction 0.1",
    "scenario --population 1000",
    "scenario --population 1000 --participants 5 --over-selection 0.2",
    "scenario --participants 4 --min-uploads 2 --slow-fraction 0.5 "
    "--slow-factor 2 --p-recover 0.9",
    "scenario --over-selection 0.3",
    "scenario --p-drop 2",
    "scenario --async --adversary-kind sign_flip",
    "scenario --staleness const",
    "adversary",
    "adversary --adversary-kind scale --availability markov --p-drop 0.2",
    "fig4 --bogus",
    "sweep --jobs 2",
    "sweep --jobs 0",
    # Out-of-range values of experiment-level flags (see
    # test_out_of_range_flags_exit_2_naming_the_field).
    "fig4 --rounds 0",
    "fig4 --jobs -1",
    "fig4 --dirichlet-alpha 0",
    "fig4 --comm-time -1",
    "scenario --population -5",
    "sweep --jobs -3",
]


def _describe(action: argparse.Action) -> dict:
    return {
        "option_strings": sorted(action.option_strings),
        "dest": action.dest,
        "type": getattr(action.type, "__name__", None),
        "nargs": action.nargs,
        "choices": None if action.choices is None else list(action.choices),
        "default": action.default,
        "const": action.const,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        "action": type(action).__name__,
    }


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (sub,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(sub.choices)


def parser_contract() -> dict:
    return {
        name: sorted(
            (
                _describe(a) for a in p._actions
                if not isinstance(a, argparse._HelpAction)
            ),
            key=lambda row: (row["option_strings"], row["dest"]),
        )
        for name, p in subparsers().items()
    }


def outcome(argv: str, out_dir, patch) -> dict:
    """What ``repro <argv>`` resolves to, with the run itself stubbed."""
    seen: dict = {}

    def fake_run_figure(figure, config, out, plot=False):
        seen["config"] = config.to_dict()
        return []

    def fake_run_sweep(spec, jobs, **kwargs):
        seen["sweep_jobs"] = jobs
        return argparse.Namespace(results=[])

    patch.setattr(cli, "_run_figure", fake_run_figure)
    patch.setattr(cli, "run_sweep", fake_run_sweep)
    patch.setattr(
        "repro.parallel.pool.default_worker_count", lambda: ALL_CPUS
    )
    words = argv.split()
    if words[0] != "sweep":
        words += ["--out", str(out_dir)]
    try:
        cli.main(words)
    except SystemExit as stop:
        return {"exit": stop.code}
    except Exception as error:  # the contract records what escapes main
        return {"raises": type(error).__name__}
    return seen


def cache_key_contract() -> dict:
    return {
        f"{scale}/{figure}": hashlib.sha256(
            json.dumps(
                scaled_config(scale, figure).to_dict(), sort_keys=True
            ).encode()
        ).hexdigest()
        for scale in SCALE_NAMES
        for figure in cli.FIGURES
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CONTRACT.read_text())


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_parser_actions_match_the_contract(command, pinned):
    assert parser_contract()[command] == pinned["parsers"][command]


@pytest.mark.parametrize("argv", ARGV)
def test_argv_resolves_as_pinned(argv, pinned, tmp_path, monkeypatch, capsys):
    assert outcome(argv, tmp_path, monkeypatch) == pinned["argv"][argv]
    capsys.readouterr()  # swallow argparse's usage text


def test_cache_key_digests_match_the_contract(pinned):
    assert cache_key_contract() == pinned["cache_keys"]


def test_the_contract_is_complete(pinned):
    assert set(pinned["parsers"]) == set(subparsers())
    assert set(pinned["argv"]) == set(ARGV) and len(ARGV) >= 30
    assert len(pinned["cache_keys"]) == 4 * 8
    sizes = {name: len(rows) for name, rows in pinned["parsers"].items()}
    assert sizes["scenario"] == sizes["adversary"] == 39
    assert sizes["fig4"] == 12 and sizes["sweep"] == 11
    assert sizes["trace-report"] == 3


@pytest.mark.parametrize("argv, field", [
    ("fig4 --rounds 0", "num_rounds"),
    ("fig4 --jobs -1", "jobs"),
    ("fig4 --dirichlet-alpha 0", "dirichlet_alpha"),
    ("fig4 --comm-time -1", "comm_time"),
    ("scenario --population -5", "population"),
    ("sweep --jobs -3", "jobs"),
])
def test_out_of_range_flags_exit_2_naming_the_field(
    argv, field, tmp_path, monkeypatch, capsys
):
    """One error surface for every flag: usage error, not a traceback
    (and not a TimingModel error three layers down for --comm-time)."""
    assert outcome(argv, tmp_path, monkeypatch) == {"exit": 2}
    message = capsys.readouterr().err
    assert f"error: {field} must be in " in message


# ----------------------------------------------------------------------
# Lint: keep it one declaration
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
FACADE_FILES = ("fl/trainer.py", "fl/fedavg.py", "online/adaptive_trainer.py")
#: engine keywords a façade may still name, each with its reason
FACADE_ALLOWED = {
    ("*", "timing"): "façades default it / pass it positionally",
    ("AdaptiveKTrainer", "seed"): "also seeds its own rounding RNG",
}


def declared_flags() -> set[str]:
    import dataclasses

    from repro.experiments.config import ExperimentConfig
    from repro.scenarios import ScenarioConfig

    return {
        field.metadata["flag"]
        for config in (ScenarioConfig, ExperimentConfig)
        for field in dataclasses.fields(config)
        if field.metadata.get("flag")
    }


def hand_written_flags(source: str, declared: set[str]) -> list[str]:
    """``add_argument`` calls whose flag a config field declares.

    The ``sweep`` parser (``ps``) is exempt: its ``--rounds``/``--jobs``/
    ``--telemetry`` are grid-wide values with their own defaults and
    help, not one config's field.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        if getattr(node.func.value, "id", None) == "ps":
            continue
        literals = [
            a.value for a in node.args
            if isinstance(a, ast.Constant) and isinstance(a.value, str)
        ]
        if literals and literals[0] in declared:
            found.append(f"{node.lineno}: add_argument({literals[0]!r})")
    return found


def _init_parameters(source: str, only_class: str | None = None):
    """(class name, [parameter names]) of every ``__init__``."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if only_class is not None and cls.name != only_class:
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                args = item.args
                yield cls.name, [
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                ]


def engine_keywords(engine_source: str) -> set[str]:
    ((_, names),) = _init_parameters(engine_source, "RoundEngine")
    return set(names) - {"self", "model", "federation", "sparsifier"}


def rethreaded_settings(source: str, keywords: set[str],
                        only_class: str | None = None) -> list[str]:
    """Façade ``__init__``s that spell an engine setting again."""
    return [
        f"{cls}.__init__({name}=...)"
        for cls, names in _init_parameters(source, only_class)
        for name in names
        if name in keywords
        and ("*", name) not in FACADE_ALLOWED
        and (cls, name) not in FACADE_ALLOWED
    ]


def _is_literal(node) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_literal(node.operand)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_literal(e) for e in node.elts)
    # module-level constants: *_KINDS, *_MODES, BACKEND_NAMES
    return isinstance(node, ast.Name) and node.id.isupper()


def _single_field_test(test) -> str | None:
    """The one ``self.<field>`` a guard range/membership-tests, if it
    does nothing else (compares it against literals or constants)."""
    fields: set[str] = set()

    def visit(node) -> bool:
        if isinstance(node, ast.BoolOp):
            return all(visit(v) for v in node.values)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return visit(node.operand)
        if isinstance(node, ast.Compare):
            return all(visit(n) for n in [node.left, *node.comparators])
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            fields.add(node.attr)
            return True
        return _is_literal(node)

    if visit(test) and len(fields) == 1 and not isinstance(
        test, ast.Attribute
    ):
        return fields.pop()
    return None


def _self_fields(node) -> set[str]:
    return {
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    }


def single_field_checks(source: str) -> list[str]:
    """``if <one field vs literals>: raise ValueError`` inside a config's
    ``__post_init__`` / ``_normalize_deadline_policy``: a ``within`` or
    ``one_of`` written by hand.  ``A or B`` is two checks; a check nested
    under an ``if`` on another field is a cross-field rule."""
    found = []

    def scan(statements, outer: set[str]) -> None:
        for node in statements:
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if any(isinstance(s, ast.Raise) for s in node.body):
                operands = test.values if (
                    isinstance(test, ast.BoolOp)
                    and isinstance(test.op, ast.Or)
                ) else [test]
                for operand in operands:
                    field = _single_field_test(operand)
                    if field is not None and outer <= {field}:
                        found.append(f"{node.lineno}: {field}")
            scan(node.body, outer | _self_fields(test))
            scan(node.orelse, outer | _self_fields(test))

    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef) and func.name in (
            "__post_init__", "_normalize_deadline_policy"
        ):
            scan(func.body, set())
    return found


class TestOneDeclaration:
    def test_cli_hand_writes_no_declared_flag(self):
        offenders = hand_written_flags(
            (SRC / "cli.py").read_text(), declared_flags()
        )
        assert offenders == [], (
            "these flags are declared on a config field; add_flags "
            "derives them: " + "; ".join(offenders)
        )

    def test_engine_settings_are_spelt_in_one_signature(self):
        keywords = engine_keywords((SRC / "fl" / "engine.py").read_text())
        offenders = [
            f"{name}: {hit}"
            for name in FACADE_FILES
            for hit in rethreaded_settings((SRC / name).read_text(), keywords)
        ] + rethreaded_settings(
            (SRC / "fl" / "async_engine.py").read_text(), keywords,
            only_class="AsyncFLTrainer",
        )
        assert offenders == [], (
            "engine settings are declared in RoundEngine.__init__ and "
            "forwarded as **engine_settings: " + "; ".join(offenders)
        )

    def test_configs_hand_write_no_range_or_membership_check(self):
        offenders = [
            f"{name}:{hit}"
            for name in ("scenarios/config.py", "experiments/config.py")
            for hit in single_field_checks((SRC / name).read_text())
        ]
        assert offenders == [], (
            "a single-field range/membership test is a within=/one_of= "
            "on the field's option(...): " + "; ".join(offenders)
        )

    def test_the_lints_are_not_vacuous(self):
        # Each lint flags the pattern it replaced ...
        assert len(declared_flags()) == 23 + 9
        assert hand_written_flags(
            'p.add_argument("--p-drop", type=float, default=None)\n'
            'p.add_argument("--trace", default=None)\n',
            declared_flags(),
        ) == ["1: add_argument('--p-drop')"]
        keywords = engine_keywords((SRC / "fl" / "engine.py").read_text())
        assert {"learning_rate", "batch_size", "eval_every",
                "eval_max_samples", "seed", "sampler"} <= keywords
        assert rethreaded_settings(
            "class T:\n"
            "    def __init__(self, model, timing, policy, "
            "learning_rate=0.01, *, seed=0): pass\n",
            keywords,
        ) == ["T.__init__(learning_rate=...)", "T.__init__(seed=...)"]
        assert [hit.split(": ")[1] for hit in single_field_checks(
            "class C:\n"
            "    def __post_init__(self):\n"
            "        if self.kind not in KINDS:\n"
            "            raise ValueError('a')\n"
            "        if not 0.0 <= self.p <= 1.0 or self.q < -1:\n"
            "            raise ValueError('b')\n"
            "        if self.eps > 0.0 and self.m == 0:\n"
            "            raise ValueError('cross-field: stays')\n"
            "        if self.s is not None and not isinstance(self.s, dict):\n"
            "            raise ValueError('a type check: stays')\n"
            "        if self.trace:\n"
            "            raise ValueError('truthiness: stays')\n"
            "        if self.policy != 'adaptive':\n"
            "            if self.dmin is not None:\n"
            "                raise ValueError('nested cross-field: stays')\n"
        )] == ["kind", "p", "q"]
        # ... and sees the sites that legitimately remain.
        cli_calls = [
            node for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ]
        assert 15 <= len(cli_calls) <= 22
        facades = [
            cls for name in FACADE_FILES
            for cls, _ in _init_parameters((SRC / name).read_text())
        ]
        assert {"FLTrainer", "FedAvgTrainer", "AdaptiveKTrainer"} <= set(
            facades
        )


if __name__ == "__main__":
    import tempfile

    patch = pytest.MonkeyPatch()
    with tempfile.TemporaryDirectory() as tmp:
        CONTRACT.write_text(
            json.dumps(
                {
                    "parsers": parser_contract(),
                    "argv": {
                        argv: outcome(argv, pathlib.Path(tmp), patch)
                        for argv in ARGV
                    },
                    "cache_keys": cache_key_contract(),
                },
                indent=1, sort_keys=True,
            ) + "\n"
        )
    patch.undo()
    print(f"wrote {CONTRACT}")
