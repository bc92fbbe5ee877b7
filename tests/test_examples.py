"""Smoke tests for the documented example entry points.

The examples are the README's front door; nothing else imports them, so
without this file they can silently rot.  ``quickstart.py`` actually
*runs* at tiny scale; every other example is too slow to execute in
tier 1, so each one is byte-compiled and imported: all of them are
``__main__``-guarded, so an import runs nothing but their own imports,
and a renamed or removed API fails here.
"""

import importlib
import pathlib
import py_compile
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture()
def examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))


def test_quickstart_runs_at_tiny_scale(examples_on_path, capsys):
    import quickstart

    quickstart.main(num_writers=4, samples_per_writer=10, num_rounds=6,
                    eval_every=3)
    out = capsys.readouterr().out
    assert "4 clients" in out
    assert "model dimension D" in out
    assert "communication:" in out


EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_compiles(example):
    py_compile.compile(str(EXAMPLES_DIR / example), doraise=True)


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_imports(example, examples_on_path, monkeypatch):
    name = pathlib.Path(example).stem
    monkeypatch.delitem(sys.modules, name, raising=False)
    assert importlib.import_module(name).__doc__


def test_examples_directory_is_covered():
    # If a new example appears, the glob above picks it up automatically;
    # this guards against the directory moving and the glob matching
    # nothing (which would green-wash the whole module).
    assert (EXAMPLES_DIR / "quickstart.py").exists()
    assert len(list(EXAMPLES_DIR.glob("*.py"))) >= 6
