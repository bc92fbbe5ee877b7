"""Driver artifacts are pinned byte for byte.

The goldens in ``golden_histories.json`` pin *trainer* histories; the
sweep cache promises that a cached unit re-exports byte-compatible
*driver* artifacts.  ``driver_artifact_digests.json`` holds the SHA-256
of ``json.dumps(payload, sort_keys=True)`` for every artifact
``collect_artifacts`` produces on the smoke preset of every sweep figure
(plus a shrunk fig8, the async comparison and an attacked scenario), so
a driver refactor that moves one float of one curve fails here.

The digests were generated at PR 16's head, before the drivers were
ported to ``ExperimentRun``; regenerate only with a reason, by running
this file as a script (``PYTHONPATH=src python
tests/test_driver_artifacts.py``).
"""

import functools
import hashlib
import json
import pathlib

import pytest

from repro.experiments.config import ExperimentConfig, scaled_config
from repro.experiments.scenario import resolve_scenario_config
from repro.parallel.sweep import SWEEP_FIGURES, collect_artifacts

DIGESTS = pathlib.Path(__file__).parent / "data" / "driver_artifact_digests.json"


def _scenario_variant(backend="serial", **fields):
    """The smoke scenario config with scenario fields overridden."""
    config = resolve_scenario_config(scaled_config("smoke", "scenario"))
    scenario = dict(config.scenario, **fields)
    return config.with_overrides(scenario=scenario, backend=backend)


def _fig8_shrunk():
    # tests/test_experiments.py::test_fig8_smoke's federation; the full
    # smoke fig8 alone takes ~10 s.
    return ExperimentConfig.cifar_default().with_overrides(
        num_clients=10, samples_per_client=10, hidden=(8,),
        num_rounds=10, image_size=8,
    )


#: case -> (sweep figure, config factory)
CASES = {
    **{
        figure: (figure, functools.partial(scaled_config, "smoke", figure))
        for figure in ("fig1", "fig4", "fig5", "fig6", "fig7", "scenario",
                       "adversary")
    },
    "fig8-shrunk": ("fig8", _fig8_shrunk),
    "scenario-async": (
        "scenario", lambda: _scenario_variant(async_mode=True)
    ),
    "scenario-attacked": (
        "scenario",
        lambda: _scenario_variant(
            "vectorized", adversary="sign_flip", adversary_fraction=0.25,
            aggregator="median",
        ),
    ),
}


def artifact_digests(figure, config):
    return {
        name: hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        for name, payload in collect_artifacts(figure, config).items()
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_pinned_digests(case, pinned):
    figure, make_config = CASES[case]
    assert artifact_digests(figure, make_config()) == pinned[case]


@pytest.mark.parametrize("backend", ["vectorized", "sharded"])
@pytest.mark.parametrize("case", ["fig4", "scenario"])
def test_artifacts_are_backend_independent(case, backend, pinned):
    """Same digests on every backend: nothing else asserts it per driver."""
    figure, make_config = CASES[case]
    config = make_config().with_overrides(backend=backend, jobs=2)
    assert artifact_digests(figure, config) == pinned[case]


def test_every_sweep_figure_is_pinned(pinned):
    assert set(CASES) == set(pinned)
    assert {figure for figure, _ in CASES.values()} == set(SWEEP_FIGURES)
    assert sum(len(v) for v in pinned.values()) == 75


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {
                case: artifact_digests(figure, make_config())
                for case, (figure, make_config) in sorted(CASES.items())
            },
            indent=1, sort_keys=True,
        ) + "\n"
    )
    print(f"wrote {DIGESTS}")
