"""Tests for experiment serialization and the CLI."""

import json

import numpy as np
import pytest

from repro.experiments.io import (
    SCHEMA_VERSION,
    export_figure_csv,
    figure_from_dict,
    figure_to_dict,
    history_to_dict,
    write_json,
)
from repro.experiments.runner import FigureData
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro import cli


def load_figure(path):
    return figure_from_dict(json.loads(path.read_text()))


def load_history(path):
    """Read back a history artifact (the inverse of ``history_to_dict``)."""
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA_VERSION and data["kind"] == "history"
    history = TrainingHistory()
    for r in data["records"]:
        history.append(RoundRecord(
            round_index=r["round"], k=r["k"], round_time=r["round_time"],
            cumulative_time=r["cumulative_time"], loss=r["loss"],
            accuracy=r["accuracy"], uplink_elements=r["uplink"],
            downlink_elements=r["downlink"],
            contributions={int(k): v for k, v in r["contributions"].items()},
        ))
    return history


class TestFigureIO:
    def _figure(self):
        fig = FigureData("test figure", notes=["a note"])
        fig.add("curve-a", [1.0, 2.0], [3.0, 4.0])
        fig.add("curve-b", [1.0], [9.0])
        return fig

    def test_roundtrip_dict(self):
        fig = self._figure()
        restored = figure_from_dict(figure_to_dict(fig))
        assert restored.title == fig.title
        assert restored.notes == fig.notes
        assert restored.labels() == fig.labels()
        np.testing.assert_allclose(restored.get("curve-a").y, [3.0, 4.0])

    def test_roundtrip_file(self, tmp_path):
        fig = self._figure()
        path = tmp_path / "fig.json"
        write_json(path, figure_to_dict(fig))
        restored = load_figure(path)
        assert restored.labels() == fig.labels()

    def test_csv_export(self, tmp_path):
        path = tmp_path / "fig.csv"
        export_figure_csv(self._figure(), path)
        content = path.read_text()
        assert "curve-a,1,3" in content

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "kind": "figure"}))
        with pytest.raises(ValueError):
            load_figure(path)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            figure_from_dict({"schema": 1, "kind": "history", "records": []})


class TestHistoryIO:
    def test_roundtrip(self, tmp_path):
        h = TrainingHistory()
        h.append(RoundRecord(1, 5.0, 1.5, 1.5, 2.0, accuracy=0.5,
                             uplink_elements=10, downlink_elements=8,
                             contributions={0: 4, 1: 6}))
        h.append(RoundRecord(2, 5.0, 1.5, 3.0, 1.5))
        path = tmp_path / "hist.json"
        write_json(path, history_to_dict(h))
        restored = load_history(path)
        assert len(restored) == 2
        assert restored.records[0].accuracy == 0.5
        assert restored.records[0].contributions == {0: 4, 1: 6}
        assert restored.records[1].accuracy is None
        assert restored.final_loss == 1.5


class TestCLI:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for figure in cli.FIGURES:
            assert figure in out

    def test_fig6_smoke_writes_artifacts(self, tmp_path, capsys):
        code = cli.main([
            "fig6", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "10",
        ])
        assert code == 0
        assert (tmp_path / "fig6_loss_vs_time.json").exists()
        assert (tmp_path / "fig6_k_traces.csv").exists()
        restored = load_figure(tmp_path / "fig6_k_traces.json")
        assert set(restored.labels()) == {"algorithm2", "algorithm3"}

    def test_fig1_smoke(self, tmp_path):
        code = cli.main([
            "fig1", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "10",
        ])
        assert code == 0
        assert (tmp_path / "fig1_post_switch_loss.json").exists()

    def test_fig4_smoke_writes_histories(self, tmp_path):
        code = cli.main([
            "fig4", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "15",
        ])
        assert code == 0
        assert (tmp_path / "fig4_loss_vs_time.csv").exists()
        assert (tmp_path / "fig4_contribution_cdf.json").exists()
        restored = load_history(tmp_path / "fig4_history_fab-top-k.json")
        assert len(restored) > 0

    def test_fig5_smoke(self, tmp_path):
        code = cli.main([
            "fig5", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "10",
        ])
        assert code == 0
        traces = load_figure(tmp_path / "fig5_k_traces.json")
        assert "proposed" in traces.labels()

    def test_fig7_smoke_writes_replays(self, tmp_path):
        code = cli.main([
            "fig7", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "8",
        ])
        assert code == 0
        assert (tmp_path / "fig7_k_traces.json").exists()
        replays = list(tmp_path.glob("fig7_replay_beta_*.json"))
        assert len(replays) == 4

    def test_comm_time_override(self, tmp_path):
        code = cli.main([
            "fig6", "--out", str(tmp_path), "--scale", "smoke",
            "--rounds", "8", "--comm-time", "3.5",
        ])
        assert code == 0

    def test_overrides_applied(self):
        config = cli.scaled_config("smoke", "fig5")
        assert config.with_overrides(num_rounds=7).num_rounds == 7

    def test_fig8_uses_cifar(self):
        config = cli.scaled_config("bench", "fig8")
        assert config.dataset == "cifar"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            cli.scaled_config("galactic", "fig4")

    def test_sweep_command_uses_cache(self, tmp_path, caplog):
        import logging

        argv = [
            "sweep", "--scale", "smoke", "--figures", "fig6",
            "--rounds", "4", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "artifacts"),
        ]
        # Sweep progress goes through the package logger, not stdout.
        with caplog.at_level(logging.INFO, logger="repro"):
            assert cli.main(argv) == 0
        assert "1 to compute" in caplog.text
        run_dir = tmp_path / "artifacts" / "fig6_smoke_seed0_serial"
        restored = load_figure(run_dir / "fig6_k_traces.json")
        assert set(restored.labels()) == {"algorithm2", "algorithm3"}
        caplog.clear()
        # The re-run must be served entirely from the results store.
        with caplog.at_level(logging.INFO, logger="repro"):
            assert cli.main(argv) == 0
        assert "1 cached, 0 to compute" in caplog.text

    def test_jobs_flag_implies_sharded_backend(self):
        args = cli.build_parser().parse_args(["fig4", "--jobs", "4"])
        assert args.jobs == 4 and args.backend is None
