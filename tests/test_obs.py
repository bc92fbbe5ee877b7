"""Telemetry subsystem tests.

Four layers of guarantees:

1. **Schema** — every event type validates its required fields; unknown
   types, missing fields, and unknown engine phases are rejected.
2. **Sinks and facade** — JSONL append semantics, numpy coercion,
   counter/event/flush behaviour, and the no-op ``NullTelemetry``.
3. **Zero-overhead-when-disabled** — a structural proof: a raising
   ``NullTelemetry`` subclass rides through full training runs without
   a single telemetry method doing work, so the disabled path is exactly
   one attribute check per site.
4. **End-to-end traces** — a traced run emits schema-valid events
   covering every engine phase, the trace-report rollup matches a golden
   snapshot of the deterministic fields, and pool/virtual counters
   surface from the sharded backend and virtual federations.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.data.synthetic import make_femnist_like
from repro.data.virtual import VirtualFederation
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.obs import (
    ENGINE_PHASES,
    EVENT_TYPES,
    NULL_TELEMETRY,
    JsonlSink,
    MemoryAggregator,
    NullTelemetry,
    Telemetry,
    configure_cli_logging,
    encode_event,
    format_trace_report,
    get_logger,
    open_telemetry,
    summarize_trace,
    validate_event,
)
from repro.parallel.sharded import ShardedBackend
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK

from helpers import make_gaussian_blobs, make_logistic, partition_iid

GOLDEN_REPORT = (
    pathlib.Path(__file__).parent / "data" / "golden_trace_report.json"
)

#: one schema-valid instance of every event type
VALID_EVENTS = {
    "round": {
        "type": "round", "round": 1, "k": 9.0, "round_time": 2.0,
        "cumulative_time": 2.0, "participants": 6, "uplink_elements": 9,
        "downlink_elements": 9, "uplink_bytes": 864, "downlink_bytes": 144,
        "wall_seconds": 0.01, "phases": {"sample": 0.001, "eval": 0.002},
    },
    "span": {"type": "span", "name": "collect", "seconds": 0.5,
             "process": "parent"},
    "drop": {"type": "drop", "round": 3, "client_ids": [1, 4],
             "deadline": 2.5, "close_time": 2.5},
    "recovery": {"type": "recovery", "round": 5, "client_ids": [4]},
    "probe": {"type": "probe", "round": 2, "k_continuous": 14.2,
              "probe_k": 15, "loss_prev": 1.2, "loss_now": 1.1,
              "loss_probe": 1.05},
    "deadline": {"type": "deadline", "round": 4, "deadline": 3.0,
                 "arrived": 5, "dropped": 1, "round_time": 3.0},
    "flagged": {"type": "flagged", "round": 6, "client_ids": [2],
                "detector": "trimmed_mean", "scores": [0.75]},
    "counters": {"type": "counters", "counters": {"pool.ipc_bytes_out": 10}},
}


class TestEventSchema:
    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_valid_event_passes(self, kind):
        validate_event(VALID_EVENTS[kind])

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_extra_fields_allowed(self, kind):
        validate_event({**VALID_EVENTS[kind], "figure": "fig4",
                        "method": "fab-top-k"})

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_missing_required_field_rejected(self, kind):
        for field in EVENT_TYPES[kind]:
            broken = dict(VALID_EVENTS[kind])
            del broken[field]
            with pytest.raises(ValueError, match="missing"):
                validate_event(broken)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"type": "mystery"})
        # No run emits alerts: the health monitor holds them.
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"type": "alert", "round": 7,
                            "detector": "divergence",
                            "severity": "critical", "message": "NaN"})
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"name": "no type at all"})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_event(["round"])

    def test_unknown_phase_rejected(self):
        broken = dict(VALID_EVENTS["round"])
        broken["phases"] = {"sample": 0.1, "quantum_leap": 0.2}
        with pytest.raises(ValueError, match="unknown engine phases"):
            validate_event(broken)
        broken["phases"] = [0.1, 0.2]
        with pytest.raises(ValueError, match="phases"):
            validate_event(broken)


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(VALID_EVENTS["span"])
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == VALID_EVENTS["span"]

    def test_jsonl_appends_across_instances(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            sink = JsonlSink(path)
            sink.write(VALID_EVENTS["recovery"])
            sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_jsonl_creates_parent_directories(self, tmp_path):
        sink = JsonlSink(tmp_path / "deep" / "down" / "trace.jsonl")
        sink.write(VALID_EVENTS["span"])
        sink.close()
        assert (tmp_path / "deep" / "down" / "trace.jsonl").exists()

    def test_encode_event_coerces_numpy_scalars(self):
        line = encode_event({
            "type": "span", "name": "x",
            "seconds": np.float64(0.25), "count": np.int64(3),
        })
        assert json.loads(line) == {
            "type": "span", "name": "x", "seconds": 0.25, "count": 3,
        }

    def test_encode_event_rejects_unserializable(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_event({"type": "span", "obj": object()})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_encode_event_rejects_non_finite_floats(self, bad):
        # The emit-site coercion is the contract; allow_nan=False is the
        # backstop that turns a slipped-through NaN/inf into a loud
        # error instead of a silently invalid ``Infinity`` JSONL token.
        with pytest.raises(ValueError):
            encode_event({"type": "round", "loss": bad})

    def test_aggregator_rollup(self):
        agg = MemoryAggregator()
        for kind in sorted(EVENT_TYPES):
            agg.add(VALID_EVENTS[kind])
        summary = agg.summary()
        assert summary["events"] == {k: 1 for k in sorted(EVENT_TYPES)}
        assert summary["rounds"] == 1
        assert summary["phases"] == ["eval", "sample"]
        assert summary["uplink_elements"] == 9
        assert summary["uplink_bytes"] == 864
        assert summary["downlink_bytes"] == 144
        assert summary["dropped_uploads"] == 2
        assert summary["recovered_clients"] == 1
        assert summary["span_seconds"] == {"collect": 0.5}
        assert summary["counters"] == {"pool.ipc_bytes_out": 10}
        assert summary["span_seconds_by_process"] == {
            "parent": {"collect": 0.5}
        }
        assert summary["flagged"] == {
            "events": 1,
            "by_detector": {"trimmed_mean": 1},
            "top_clients": [[2, 1]],
        }
        assert "alerts" not in summary

    def test_aggregator_ranks_flagged_offenders(self):
        agg = MemoryAggregator()
        for round_index, cids in enumerate(([3], [3, 5], [3, 5], [9])):
            agg.add({"type": "flagged", "round": round_index,
                     "client_ids": cids, "detector": "krum",
                     "scores": [0.5] * len(cids)})
        flagged = agg.summary()["flagged"]
        assert flagged["events"] == 4
        assert flagged["by_detector"] == {"krum": 4}
        # Worst offender first; count ties break by client id.
        assert flagged["top_clients"] == [[3, 3], [5, 2], [9, 1]]

    def test_worker_spans_roll_up_by_process(self):
        agg = MemoryAggregator()
        for process, seconds in (("worker-0", 0.25), ("worker-1", 0.5),
                                 ("worker-0", 0.25), ("parent", 1.0)):
            agg.add({"type": "span", "name": "worker.gradients",
                     "seconds": seconds, "process": process})
        summary = agg.summary()
        assert summary["span_seconds_by_process"] == {
            "parent": {"worker.gradients": 1.0},
            "worker-0": {"worker.gradients": 0.5},
            "worker-1": {"worker.gradients": 0.5},
        }
        assert summary["span_seconds"] == {"worker.gradients": 2.0}

    def test_jsonl_sink_is_a_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.write(VALID_EVENTS["span"])
        assert len(path.read_text().splitlines()) == 1
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                raise RuntimeError("mid-run failure")
        assert sink._file.closed


class TestTelemetryFacade:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("a")
        tel.count("a", 4)
        assert tel.counters == {"a": 5}

    def test_annotations_ride_on_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        tel.annotate(figure="fig4", method="fab-top-k")
        tel.event("span", name="x", seconds=0.1)
        # Events are validated before reaching the sink.
        with pytest.raises(ValueError, match="missing"):
            tel.event("span", name="unfinished")
        tel.close()
        assert [json.loads(line) for line in path.read_text().splitlines()] \
            == [{"type": "span", "figure": "fig4", "method": "fab-top-k",
                 "name": "x", "seconds": 0.1, "process": "parent"}]

    def test_flush_snapshots_and_resets(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        tel.count("pool.ipc_bytes_out", 128)
        tel.flush()
        assert tel.counters == {}
        tel.flush()  # empty flush emits nothing
        tel.count("pool.ipc_bytes_out", 64)
        tel.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["type"] for e in events] == ["counters", "counters"]
        assert events[0] == {"type": "counters",
                             "counters": {"pool.ipc_bytes_out": 128}}
        # Delta semantics: the second snapshot never double-counts.
        assert events[1]["counters"] == {"pool.ipc_bytes_out": 64}
        # The report sums the deltas back to the true total.
        assert summarize_trace(path)["counters"] == {
            "pool.ipc_bytes_out": 192
        }

    def test_open_telemetry(self, tmp_path):
        assert open_telemetry(None) is NULL_TELEMETRY
        assert open_telemetry("") is NULL_TELEMETRY
        tel = open_telemetry(str(tmp_path / "trace.jsonl"))
        assert tel.enabled
        tel.close()

    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        assert not null.enabled
        null.count("x")
        null.event("round")  # no validation, no storage
        null.annotate(figure="fig1")
        null.flush()
        null.close()
        assert not NULL_TELEMETRY.enabled


class _RaisingNull(NullTelemetry):
    """Disabled telemetry that fails loudly if any site does work anyway.

    ``enabled`` stays False; every recording method raises.  A training
    run that completes with this attached proves the disabled path never
    calls past the ``telemetry.enabled`` check.
    """

    def _forbidden(self, *args, **kwargs):
        raise AssertionError("telemetry work on the disabled path")

    count = event = _forbidden


def _trainer(backend, telemetry=None, seed=5):
    ds = make_femnist_like(num_writers=6, samples_per_writer=16,
                           num_classes=8, image_size=8, classes_per_writer=4,
                           seed=seed)
    fed = partition_iid(ds, num_clients=6, seed=seed)
    model = make_mlp(64, 8, hidden=(10,), seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, FABTopK(), timing=timing,
                     learning_rate=0.05, batch_size=8, eval_every=3,
                     seed=seed, backend=backend, telemetry=telemetry)


class TestDisabledPath:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_disabled_run_does_no_telemetry_work(self, backend):
        trainer = _trainer(backend, telemetry=_RaisingNull())
        trainer.run(4, k=10)
        trainer.close()

    def test_disabled_run_does_no_telemetry_work_sharded(self):
        trainer = _trainer(ShardedBackend(jobs=2), telemetry=_RaisingNull())
        trainer.run(3, k=10)
        trainer.close()

    def test_default_engine_telemetry_is_the_shared_null(self):
        trainer = _trainer("serial")
        assert trainer.engine.telemetry is NULL_TELEMETRY
        trainer.close()


def _golden_traced_run(trace_path):
    """The pinned deterministic run behind the golden trace report."""
    telemetry = Telemetry(sink=JsonlSink(trace_path))
    ds = make_gaussian_blobs(num_samples=240, num_classes=4, feature_dim=12,
                             separation=3.0, seed=7)
    fed = partition_iid(ds, num_clients=6, seed=7)
    model = make_logistic(12, 4, seed=7)
    timing = TimingModel(dimension=model.dimension, comm_time=8.0)
    trainer = FLTrainer(model, fed, FABTopK(), timing=timing,
                        learning_rate=0.1, batch_size=8, eval_every=3,
                        seed=7, telemetry=telemetry)
    trainer.run(6, k=9)
    telemetry.close()
    return trainer


def _deterministic_subset(summary):
    """The summary minus its wall-clock fields (which vary run to run)."""
    return {
        key: value for key, value in summary.items()
        if key not in ("phase_seconds", "wall_seconds", "span_seconds",
                       "span_seconds_by_process")
    }


class TestTraceReport:
    def test_traced_run_matches_golden_report(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _golden_traced_run(trace)
        summary = summarize_trace(trace)
        golden = json.loads(GOLDEN_REPORT.read_text())
        assert _deterministic_subset(summary) == golden

    def test_round_events_cover_every_engine_phase(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _golden_traced_run(trace)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        rounds = [e for e in events if e["type"] == "round"]
        assert len(rounds) == 6
        for event in rounds:
            assert set(event["phases"]) == set(ENGINE_PHASES)
            assert all(s >= 0.0 for s in event["phases"].values())
            # NaN losses serialize as null, never as bare NaN.
            assert event["loss"] is None or isinstance(event["loss"], float)

    def test_report_renders_the_rollup(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _golden_traced_run(trace)
        report = format_trace_report(summarize_trace(trace))
        assert "trace summary" in report
        assert "rounds:   6" in report
        assert "phase wall-clock" in report
        for phase in ENGINE_PHASES:
            assert phase in report
        assert "uplink:" in report and "downlink:" in report

    def test_summarize_rejects_corrupt_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "name": "x", "seconds": 0.1,'
                       ' "process": "parent"}\n'
                       "not json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            summarize_trace(bad)
        bad.write_text('{"type": "span", "name": "only"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            summarize_trace(bad)
        bad.write_bytes(b"\n\xc3\x28\n")  # not UTF-8
        with pytest.raises(ValueError, match="bad.jsonl:2: not valid JSON"):
            summarize_trace(bad)

    def test_empty_trace_reports_no_events(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        report = format_trace_report(summarize_trace(empty))
        assert "events:   none" in report.splitlines()

    def test_pre_change_trace_lines(self, tmp_path):
        # A counters line that still carries the old, always-empty
        # ``gauges`` field validates (extra keys are allowed); an
        # ``alert`` line, a kind no run emits, fails naming its line.
        old = tmp_path / "old.jsonl"
        old.write_text(
            '{"type": "counters", "counters": {"a": 2}, "gauges": {}}\n'
            '{"type": "alert", "round": 7, "detector": "divergence",'
            ' "severity": "critical", "message": "non-finite loss"}\n'
        )
        with pytest.raises(ValueError,
                           match="old.jsonl:2: unknown event type: 'alert'"):
            summarize_trace(old)
        old.write_text(old.read_text().splitlines()[0] + "\n")
        assert summarize_trace(old)["counters"] == {"a": 2}

    def test_trace_report_cli_missing_file_exits_2(self, tmp_path, capsys):
        from repro import cli

        missing = tmp_path / "missing.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["trace-report", str(missing)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read {missing}" in err
        assert "Traceback" not in err

    def test_trace_report_cli_malformed_line_exits_2(self, tmp_path, capsys):
        from repro import cli

        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(VALID_EVENTS["span"]) + "\nnot json\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["trace-report", str(bad)])
        assert exit_info.value.code == 2
        assert f"error: {bad}:2: not valid JSON" in capsys.readouterr().err

    def test_trace_report_cli(self, tmp_path, capsys):
        from repro import cli

        trace = tmp_path / "trace.jsonl"
        _golden_traced_run(trace)
        assert cli.main(["trace-report", str(trace)]) == 0
        assert "trace summary" in capsys.readouterr().out
        assert cli.main(["trace-report", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rounds"] == 6


class TestInstrumentationCounters:
    def test_sharded_pool_counters_surface(self, tmp_path):
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        trainer = _trainer(ShardedBackend(jobs=2), telemetry=telemetry)
        trainer.run(3, k=10)
        trainer.close()
        telemetry.close()
        counters = summarize_trace(tmp_path / "trace.jsonl")["counters"]
        assert counters["pool.ipc_bytes_out"] > 0
        assert counters["pool.ipc_bytes_back"] > 0
        # No probe rounds here, so nothing but gradients came back and
        # all of them through shared memory: 3 rounds x 6 clients.
        assert counters["pool.shm_bytes_back"] == \
            counters["pool.ipc_bytes_back"] == \
            3 * 6 * trainer.model.dimension * 8
        assert counters["pool.model_broadcast_seconds"] >= 0.0
        assert counters["pool.weights_broadcast_seconds"] >= 0.0
        assert counters["pool.register_array"] == 6
        requests = [name for name in counters
                    if name.startswith("pool.worker") and
                    name.endswith(".requests")]
        assert len(requests) == 2
        assert sum(counters[name] for name in requests) == 3 * 2

    def test_virtual_lru_counters_surface(self, monkeypatch):
        monkeypatch.setattr(VirtualFederation, "CACHE_SIZE", 2)
        telemetry = Telemetry()
        fed = VirtualFederation.build(
            population=10, samples_per_client=6,
            num_classes=4, image_size=8, classes_per_writer=2, seed=3,
        )
        fed.telemetry = telemetry
        for cid in range(4):  # 4 regenerations, 2 evictions at CACHE_SIZE=2
            fed.client_dataset(cid).x
        fed.client_dataset(3).x  # resident: pure LRU hit
        counters = telemetry.counters
        assert counters["virtual.regenerate"] == 4
        assert counters["virtual.lru_evict"] == 2
        assert counters["virtual.lru_hit"] >= 1


class TestLogging:
    def test_package_logger_has_null_handler(self):
        import logging

        import repro  # noqa: F401 — import installs the handler

        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler)
                   for h in root.handlers)

    def test_get_logger_names(self):
        assert get_logger().name == "repro"
        assert get_logger("cli").name == "repro.cli"

    def test_configure_cli_logging_is_idempotent(self):
        import logging

        root = logging.getLogger("repro")
        before = list(root.handlers)
        configure_cli_logging(verbose=False)
        configure_cli_logging(verbose=True)
        added = [h for h in root.handlers if h not in before]
        assert len(added) <= 1
        assert root.level == logging.DEBUG
        configure_cli_logging(verbose=False)
        assert root.level == logging.INFO


class TestHealthMonitor:
    def _round(self, i, loss, participants=6, dropped=0, phases=None):
        return {
            "type": "round", "round": i, "k": 9.0, "round_time": 2.0,
            "cumulative_time": 2.0 * i, "loss": loss, "participants":
            participants, "dropped": dropped, "uplink_elements": 9,
            "downlink_elements": 9, "uplink_bytes": 144,
            "downlink_bytes": 144, "wall_seconds": 0.01,
            "phases": phases or {"local_steps": 0.001},
        }

    def test_clean_run_raises_nothing(self):
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        for i in range(1, 20):
            assert monitor.observe(self._round(i, 1.0 / i)) == []
        summary = monitor.summary()
        assert summary["healthy"] and summary["alerts"] == []
        assert summary["rounds_observed"] == 19

    def test_nan_loss_raises_divergence(self):
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        monitor.observe(self._round(1, 0.9))
        alerts = monitor.observe(self._round(2, float("nan")))
        assert len(alerts) == 1
        assert alerts[0]["detector"] == "divergence"
        assert alerts[0]["severity"] == "critical"
        assert alerts[0]["round"] == 2
        assert "non-finite" in alerts[0]["message"]
        # Latched: a second NaN round does not re-alert.
        assert monitor.observe(self._round(3, float("nan"))) == []

    def test_loss_explosion_raises_divergence(self):
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        for i in range(1, 5):
            assert monitor.observe(self._round(i, 1.0)) == []
        alerts = monitor.observe(self._round(5, 1.0e4))
        assert [a["detector"] for a in alerts] == ["divergence"]

    def test_none_loss_rounds_are_ignored(self):
        # The engine serializes NaN (non-evaluated) losses as null.
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        for i in range(1, 10):
            assert monitor.observe(self._round(i, None)) == []
        assert monitor.summary()["healthy"]

    def test_drop_rate_accumulation_alarm(self):
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        alerts = []
        for i in range(1, 8):
            # 5/(4+5) ≈ 0.56 of all scheduled uploads dropped.
            alerts += monitor.observe(
                self._round(i, 0.5, participants=4, dropped=5)
            )
        assert [a["detector"] for a in alerts] == ["drop_rate"]
        assert alerts[0]["severity"] == "warning"

    def test_drop_rate_uses_scheduled_upload_denominator(self):
        # ``participants`` counts post-gate survivors, so the rate is
        # dropped/(participants+dropped) — a heavy-drop trace must stay
        # bounded in [0, 1] instead of dividing by survivors only
        # (9 dropped / 1 survivor would read as 900%).
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        alerts = []
        for i in range(1, 8):
            alerts += monitor.observe(
                self._round(i, 0.5, participants=1, dropped=9)
            )
        assert [a["detector"] for a in alerts] == ["drop_rate"]
        rate = alerts[0]["dropped"] / alerts[0]["participants"]
        assert 0.0 <= rate <= 1.0
        assert alerts[0]["participants"] == alerts[0]["dropped"] + 5

    def test_drop_rate_exactly_at_threshold_does_not_alert(self):
        # The detector fires on strictly-greater-than, so a run sitting
        # exactly at the 0.5 threshold (3 dropped vs 3 survivors) stays
        # quiet however long it runs.
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        for i in range(1, 30):
            assert monitor.observe(
                self._round(i, 0.5, participants=3, dropped=3)
            ) == []
        assert monitor.summary()["healthy"]

    def test_flagged_accumulation_alarm(self):
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        alerts = []
        for i in range(1, 5):
            alerts += monitor.observe({
                "type": "flagged", "round": i, "client_ids": [7, i],
                "detector": "trimmed_mean", "scores": [0.9, 0.1],
            })
        assert [a["detector"] for a in alerts] == ["flagged_accumulation"]
        assert alerts[0]["client_id"] == 7
        assert alerts[0]["times_flagged"] == 3

    def test_stall_detection_robust_zscore(self, monkeypatch):
        from repro.obs import HealthMonitor, health
        from repro.obs.health import robust_zscore

        assert robust_zscore(1.0, []) == 0.0
        assert robust_zscore(5.0, [1.0, 1.0, 1.0]) == 0.0  # MAD degenerate
        history = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98]
        assert robust_zscore(10.0, history) > 8.0

        monkeypatch.setattr(health, "STALL_MIN_SECONDS", 0.05)
        monitor = HealthMonitor()
        alerts = []
        for i in range(1, 12):
            seconds = 2.0 if i == 11 else 0.1 + 0.001 * (i % 3)
            alerts += monitor.observe(
                self._round(i, 0.5, phases={"local_steps": seconds})
            )
        assert [a["detector"] for a in alerts] == ["stall"]
        assert alerts[0]["phase"] == "local_steps"

    def test_latching_is_per_subject(self, monkeypatch):
        # Each (detector, subject) pair alerts exactly once: two stalled
        # phases raise two alerts, and repeating either stays silent.
        from repro.obs import HealthMonitor, health

        monkeypatch.setattr(health, "STALL_MIN_SECONDS", 0.05)
        monitor = HealthMonitor()
        alerts = []
        for i in range(1, 11):
            jitter = 0.1 + 0.001 * (i % 3)
            alerts += monitor.observe(self._round(
                i, 0.5, phases={"local_steps": jitter, "aggregate": jitter}
            ))
        assert alerts == []
        for i in range(11, 14):  # every later round stalls both phases
            alerts += monitor.observe(self._round(
                i, 0.5, phases={"local_steps": 5.0, "aggregate": 5.0}
            ))
        assert sorted(a["phase"] for a in alerts) == \
            ["aggregate", "local_steps"]
        assert all(a["detector"] == "stall" for a in alerts)

    def test_eval_phase_excluded_from_stall(self, monkeypatch):
        from repro.obs import HealthMonitor, health

        monkeypatch.setattr(health, "STALL_MIN_SECONDS", 0.0)
        monitor = HealthMonitor()
        alerts = []
        for i in range(1, 15):
            # eval is bimodal by design: cadence rounds vs skipped rounds.
            seconds = 3.0 if i % 3 == 0 else 0.001
            alerts += monitor.observe(
                self._round(i, 0.5, phases={"eval": seconds})
            )
        assert alerts == []

    def test_trace_report_flags_injected_nan_loss(self, tmp_path):
        trace = tmp_path / "nan.jsonl"
        rows = [self._round(i, 1.0) for i in range(1, 4)]
        rows.append(self._round(4, float("nan")))
        # json.dumps writes bare NaN tokens — exactly the third-party
        # trace shape the report must survive (our sink never does).
        trace.write_text("".join(json.dumps(r) + "\n" for r in rows))
        summary = summarize_trace(trace)["health"]
        assert not summary["healthy"]
        assert summary["by_detector"] == {"divergence": 1}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
    def test_infinite_loss_round_trips_as_strict_json(self, tmp_path):
        # End to end through the real engine and a real JsonlSink: a run
        # whose loss diverges to +inf must still write parseable strict
        # JSONL (no bare ``Infinity`` token) and the replayed trace must
        # raise the divergence alert.
        path = tmp_path / "trace.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        trainer = _trainer("serial", telemetry=tel)
        trainer.step(9)
        # Blow the weights up so the next evaluated loss (round 3 under
        # eval_every=3) is non-finite.
        trainer.model.set_weights(
            np.full(trainer.model.dimension, 1e300)
        )
        trainer.step(9)
        trainer.step(9)
        tel.close()
        trainer.close()
        rounds = []
        for line in path.read_text().splitlines():
            record = json.loads(line, parse_constant=pytest.fail)
            if record["type"] == "round":
                rounds.append(record)
        diverged = [r for r in rounds if r.get("loss_nonfinite")]
        assert diverged and diverged[-1]["loss"] is None
        summary = summarize_trace(path)["health"]
        assert not summary["healthy"]
        assert summary["by_detector"]["divergence"] == 1

    def test_trace_report_health_section(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _golden_traced_run(trace)
        summary = summarize_trace(trace)
        assert summary["health"]["healthy"]
        assert summary["health"]["alerts"] == []
        report = format_trace_report(summary)
        assert "health:   OK" in report

        bad = tmp_path / "bad.jsonl"
        rows = [self._round(i, 1.0) for i in range(1, 4)]
        rows.append(self._round(4, float("nan")))
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        summary = summarize_trace(bad)
        assert not summary["health"]["healthy"]
        report = format_trace_report(summary)
        assert "divergence" in report and "[critical]" in report


class TestExceptionSafety:
    def test_mid_run_raise_still_flushes_buffered_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = open_telemetry(str(path))
        trainer = _trainer("serial", telemetry=tel)
        with pytest.raises(RuntimeError, match="mid-run"):
            try:
                with tel:
                    trainer.run(2, k=10)
                    tel.count("driver.units", 1)
                    raise RuntimeError("mid-run failure")
            finally:
                trainer.close()
        assert tel.sink._file.closed
        events = [json.loads(l) for l in path.read_text().splitlines()]
        kinds = [e["type"] for e in events]
        assert "round" in kinds
        # close() on the exception path flushed the pending counters.
        assert kinds[-1] == "counters"
        assert events[-1]["counters"]["driver.units"] == 1

    def test_driver_closes_telemetry_when_backend_teardown_fails(
        self, tmp_path, monkeypatch
    ):
        """All ten driver loops (fig7 and fig8 share one) tear down
        through ``ExperimentRun``; one looping test rather than a
        parametrized one so its id stays what the floor list names."""
        from repro.experiments import runner
        from repro.experiments.adversary import run_adversary_panel
        from repro.experiments.assumption2 import run_assumption2
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig1 import run_fig1
        from repro.experiments.fig4 import run_fig4
        from repro.experiments.fig5 import run_fig5
        from repro.experiments.fig6 import run_fig6
        from repro.experiments.fig7 import run_fig7
        from repro.experiments.scenario import (
            run_async_comparison,
            run_deadline_adaptation,
            run_scenario,
        )

        real_build = runner.build_backend

        def exploding_build(config):
            backend = real_build(config)
            original_close = backend.close

            def close():
                original_close()
                raise RuntimeError("backend teardown failed")

            backend.close = close
            return backend

        real_telemetry = runner.build_telemetry
        opened = []

        def recording_telemetry(config):
            opened.append(real_telemetry(config))
            return opened[-1]

        monkeypatch.setattr(runner, "build_backend", exploding_build)
        monkeypatch.setattr(runner, "build_telemetry", recording_telemetry)
        smoke = ExperimentConfig.smoke().with_overrides(num_rounds=2)
        drivers = {
            "fig1": lambda c: run_fig1(c, pre_ks=[20], post_rounds=1),
            "fig4": run_fig4,
            "fig5": lambda c: run_fig5(c, policies=("proposed",)),
            "fig6": run_fig6,
            "fig7": lambda c: run_fig7(c, comm_times=(1.0,)),
            "scenario": run_scenario,
            "deadline": run_deadline_adaptation,
            "async": run_async_comparison,
            "adversary": lambda c: run_adversary_panel(
                c, fractions=(0.5,), aggregators=("mean",),
                regimes=("sparse",),
            ),
            "assumption2": lambda c: run_assumption2(
                c, k_grid=[20], num_bands=1
            ),
        }
        for name, driver in drivers.items():
            path = tmp_path / f"{name}.jsonl"
            with pytest.raises(RuntimeError, match="teardown failed"):
                driver(smoke.with_overrides(telemetry=str(path)))
            # The sink was flushed and closed despite the backend failure.
            assert opened.pop().sink._file.closed, name
            events = [json.loads(l) for l in path.read_text().splitlines()]
            assert any(e["type"] == "round" for e in events), name
        assert opened == []


class TestConfigThreading:
    def test_config_round_trips_telemetry(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.smoke().with_overrides(
            telemetry="results/trace.jsonl"
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="telemetry"):
            ExperimentConfig.smoke().with_overrides(telemetry=7)

    def test_cli_exposes_telemetry_flags(self):
        from repro import cli

        parser = cli.build_parser()
        args = parser.parse_args(
            ["scenario", "--telemetry", "t.jsonl", "--verbose"]
        )
        assert args.telemetry == "t.jsonl"
        assert args.verbose
        args = parser.parse_args(["sweep", "--telemetry", "t.jsonl"])
        assert args.telemetry == "t.jsonl"
        args = parser.parse_args(["trace-report", "t.jsonl", "--json"])
        assert args.trace_file == "t.jsonl"
        assert args.json


class TestTracedScenarioSmoke:
    def test_traced_scenario_smoke(self, tmp_path, capsys):
        """A 3-round churn scenario over a virtual population, traced to
        one JSONL: once sharded (pool IPC/broadcast counters), once serial
        (virtual-LRU counters).  Every event validates, every round event
        covers every engine phase, the counter snapshots hold the pool and
        virtual families, and the sharded leg ships `worker.gradients`
        spans from both workers, merged into the parent's stream."""
        from repro import cli

        trace = tmp_path / "trace.jsonl"
        for out, backend in (("sharded", ["--jobs", "2"]),
                             ("serial", ["--backend", "serial"])):
            assert cli.main([
                "scenario", "--out", str(tmp_path / out), "--scale", "smoke",
                "--rounds", "3", "--population", "2000", *backend,
                "--telemetry", str(trace),
            ]) == 0
        assert cli.main(["trace-report", str(trace)]) == 0
        assert "trace summary" in capsys.readouterr().out

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events, "trace is empty"
        for event in events:
            validate_event(event)
        rounds = [e for e in events if e["type"] == "round"]
        assert rounds, "no round events"
        for event in rounds:
            assert set(event["phases"]) == set(ENGINE_PHASES), event["round"]
            assert event["uplink_bytes"] > 0 and event["downlink_bytes"] > 0
        counters = {}
        for event in events:
            if event["type"] == "counters":
                counters.update(event["counters"])
        for needed in ("pool.ipc_bytes_out", "pool.ipc_bytes_back",
                       "pool.model_broadcast_seconds", "virtual.regenerate"):
            assert needed in counters, needed
        worker_spans = [e for e in events if e["type"] == "span"
                        and e["process"].startswith("worker-")]
        assert len({e["process"] for e in worker_spans}) == 2
        for event in worker_spans:
            assert event["name"] == "worker.gradients"
            assert event["clients"] > 0 and event["seconds"] >= 0.0
