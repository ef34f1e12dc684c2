"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "alexnet"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.model == "resnet-50"
        assert args.preprocess_device == "gpu"

    def test_preprocess_device_flag(self):
        args = build_parser().parse_args(["run", "--preprocess-device", "cpu"])
        assert args.preprocess_device == "cpu"

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.nodes == 2
        assert args.downtimes == "0.01,0.02,0.05"
        assert args.deadline_ms == 250.0

    def test_cache_defaults(self):
        args = build_parser().parse_args(["cache"])
        assert args.skews == "0.0,0.8,1.2"
        assert args.cache_mb == "0,64,256"
        assert args.tiers == "image,tensor"
        assert args.policy == "lru"
        assert args.catalog == 200


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet-50" in out
        assert "faster-rcnn-face" in out

    def test_models_json_export(self, tmp_path, capsys):
        path = tmp_path / "zoo.json"
        assert main(["models", "--json", str(path)]) == 0
        rows = json.loads(path.read_text())
        assert any(r["name"] == "vit-base-16" for r in rows)

    def test_run(self, capsys):
        assert main(["run", "--model", "resnet-50", "--concurrency", "64"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "img/s" in out

    def test_run_trace_writes_perfetto_timeline(self, tmp_path, capsys):
        from repro.analysis.tracing import PID_DEVICES

        path = tmp_path / "run.trace.json"
        # 500 of the run's 2300 requests are traced; the rest are
        # reported as drops rather than silently truncated.
        with pytest.warns(UserWarning, match="trace limit 500 reached"):
            assert main([
                "run", "--model", "tinyvit-5m", "--concurrency", "64",
                "--trace", str(path),
            ]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert {"M", "X", "s", "f"} <= {e["ph"] for e in events}
        assert any(
            e["ph"] == "X" and e["pid"] == PID_DEVICES and "inference" in e["name"]
            for e in events
        )

    def test_run_csv_export(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        assert main([
            "run", "--model", "tinyvit-5m", "--concurrency", "64",
            "--csv", str(path),
        ]) == 0
        text = path.read_text()
        assert "throughput" in text.splitlines()[0]

    def test_breakdown(self, capsys):
        assert main(["breakdown", "--model", "resnet-50", "--size", "large"]) == 0
        out = capsys.readouterr().out
        assert "preprocessing" in out
        assert "cpu" in out and "gpu" in out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "--model", "resnet-50", "--concurrencies", "1,64",
        ]) == 0
        out = capsys.readouterr().out
        assert "c=1" in out and "c=64" in out

    def test_faces(self, capsys):
        assert main([
            "faces", "--brokers", "redis,fused", "--faces", "5",
            "--frames", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "redis" in out and "fused" in out

    def test_cache_rejects_unknown_tier_and_policy(self, capsys):
        assert main(["cache", "--tiers", "image,l2"]) == 2
        assert "unknown cache tier" in capsys.readouterr().err
        assert main(["cache", "--policy", "clock"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_cache_sweep_with_export(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        assert main([
            "cache", "--skews", "1.2", "--cache-mb", "0,64",
            "--tiers", "image,tensor", "--catalog", "50",
            "--concurrency", "16", "--warmup", "50", "--requests", "200",
            "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Throughput vs cache size" in out
        assert "off" in out and "64 MiB" in out
        rows = json.loads(path.read_text())
        assert len(rows) == 2
        off, warm = rows
        assert off["policy"] == "off" and "cache_image_hits" not in off
        assert warm["cache_mb"] == 64.0
        assert warm["cache_image_hits"] >= 0.0
        assert warm["cache_tensor_hit_rate"] >= 0.0

    def test_plan(self, capsys):
        assert main([
            "plan", "--model", "resnet-50", "--rate", "2000",
            "--slo-ms", "500", "--max-nodes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "nodes needed : 1" in out
        assert "p99 by fleet size" in out


class TestFacesPin:
    """`repro faces --json` rows, pinned byte for byte: closed-loop face
    runs with and without a workload (the workload sets the frame mix
    only; its arrivals are ignored)."""

    @pytest.mark.parametrize("argv, digest", [
        (["--brokers", "fused,redis", "--faces", "1,9", "--frames", "60"],
         "ebf8d6488fd0fe83de3bf031ec2f8ec9ef388bcbe1c2ee2a4e2aac3b3a788d3f"),
        (["--brokers", "kafka", "--faces", "5", "--frames", "60",
          "--workload", "constant:rate=50,zipf=1.0,catalog=16"],
         "1f44a5444c05bf6d403bef8c6fccdacf122ce3060a81285d67424f07d51aaa28"),
    ], ids=["brokers", "workload"])
    def test_json_rows_are_pinned(self, tmp_path, capsys, argv, digest):
        path = tmp_path / "faces.json"
        assert main(["faces", *argv, "--json", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestServeReplay:
    def test_runtime_reaches_the_replayed_deployment(self, tmp_path, capsys):
        rows = {}
        for runtime in ("tensorrt", "pytorch"):
            path = tmp_path / f"{runtime}.json"
            assert main([
                "serve", "--replay", "tests/workload/golden/day.jsonl.gz",
                "--model", "tinyvit-5m", "--requests", "60",
                "--max-seconds", "12000", "--fast-forward",
                "--runtime", runtime, "--json", str(path),
            ]) == 0
            rows[runtime] = json.loads(path.read_text())[0]
        assert rows["pytorch"]["sim_completed"] == rows["tensorrt"]["sim_completed"]
        # PyTorch eager runs the same model slower than a TensorRT engine.
        assert rows["pytorch"]["sim_p99_latency"] > rows["tensorrt"]["sim_p99_latency"]


class TestTelemetryCommand:
    def test_telemetry_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.scenario == "serve"
        assert args.slo_ms == 200.0
        assert args.target == 0.99
        assert args.trace_limit == 2000
        assert args.sample_every == 1

    def test_telemetry_run_with_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        prom = tmp_path / "run.prom"
        metrics_json = tmp_path / "run.metrics.json"
        code = main([
            "telemetry",
            "--requests", "200",
            "--warmup", "30",
            "--concurrency", "16",
            "--trace", str(trace),
            "--metrics", str(prom),
            "--metrics-json", str(metrics_json),
        ])
        assert code == 0  # generous default SLO is met
        out = capsys.readouterr().out
        assert "SLO compliance" in out
        assert "burn rate" in out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        text = prom.read_text()
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert json.loads(metrics_json.read_text())["metrics"]

    def test_faces_trace_has_a_counter_track_per_gauge(self, tmp_path, capsys):
        path = tmp_path / "faces.trace.json"
        # The default faces run scrapes more ticks than the 720-point
        # default ring holds; the objective is loose enough to be met.
        assert main([
            "telemetry", "--scenario", "faces", "--slo-ms", "10000",
            "--trace", str(path),
        ]) == 0
        points = {}
        for event in json.loads(path.read_text())["traceEvents"]:
            if event["ph"] == "C":
                points.setdefault(event["name"], []).append(event["ts"])
        assert min(len(stamps) for stamps in points.values()) > 720
        # One track per registry gauge child, none missing its start.
        assert {name: stamps[0] for name, stamps in points.items()} == {
            'repro_stage_queue_depth{stage="detect"}': 0.0,
            'repro_stage_queue_depth{stage="identify"}': 0.0,
            'repro_gpu_memory_used_bytes{gpu="0"}': 0.0,
            'repro_broker_depth{broker="redis"}': 0.0,
            "repro_slo_compliance_ratio": 0.0,
            "repro_slo_error_budget_consumed_ratio": 0.0,
        }

    def test_telemetry_exit_code_reflects_missed_slo(self, capsys):
        code = main([
            "telemetry",
            "--requests", "150",
            "--warmup", "20",
            "--concurrency", "16",
            "--slo-ms", "0.001",  # impossible objective
        ])
        assert code == 1
        assert "MISSED" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args([
            "workload", "synthesize", "--spec", "constant:rate=5,duration=2",
            "--out", "t.jsonl",
        ])
        assert args.action == "synthesize"
        assert args.seed == 0

    def test_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload"])

    def test_synthesize_describe_replay_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "day.jsonl.gz"
        assert main([
            "workload", "synthesize",
            "--spec", "flash:mean=40,at=5,len=3,peak=4,duration=12,zipf=1.0,catalog=16",
            "--out", str(trace), "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "sha256" in out

        assert main(["workload", "describe", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "digest" in out

        assert main([
            "workload", "replay", str(trace), "--warmup", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "phase" in out  # flash/day phase counters surfaced

    def test_describe_accepts_a_spec_string(self, capsys):
        assert main(["workload", "describe", "diurnal:mean=80,swing=0.4"]) == 0
        out = capsys.readouterr().out
        assert "arrivals.kind" in out

    def test_synthesize_rejects_unbounded_spec(self, tmp_path, capsys):
        assert main([
            "workload", "synthesize", "--spec", "constant:rate=5",
            "--out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "duration" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        assert main([
            "workload", "synthesize", "--spec", "bogus:rate=1",
            "--out", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_accepts_workload_flag(self, capsys):
        assert main([
            "sweep", "--workload", "constant:rate=400,duration=10",
            "--repeats", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "seed=0" in out and "seed=1" in out

    def test_sweep_rejects_bad_workload_spec(self, capsys):
        assert main(["sweep", "--workload", "bogus:rate=1"]) == 2
        assert "error" in capsys.readouterr().err
