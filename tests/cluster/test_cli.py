"""CLI coverage for ``repro cluster``."""

import json

from repro.cli import main


def test_cluster_command_runs_and_exports(tmp_path, capsys):
    out = tmp_path / "cluster.json"
    code = main([
        "cluster", "--cells", "4", "--nodes-per-cell", "2", "--shards", "2",
        "--rate", "80", "--duration", "2", "--slo-ms", "250",
        "--per-shard", "--json", str(out),
    ])
    assert code == 0
    shown = capsys.readouterr().out
    assert "8 (4 cells x 2)" in shown
    assert "per-shard" in shown
    rows = json.loads(out.read_text())
    assert rows[0]["shard_count"] == 2
    assert rows[0]["completed"] > 0
    assert rows[0]["slo_met"] is True


def test_cluster_command_replays_traces(tmp_path, capsys):
    trace = tmp_path / "mini.jsonl.gz"
    assert main([
        "workload", "synthesize",
        "--spec", "constant:rate=60,duration=2", "--out", str(trace),
    ]) == 0
    capsys.readouterr()
    assert main(["cluster", "--cells", "2", "--nodes-per-cell", "1",
                 "--workload", str(trace)]) == 0
    assert "completed" in capsys.readouterr().out


def test_cluster_workers_flag_is_not_the_sweep_flag(capsys):
    """--workers 0 means one worker per shard (process mode default)."""
    code = main([
        "cluster", "--cells", "2", "--nodes-per-cell", "1",
        "--shards", "2", "--execution", "process",
        "--rate", "40", "--duration", "1",
    ])
    assert code == 0
    assert "process, 2 worker(s)" in capsys.readouterr().out


def test_cluster_trace_and_timeseries_exports(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    series = tmp_path / "day.jsonl"
    code = main([
        "cluster", "--cells", "4", "--nodes-per-cell", "1",
        "--routing", "round_robin", "--rate", "40", "--duration", "4",
        "--slo-ms", "250",
        "--trace-out", str(trace), "--trace-sessions", "2",
        "--timeseries-out", str(series), "--timeseries-interval", "2",
    ])
    assert code == 0
    shown = capsys.readouterr().out
    assert "trace events" in shown and "time series" in shown
    data = json.loads(trace.read_text())
    assert data["traceEvents"]
    assert series.exists() and series.read_text().strip()
