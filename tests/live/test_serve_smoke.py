"""Subprocess smoke test: ``python -m repro serve`` end to end.

Boots the live server as a real subprocess, sends HTTP requests with
urllib, scrapes ``/metrics`` through the telemetry round-trip parser,
then delivers SIGINT and asserts a graceful drain and a zero exit —
the same sequence the CI live-serve smoke job runs.  A second case
holds a connection that never finishes its request across the SIGINT;
the server must still exit.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.telemetry.exposition import parse_prometheus_text

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture()
def serve_proc():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--model", "tinyvit-5m", "--grace-seconds", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO_ROOT,
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _await_ready(proc, timeout=60.0):
    """Read stdout until the ready line; return the bound port."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"serve exited before ready (rc={proc.poll()})")
        if "http://" in line:
            return int(line.split("http://", 1)[1].split("/")[0].split(":")[1].split()[0])
    raise AssertionError("timed out waiting for the ready line")


def _get(port, path, timeout=15):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout).read()


def _infer(port):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/infer",
        data=json.dumps({"size": "small"}).encode(),
        headers={"Content-Type": "application/json"},
    )
    return json.loads(urllib.request.urlopen(request, timeout=20).read())


def test_serve_post_scrape_sigint(serve_proc):
    port = _await_ready(serve_proc)

    # POST a few inference requests.
    for _ in range(3):
        body = _infer(port)
        assert body["outcome"] == "ok"
        assert body["latency_seconds"] > 0

    assert json.loads(_get(port, "/healthz"))["status"] == "ok"
    stats = json.loads(_get(port, "/stats"))
    assert stats["completed"] == 3

    # /metrics must round-trip through the exposition parser.
    families = parse_prometheus_text(_get(port, "/metrics").decode())
    assert "repro_requests_completed_total" in families

    # SIGINT: graceful drain, summary on stdout, exit 0.
    serve_proc.send_signal(signal.SIGINT)
    out, _ = serve_proc.communicate(timeout=30)
    assert serve_proc.returncode == 0, out
    assert "draining" in out
    assert "served 3 requests" in out


def test_serve_exits_on_sigint_with_an_idle_client(serve_proc):
    port = _await_ready(serve_proc)
    assert _infer(port)["outcome"] == "ok"
    # Half a request head, then silence, with the connection held open.
    with socket.create_connection(("127.0.0.1", port), timeout=15) as idle:
        idle.sendall(b"POST /v1/infer HTTP/1.1\r\nHost: x\r\n")
        time.sleep(0.5)
        serve_proc.send_signal(signal.SIGINT)
        out, _ = serve_proc.communicate(timeout=30)
    assert serve_proc.returncode == 0, out
    assert "served 1 requests" in out
