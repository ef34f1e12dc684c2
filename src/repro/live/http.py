"""Minimal asyncio HTTP/1.1 front-end for a :class:`~repro.live.node.LiveNode`.

Hand-rolled on ``asyncio.start_server`` (the repo deliberately has no
web-framework dependency).  Good enough for the serving surface it
exposes — short-lived JSON requests from benchmarking tools and a
Prometheus scraper — not a general-purpose HTTP implementation.

Endpoints:

- ``GET /healthz``  — liveness: ``{"status": "ok"}`` (``"draining"``
  once shutdown has begun).
- ``GET /metrics``  — Prometheus text exposition from the node's
  :class:`~repro.telemetry.session.TelemetrySession` registry (with
  exemplar trace ids on histogram buckets when tracing flows).
- ``GET /metrics/history`` — the ring-buffered time-series store as
  JSON (``?since=<t>`` trims to points at or after ``t``); 404 until a
  scraper is configured.  ``repro top`` polls this.
- ``GET /stats``    — JSON snapshot of admission/completion counters,
  SLO burn windows, and scraper/alert state.
- ``POST /v1/infer`` — admit one request; body ``{"size": "medium"}``
  (optional; unknown fields are ignored); responds after completion
  with latency, batch size, cache tier, and per-span seconds.  A W3C
  ``traceparent`` header joins the caller's distributed trace; the
  response carries the server-side ``traceparent`` back.

Connections are ``Connection: close`` — one request per connection
keeps the parser trivial and the shutdown path enumerable.  Reading a
request head or body times out with a 408, and ``stop()`` closes every
connection still sending its request.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Dict, Optional, Set, Tuple

from .node import LiveNode, NodeShuttingDown

__all__ = ["LiveHttpServer"]

_MAX_HEADER_BYTES = 16384
_MAX_BODY_BYTES = 1 << 20
#: Seconds each read of a request (its head, then its body) may take.
_READ_TIMEOUT_SECONDS = 5.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class LiveHttpServer:
    """Serve a :class:`LiveNode` over HTTP on ``host:port``."""

    def __init__(self, node: LiveNode, host: str = "127.0.0.1", port: int = 8080) -> None:
        self.node = node
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connections blocked reading their request (``stop`` closes them).
        self._reading: Set[asyncio.StreamWriter] = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port) — resolves ``port=0``."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(self._handle, self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting connections and close those still sending their
        request (from 3.12 ``wait_closed()`` waits for every connection;
        ``close_clients()`` exists only from 3.13); handlers with a
        request in flight finish."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._reading):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._respond(reader, writer)
        except Exception as error:  # noqa: BLE001 - handler must not leak
            status, payload = 500, {"error": type(error).__name__, "detail": str(error)}
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        content_type = (
            "text/plain; version=0.0.4; charset=utf-8"
            if payload.get("_raw")
            else "application/json"
        )
        if "_raw" in payload:
            body = payload["_raw"].encode()
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read(self, writer: asyncio.StreamWriter, read: Awaitable) -> Any:
        """Await one read of the request under the read deadline."""
        self._reading.add(writer)
        try:
            return await asyncio.wait_for(read, _READ_TIMEOUT_SECONDS)
        finally:
            self._reading.discard(writer)

    async def _respond(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> Tuple[int, Dict[str, Any]]:
        try:
            request_line, headers = await self._read(writer, self._read_head(reader))
        except ValueError as error:
            return 400, {"error": "bad request", "detail": str(error)}
        except asyncio.TimeoutError:
            return 408, {"error": "request head not received in time"}
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}
        method, path, _version = parts
        path, _, query = path.partition("?")

        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok" if self.node.accepting else "draining"}
        if method == "GET" and path == "/metrics":
            return 200, {"_raw": self.node.prometheus_text()}
        if method == "GET" and path == "/metrics/history":
            return self._history(query)
        if method == "GET" and path == "/stats":
            return 200, self.node.stats()
        if path == "/v1/infer":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._infer(reader, writer, headers)
        if method not in ("GET", "POST"):
            return 405, {"error": f"method {method} not supported"}
        return 404, {"error": f"no route for {path}"}

    def _history(self, query: str) -> Tuple[int, Dict[str, Any]]:
        since: Optional[float] = None
        for part in query.split("&"):
            name, _, value = part.partition("=")
            if name == "since" and value:
                try:
                    since = float(value)
                except ValueError:
                    return 400, {"error": f"since must be a number, got {value!r}"}
        payload = self.node.history_dict(since=since)
        if payload is None:
            return 404, {"error": "no metrics scraper configured on this node"}
        return 200, payload

    async def _infer(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                     headers: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        digits = headers.get("content-length", "0") or "0"
        if not (digits.isascii() and digits.isdigit()):
            return 400, {"error": "Content-Length must be a decimal byte count"}
        # Compare lengths first: int() refuses strings of over 4300 digits.
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_BODY_BYTES)) or int(digits) > _MAX_BODY_BYTES:
            return 413, {"error": "body too large"}
        try:
            body = await self._read(writer, reader.readexactly(int(digits)))
        except asyncio.IncompleteReadError:
            return 400, {"error": "body shorter than Content-Length"}
        except asyncio.TimeoutError:
            return 408, {"error": "body not received in time"}
        if body:
            try:
                spec = json.loads(body)
            except (ValueError, RecursionError):  # bad JSON or UTF-8; nesting too deep
                return 400, {"error": "body must be JSON"}
            if not isinstance(spec, dict):
                return 400, {"error": "body must be a JSON object"}
        else:
            spec = {}
        size = spec.get("size", "medium")
        if not isinstance(size, str):
            return 400, {"error": "size must be a string"}
        traceparent = headers.get("traceparent")
        try:
            result = await self.node.infer(size=size, traceparent=traceparent)
        except NodeShuttingDown:
            self.node.rejected += 1
            return 503, {"error": "node is shutting down"}
        except ValueError as error:
            return 400, {"error": str(error)}
        return 200, result

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> Tuple[str, Dict[str, str]]:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            raise ValueError("truncated request head") from error
        except asyncio.LimitOverrunError as error:
            raise ValueError("request head too large") from error
        if len(raw) > _MAX_HEADER_BYTES:
            raise ValueError("request head too large")
        lines = raw.decode("latin-1").split("\r\n")
        request_line = lines[0]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return request_line, headers
