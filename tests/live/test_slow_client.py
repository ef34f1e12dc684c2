"""A client that never finishes its request cannot hold a node open.

The client sends half a request head, or a head and a body shorter than
its ``Content-Length``, and then waits with its connection open.
``LiveHttpServer.stop()`` must close that connection and return at
once: from CPython 3.12 ``Server.wait_closed()`` waits for every open
connection.  A client that stays silent past the read deadline gets a
408.  Every exchange is bounded by ``asyncio.wait_for``.
"""

import asyncio

import pytest

import repro.live.http as http_module
from repro.core.config import ServerConfig
from repro.live import LiveHttpServer, LiveNode, LiveNodeConfig

TIMEOUT_SECONDS = 10.0
HALF_HEAD = b"POST /v1/infer HTTP/1.1\r\nHost: x\r\n"
SHORT_BODY = b"POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}"
PARTIAL = pytest.mark.parametrize("raw", [HALF_HEAD, SHORT_BODY],
                                  ids=["half-head", "short-body"])


def _serve(scenario):
    """Run ``scenario(server)`` against a fresh node, bounded in time."""

    async def main():
        node = LiveNode(LiveNodeConfig(
            server=ServerConfig(model="tinyvit-5m", preprocess_device="gpu"),
            time_scale=1.0, grace_seconds=2.0,
        ))
        server = LiveHttpServer(node, port=0)
        node.start()
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), TIMEOUT_SECONDS)
        finally:
            await server.stop()
            await node.shutdown()

    return asyncio.run(main())


async def _read_all(reader) -> bytes:
    try:
        return await reader.read()
    except ConnectionError:
        return b""


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


@PARTIAL
def test_stop_closes_a_half_open_connection(raw):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(*server.address)
        try:
            writer.write(raw)
            await writer.drain()
            while not server._reading:  # the handler is waiting for the rest
                await asyncio.sleep(0.01)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await server.stop()
            elapsed = loop.time() - started
            return elapsed, await _read_all(reader)
        finally:
            await _close(writer)

    elapsed, answer = _serve(scenario)
    assert elapsed < 1.0
    assert answer == b""  # closed; no request arrived, so none is answered


@PARTIAL
def test_silent_client_gets_408(raw, monkeypatch):
    monkeypatch.setattr(http_module, "_READ_TIMEOUT_SECONDS", 0.2)

    async def scenario(server):
        reader, writer = await asyncio.open_connection(*server.address)
        try:
            writer.write(raw)
            await writer.drain()
            return await _read_all(reader)
        finally:
            await _close(writer)

    assert _serve(scenario).startswith(b"HTTP/1.1 408 Request Timeout\r\n")
