"""Malformed ``POST /v1/infer`` requests get a 4xx, never a 500.

Each request goes to a fresh node over a real socket.  The client
half-closes after sending, so a body shorter than its
``Content-Length`` ends in EOF rather than a wait, and every exchange
is bounded by ``asyncio.wait_for``.  A node may answer 4xx or close the
connection (it closes after a 413 without reading the body); it may
answer 200 only when a fuzzed request happens to be valid.
"""

import asyncio
import json
import string
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ServerConfig
from repro.live import LiveHttpServer, LiveNode, LiveNodeConfig
from repro.live.http import _MAX_BODY_BYTES

TIMEOUT_SECONDS = 10.0
VALID_TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"


def _request(body: bytes, content_length: Optional[str] = "auto",
             traceparent: Optional[str] = None) -> bytes:
    head = "POST /v1/infer HTTP/1.1\r\nHost: t\r\n"
    if content_length == "auto":
        content_length = str(len(body))
    if content_length is not None:
        head += f"Content-Length: {content_length}\r\n"
    if traceparent is not None:
        head += f"traceparent: {traceparent}\r\n"
    return (head + "\r\n").encode("latin-1") + body


async def _send(host: str, port: int, raw: bytes) -> Optional[int]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        try:
            writer.write(raw)
            await writer.drain()
            writer.write_eof()
        except ConnectionError:
            pass  # answered and closed before reading everything
        data = await reader.read()
    except ConnectionError:
        return None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return int(data.split(b" ", 2)[1]) if data else None


def _exchange(raw: bytes) -> Optional[int]:
    """Status a fresh node answers ``raw`` with; ``None`` if it closed."""

    async def main() -> Optional[int]:
        node = LiveNode(LiveNodeConfig(
            server=ServerConfig(model="tinyvit-5m", preprocess_device="gpu"),
            time_scale=1.0, grace_seconds=2.0,
        ))
        server = LiveHttpServer(node, port=0)
        node.start()
        await server.start()
        try:
            return await asyncio.wait_for(_send(*server.address, raw), TIMEOUT_SECONDS)
        finally:
            await server.stop()
            await node.shutdown()

    return asyncio.run(main())


@pytest.mark.parametrize("raw, status", [
    (_request(b"", content_length="abc"), 400),
    (_request(b"", content_length="-5"), 400),
    (_request(b"{}", content_length="10"), 400),
    (_request(b'{"size": [1]}'), 400),
    (_request(b"[" * 100_000 + b"]" * 100_000), 400),
    (_request(b"", content_length=str(_MAX_BODY_BYTES + 1)), 413),
    (_request(b"", content_length="9" * 5000), 413),
], ids=["length-not-a-number", "negative-length", "short-body", "unhashable-size",
        "nested-100k-deep", "length-over-limit", "length-of-5000-digits"])
def test_malformed_request_gets_4xx(raw, status):
    assert _exchange(raw) == status


def _padded(size: int) -> bytes:
    """A valid request body of exactly ``size`` bytes."""
    body = b'{"size": "small"}'
    return body + b" " * (size - len(body))


_latin1 = st.text(st.characters(codec="latin-1", exclude_characters="\r\n"), max_size=40)
_hex = st.text(alphabet="0123456789abcdefABCDEFxyz-", max_size=40)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=12,
)
_specs = st.fixed_dictionaries({}, optional={
    "size": _json_values | st.sampled_from(["small", "medium", "large", ""]),
    "extra": _json_values,  # unknown fields are ignored
})
_bodies = st.one_of(
    st.binary(max_size=64),
    _json_values.map(lambda value: json.dumps(value).encode()),
    _specs.map(lambda spec: json.dumps(spec).encode()),
    # Malformed JSON: a valid object cut short.
    st.tuples(_specs, st.integers(min_value=1)).map(
        lambda pair: json.dumps(pair[0]).encode()[: -(1 + pair[1] % 8)]),
    # Nested too deep for the parser.
    st.integers(min_value=900, max_value=50_000).map(lambda depth: b"[" * depth + b"]" * depth),
    # Around the body limit.
    st.integers(min_value=_MAX_BODY_BYTES - 2, max_value=_MAX_BODY_BYTES + 2).map(_padded),
)
_lengths = st.one_of(
    st.just("auto"),
    st.none(),
    st.integers(min_value=-10, max_value=2 * _MAX_BODY_BYTES).map(str),
    st.text(alphabet=string.digits + " +-_.exabc", min_size=1, max_size=12),
    _latin1,
)
_traceparents = st.one_of(
    st.none(),
    st.just(VALID_TRACEPARENT[:-1]),
    st.builds("-".join, st.lists(_hex, min_size=1, max_size=5)),
    _latin1,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(body=_bodies, content_length=_lengths, traceparent=_traceparents)
def test_fuzzed_infer_never_answers_500(body, content_length, traceparent):
    status = _exchange(_request(body, content_length, traceparent))
    assert status is None or status == 200 or 400 <= status < 500, status
