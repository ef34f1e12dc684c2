"""Tests for the JSONL(+gzip) trace record/replay format."""

import gzip
import json
import re

import pytest

import repro.workload.trace as trace_module
from repro.workload import (
    TRACE_FORMAT,
    TraceEvent,
    TraceMeta,
    describe_trace,
    read_trace,
    read_trace_meta,
    trace_digest,
    write_trace,
)

EVENTS = [
    TraceEvent(0.25, phase="night"),
    TraceEvent(1.5, key=3, user=7, state="burst", phase="day"),
    TraceEvent(1.5, key=0, user=7, state="burst", phase="day"),
    TraceEvent(9.75, key=12, phase="flash"),
]


def trace_text(path):
    data = path.read_bytes()
    return (gzip.decompress(data) if path.suffix == ".gz" else data).decode()


def write_text(path, text):
    data = text.encode()
    path.write_bytes(gzip.compress(data) if path.suffix == ".gz" else data)


def write_sample(path, events=None):
    meta = TraceMeta(name="sample", seed=11, duration_seconds=10.0,
                     workload={"name": "sample"})
    return write_trace(str(path), meta, events if events is not None else EVENTS)


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_events_round_trip(self, tmp_path, suffix):
        path = tmp_path / f"trace{suffix}"
        count = write_sample(path)
        assert count == len(EVENTS)
        meta, events = read_trace(str(path))
        assert meta.name == "sample"
        assert meta.seed == 11
        assert meta.duration_seconds == 10.0
        assert list(events) == EVENTS

    def test_header_carries_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_sample(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == TRACE_FORMAT

    def test_read_meta_only(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_sample(path)
        meta = read_trace_meta(str(path))
        assert meta.name == "sample"
        assert meta.workload == {"name": "sample"}

    def test_nulls_omitted_from_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_sample(path, [TraceEvent(0.5, phase="day")])
        line = json.loads(path.read_text().splitlines()[1])
        assert set(line) == {"t", "p"}


class TestDeterminism:
    def test_same_events_same_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl.gz"
        b = tmp_path / "b.jsonl.gz"
        write_sample(a)
        write_sample(b)
        # Byte-identical even though the output *paths* differ — the
        # gzip header embeds neither filename nor mtime.
        assert a.read_bytes() == b.read_bytes()

    def test_digest_ignores_compression(self, tmp_path):
        plain = tmp_path / "t.jsonl"
        packed = tmp_path / "t.jsonl.gz"
        write_sample(plain)
        write_sample(packed)
        assert trace_digest(str(plain)) == trace_digest(str(packed))
        assert plain.read_bytes() == gzip.decompress(packed.read_bytes())

    def test_digest_changes_with_content(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_sample(a)
        write_sample(b, EVENTS[:-1])
        assert trace_digest(str(a)) != trace_digest(str(b))


class TestValidation:
    def test_rejects_time_travel(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError):
            write_sample(path, [TraceEvent(5.0), TraceEvent(4.0)])

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "other-format"}\n')
        with pytest.raises(ValueError):
            read_trace(str(path))

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    @pytest.mark.parametrize("bad", ['{"t": 1.5, "k": ', '{"k": 3}', '[1.5]',
                                     '{"t": "soon"}'])
    def test_malformed_event_names_file_and_line(self, tmp_path, suffix, bad):
        path = tmp_path / f"t{suffix}"
        write_sample(path)
        lines = trace_text(path).splitlines()
        # Header, two events, a blank line, then the bad line 5.
        lines[3:3] = [""]
        lines[4] = bad
        write_text(path, "\n".join(lines) + "\n")
        _, events = read_trace(str(path))
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: ")):
            list(events)

    def test_time_travel_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = TraceMeta(name="sample").to_line()
        path.write_text(header + '\n{"t":5.0}\n{"t":4.0}\n{"t":6.0}\n')
        _, events = read_trace(str(path))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*4.0"):
            list(events)

    def test_errors_count_lines_across_chunks(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        count = 3 * trace_module._CHUNK_CHARS // len('{"t":0.0}\n')
        write_sample(path, [TraceEvent(float(i)) for i in range(count)])
        lines = trace_text(path).splitlines()
        bad = count - 7  # line bad + 1 of the file holds event bad
        lines[bad] = '{"t":%r}' % (bad - 2.5)
        write_text(path, "\n".join(lines) + "\n")
        _, events = read_trace(str(path))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{bad + 1}: ")):
            list(events)

    def test_reading_holds_no_file_open_until_iterated(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl.gz"
        write_sample(path)
        opened = []

        def recording_open(name):
            handle = real_open(name)
            opened.append(handle)
            return handle

        real_open = trace_module._open_text
        monkeypatch.setattr(trace_module, "_open_text", recording_open)
        meta, events = read_trace(str(path))
        assert meta.name == "sample"
        assert len(opened) == 1 and opened[0].closed
        assert next(events) == EVENTS[0]
        assert len(opened) == 2 and not opened[1].closed
        assert list(events) == EVENTS[1:]
        assert opened[1].closed


class TestDescribe:
    def test_describe_counts_everything(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_sample(path)
        stats = describe_trace(str(path))
        assert stats["events"] == 4
        assert stats["first_t"] == 0.25
        assert stats["last_t"] == 9.75
        assert stats["phases"] == {"day": 2, "flash": 1, "night": 1}
        assert stats["session_states"] == {"burst": 2}
        assert stats["users"] == 1
        assert stats["distinct_items"] == 3
        assert stats["digest"] == trace_digest(str(path))
