"""Streaming trace reader: parity with a per-event reference, bounded chunks."""

import gzip

import numpy as np
import pytest

from repro.churn.traces import save_trace_csv
from repro.sim.blocks import DEPART, JOIN, ChurnBlock, blocks_from_events
from repro.traces.reader import (
    TraceBlockStream,
    peek_trace_origin,
    stream_trace_blocks,
)
from tests.reference_sim import load_trace_events


def _fixture_blocks(rng, n=300):
    """A sorted mixed trace: joins with/without sessions, named departs."""
    times = np.sort(rng.uniform(5.0, 400.0, size=n))
    kinds = (rng.random(n) < 0.4).astype(np.uint8)
    sessions = np.where(kinds == JOIN, rng.exponential(50.0, size=n), np.nan)
    sessions[rng.random(n) < 0.3] = np.nan  # some session-less joins
    idents = [
        f"id-{i % 40}" if r < 0.7 else None
        for i, r in enumerate(rng.random(n))
    ]
    return [ChurnBlock(times, kinds, sessions=sessions, idents=idents)]


def _write_trace(path, blocks):
    save_trace_csv(path, blocks)
    return path


def _structure(blocks):
    return [
        (
            b.times.tolist(),
            b.kinds.tolist(),
            None if b.sessions is None else b.sessions.tolist(),
            b.idents,
        )
        for b in blocks
    ]


def _assert_same_structure(got, expected):
    got, expected = _structure(got), _structure(expected)
    assert len(got) == len(expected)
    for (tt, tk, ts, ti), (et, ek, es, ei) in zip(got, expected):
        assert tt == et
        assert tk == ek
        assert ti == ei
        if es is None:
            assert ts is None
        else:
            assert ts == pytest.approx(es, nan_ok=True)


class TestStreamVsEager:
    def test_identical_blocks_to_eager_path(self, rng, tmp_path):
        path = _write_trace(tmp_path / "t.csv", _fixture_blocks(rng))
        reference = list(blocks_from_events(load_trace_events(path)))
        # origin=0 keeps absolute times, matching the reference loader;
        # the default rebases to the first row (what replay phases want).
        streamed = list(stream_trace_blocks(path, origin=0.0))
        _assert_same_structure(streamed, reference)

    def test_rebase_scale_clip_match_eager_semantics(self, rng, tmp_path):
        path = _write_trace(tmp_path / "t.csv", _fixture_blocks(rng))
        events = sorted(load_trace_events(path), key=lambda e: e.time)
        origin = events[0].time
        start, scale, duration = 100.0, 0.5, 80.0
        expected = []
        for event in events:
            t = (event.time - origin) * scale
            if t > duration:
                break
            expected.append(start + t)
        got = []
        for block in stream_trace_blocks(
            path, start=start, time_scale=scale, duration=duration
        ):
            got.extend(block.times.tolist())
        assert got == expected
        assert got[0] == start

    def test_chunking_matches_block_size(self, rng, tmp_path):
        path = _write_trace(tmp_path / "t.csv", _fixture_blocks(rng, n=250))
        blocks = list(stream_trace_blocks(path, block_size=64))
        assert [len(b) for b in blocks] == [64, 64, 64, 58]


class TestReaderContract:
    def test_unsorted_trace_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time,kind,ident,session\n"
            "5.0,join,a,\n"
            "2.0,join,b,\n"
        )
        with pytest.raises(ValueError, match="line 3.*time-sorted"):
            list(stream_trace_blocks(path))

    def test_short_row_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind,ident,session\n12.5,join,relay-3\n")
        with pytest.raises(ValueError, match="line 2.*expected 4 cells"):
            list(stream_trace_blocks(path))

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind,ident,session\n1.0,jump,a,\n")
        with pytest.raises(ValueError, match="unknown event kind"):
            list(stream_trace_blocks(path))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("abc,join,a,", "line 3: time 'abc' is not a number"),
            ("2.0,join,a,soon", "line 3: session 'soon' is not a number"),
        ],
    )
    def test_non_numeric_cell_raises_with_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,kind,ident,session\n1.0,join,a,\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv: {message}"):
            list(stream_trace_blocks(path))

    def test_non_numeric_origin_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind,ident,session\n\nt0,join,a,\n")
        with pytest.raises(
            ValueError, match="bad.csv: line 3: time 't0' is not a number"
        ):
            peek_trace_origin(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,k,i,s\n1.0,join,a,\n")
        with pytest.raises(ValueError, match="unexpected trace header"):
            list(stream_trace_blocks(path))

    def test_empty_file_raises_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="missing CSV header"):
            list(stream_trace_blocks(path))

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,kind,ident,session\n")
        assert list(stream_trace_blocks(path)) == []
        assert peek_trace_origin(path) is None

    def test_gzip_round_trip(self, rng, tmp_path):
        blocks = _fixture_blocks(rng, n=100)
        plain = _write_trace(tmp_path / "t.csv", blocks)
        gz = tmp_path / "t.csv.gz"
        save_trace_csv(gz, blocks)
        with open(plain, "rb") as handle:
            plain_bytes = handle.read()
        with gzip.open(gz, "rb") as handle:
            assert handle.read() == plain_bytes
        _assert_same_structure(
            list(stream_trace_blocks(gz)), list(stream_trace_blocks(plain))
        )


class TestTraceBlockStream:
    def test_reiterable_and_bounds(self, rng, tmp_path):
        path = _write_trace(tmp_path / "t.csv", _fixture_blocks(rng))
        part = TraceBlockStream(path, start=10.0, duration=200.0)
        first = [b.times.tolist() for b in part]
        second = [b.times.tolist() for b in part]
        assert first and first == second
        assert part.t_begin == 10.0
        assert part.t_end_bound == 210.0
        assert not part.empty

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,kind,ident,session\n")
        part = TraceBlockStream(path)
        assert part.empty
        assert list(part) == []
