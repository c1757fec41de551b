"""Synthetic consensus-flap generator: determinism, shape, validity."""

import gzip
import hashlib
import os
import time

import pytest

from repro.sim.blocks import DEPART, JOIN
from repro.traces.reader import stream_trace_blocks
from repro.traces.source import get_trace_source
from repro.traces.synthetic import (
    SyntheticFlapSpec,
    synthetic_flap_blocks,
    synthetic_flap_rows,
    write_flap_csv,
)

SPEC = SyntheticFlapSpec(
    relays=30,
    duration=120.0,
    seed=9,
    mean_uptime=20.0,
    mean_downtime=10.0,
    diurnal_amplitude=0.5,
    diurnal_period=120.0,
)


class TestRows:
    def test_deterministic(self):
        assert list(synthetic_flap_rows(SPEC)) == list(synthetic_flap_rows(SPEC))

    def test_time_sorted_within_duration(self):
        rows = list(synthetic_flap_rows(SPEC))
        assert rows
        times = [t for t, _, _ in rows]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] <= SPEC.duration

    def test_each_relay_alternates_join_depart(self):
        seen = {}
        for _, kind, ident in synthetic_flap_rows(SPEC):
            expected = JOIN if seen.get(ident, DEPART) == DEPART else DEPART
            assert kind == expected, ident
            seen[ident] = kind
        assert len(seen) >= SPEC.relays // 2  # most relays came up

    def test_event_count_near_expectation(self):
        big = SyntheticFlapSpec(
            relays=300, duration=600.0, seed=3,
            mean_uptime=30.0, mean_downtime=15.0, diurnal_period=600.0,
        )
        count = sum(1 for _ in synthetic_flap_rows(big))
        assert 0.5 * big.expected_events < count < 1.5 * big.expected_events


class TestBlocksAndCsv:
    def test_blocks_match_rows(self):
        rows = list(synthetic_flap_rows(SPEC))
        blocks = list(synthetic_flap_blocks(SPEC, block_size=64))
        flat = [
            (t, k, i)
            for b in blocks
            for t, k, i in zip(b.times.tolist(), b.kinds.tolist(), b.idents)
        ]
        assert flat == rows
        assert all(len(b) <= 64 for b in blocks)
        assert all(b.sessions is None for b in blocks)

    def test_csv_streams_back_identically(self, tmp_path):
        path = tmp_path / "flap.csv.gz"
        count = write_flap_csv(path, SPEC)
        rows = list(synthetic_flap_rows(SPEC))
        assert count == len(rows)
        # origin=0 keeps absolute times (the default rebases to the
        # first row, as replay phases want).
        streamed = [
            (t, k, i)
            for b in stream_trace_blocks(path, origin=0.0)
            for t, k, i in zip(b.times.tolist(), b.kinds.tolist(), b.idents)
        ]
        assert len(streamed) == count
        for (t, k, i), (et, ek, ei) in zip(streamed, rows):
            assert t == pytest.approx(et, abs=1e-6)  # 6-decimal CSV times
            assert k == ek
            assert i == ei


#: SHA-256 of the decompressed text of generated traces, recorded with
#: one numpy call per draw and one ``csv.writer`` row per trace row:
#: chunked draws and once-escaped ident cells must not move a byte.
GOLDEN_TEXT_SHA256 = {
    "synthetic-flap-ci": (
        "f430f594c13a8aeac7ae9dbee614800573a7b32b30570b3fa20e22bc22fbb9c3"
    ),
    # an ident prefix the csv module must quote and escape
    "quoted-prefix": (
        "08887146f006ae57c6a2d76194380986cee23db1ee094ab64a8911555c5704f7"
    ),
}

QUOTED_SPEC = SyntheticFlapSpec(
    relays=12, duration=90.0, seed=3, mean_uptime=10.0, mean_downtime=5.0,
    diurnal_period=90.0, ident_prefix='a,"b',
)


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "name, spec",
        [
            ("synthetic-flap-ci", get_trace_source("synthetic-flap-ci").synthetic),
            ("quoted-prefix", QUOTED_SPEC),
        ],
    )
    def test_decompressed_text_is_pinned(self, tmp_path, name, spec):
        path = tmp_path / "flap.csv.gz"
        write_flap_csv(path, spec)
        text = gzip.decompress(path.read_bytes())
        assert hashlib.sha256(text).hexdigest() == GOLDEN_TEXT_SHA256[name]

    def test_quoted_ident_reads_back(self, tmp_path):
        path = tmp_path / "flap.csv"
        write_flap_csv(path, QUOTED_SPEC)
        read = [i for block in stream_trace_blocks(path) for i in block.idents]
        assert read == [i for _, _, i in synthetic_flap_rows(QUOTED_SPEC)]
        assert read[0].startswith('a,"b-')

    def test_gzip_bytes_ignore_temp_name_and_clock(self, tmp_path, monkeypatch):
        out = []
        for run, clock in enumerate((1.0e9, 2.0e9)):
            target = tmp_path / f"run{run}" / "flap.csv.gz"
            target.parent.mkdir()
            # Temp files are named by pid (and thread): two processes
            # write under two names, at two wall-clock times.
            monkeypatch.setattr(os, "getpid", lambda run=run: 1000 + run)
            monkeypatch.setattr(time, "time", lambda clock=clock: clock)
            write_flap_csv(target, SPEC)
            out.append(target.read_bytes())
            assert [p.name for p in target.parent.iterdir()] == ["flap.csv.gz"]
        assert out[0] == out[1]
        # gzip header: no FLG.FNAME (no name stored), zero MTIME.
        assert out[0][3] == 0
        assert out[0][4:8] == bytes(4)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relays": 0},
            {"duration": 0.0},
            {"mean_uptime": -1.0},
            {"uptime_shape": 0.0},
            {"diurnal_amplitude": 1.0},
            {"diurnal_period": 0.0},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticFlapSpec(**kwargs)
