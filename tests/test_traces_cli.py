"""The ``python -m repro traces`` CLI: offline, cache-redirected."""

import pytest

from repro.traces.cli import main
from tests.reference_sim import load_trace_events


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def test_help_and_unknown_command(capsys):
    assert main(["--help"]) == 0
    assert "fetch" in capsys.readouterr().out
    assert main(["bogus"]) == 2
    assert "unknown traces command" in capsys.readouterr().out


def test_list_shows_registry_and_cache(capsys, cache_dir):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "tor-relay-flap" in out
    assert "synthetic-flap-ci" in out
    assert str(cache_dir) in out


def test_fetch_generates_synthetic_offline(capsys, cache_dir):
    assert main(["fetch", "synthetic-flap-ci"]) == 0
    out = capsys.readouterr().out
    assert "synthetic-flap-ci" in out
    assert list(cache_dir.glob("synthetic-flap-ci-*.csv.gz"))


def test_fetch_requires_names(cache_dir):
    with pytest.raises(SystemExit, match="at least one"):
        main(["fetch"])


def test_unknown_name_and_missing_file_exit_cleanly(cache_dir):
    # Typos get the curated registry message, not a traceback.
    with pytest.raises(SystemExit, match="choose from"):
        main(["fetch", "bogus"])
    with pytest.raises(SystemExit, match="cannot resolve"):
        main(["stats", "missing.csv"])


def test_stats_streams_packaged_fixture(capsys, cache_dir):
    assert main(["stats", "tor-relay-flap"]) == 0
    out = capsys.readouterr().out
    assert "joins:         97" in out
    assert "departures:    86" in out
    assert "peak joins/1s:" in out


def test_stats_honors_duration_clip(capsys, cache_dir):
    assert main(["stats", "tor-relay-flap", "--duration", "100"]) == 0
    full = main(["stats", "tor-relay-flap"])
    out = capsys.readouterr().out
    assert full == 0
    # The clipped run printed first; both runs are in the buffer, and
    # the clipped event count must be smaller than the full 183.
    first, second = out.split("trace:")[1:]
    clipped = int(first.split("events:")[1].split()[0])
    total = int(second.split("events:")[1].split()[0])
    assert 0 < clipped < total == 183


def test_convert_gz_round_trip(capsys, cache_dir, tmp_path):
    assert main(["fetch", "synthetic-flap-ci"]) == 0
    dst = tmp_path / "flat.csv"
    assert main(["convert", "synthetic-flap-ci", str(dst)]) == 0
    events = load_trace_events(dst)
    assert len(events) > 100
    again = tmp_path / "again.csv.gz"
    assert main(["convert", str(dst), str(again)]) == 0
    assert [e.time for e in load_trace_events(again)] == [e.time for e in events]


@pytest.mark.parametrize("existing", [False, True])
def test_convert_failing_mid_stream_leaves_no_torn_target(
    cache_dir, tmp_path, existing
):
    # More rows than one reader block, then a regression: the reader
    # raises after the writer has already taken a full block.
    rows = [f"{t}.0,join,r{t},\n" for t in range(5000)] + ["1.0,join,late,\n"]
    src = tmp_path / "bad.csv"
    src.write_text("time,kind,ident,session\n" + "".join(rows))
    dst = tmp_path / "out" / "copy.csv.gz"
    dst.parent.mkdir()
    if existing:
        dst.write_bytes(b"previous")
    with pytest.raises(SystemExit, match="line 5002.*time-sorted"):
        main(["convert", str(src), str(dst)])
    if existing:
        assert dst.read_bytes() == b"previous"
    assert [p.name for p in dst.parent.iterdir()] == (
        ["copy.csv.gz"] if existing else []
    )


def test_convert_requires_src_and_dst(cache_dir):
    with pytest.raises(SystemExit, match="convert requires"):
        main(["convert", "only-one"])


@pytest.mark.parametrize(
    "command, flag, value, noun",
    [
        ("stats", "--time-scale", "abc", "a number"),
        ("stats", "--duration", "soon", "a number"),
        ("convert", "--block-size", "x", "an integer"),
    ],
)
def test_non_numeric_option_names_the_flag(
    cache_dir, tmp_path, command, flag, value, noun
):
    refs = ["tor-relay-flap"]
    if command == "convert":
        refs.append(str(tmp_path / "out.csv"))
    with pytest.raises(SystemExit) as exc:
        main([command, *refs, flag, value])
    assert str(exc.value) == f"{flag} expects {noun}, got '{value}'"
