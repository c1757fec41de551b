"""Trace sources: registry, cache, offline fetch with SHA-256 verify."""

import sys
import threading
from pathlib import Path

import pytest

from repro.traces.io import file_sha256
from repro.traces.source import (
    PACKAGED_DATA_DIR,
    TOR_RELAY_FLAP_SHA256,
    TraceSource,
    fetch_trace,
    get_trace_source,
    register_trace,
    resolve_trace,
    trace_cache_dir,
    trace_source_names,
)
from repro.traces.synthetic import SyntheticFlapSpec, write_flap_csv


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


SMALL_SPEC = SyntheticFlapSpec(
    relays=20, duration=60.0, seed=5, mean_uptime=10.0, mean_downtime=5.0,
    diurnal_period=60.0,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = trace_source_names()
        assert "tor-relay-flap" in names
        assert "synthetic-flap-ci" in names
        assert "synthetic-flap-xl" in names

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="tor-relay-flap"):
            get_trace_source("nope")

    def test_duplicate_registration_rejected(self):
        source = get_trace_source("tor-relay-flap")
        with pytest.raises(ValueError, match="already registered"):
            register_trace(source)
        assert register_trace(source, replace=True) is source

    def test_exactly_one_backing_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            TraceSource(name="x")
        with pytest.raises(ValueError, match="exactly one"):
            TraceSource(name="x", packaged="a.csv", url="file:///b.csv")

    def test_events_hint_only_for_synthetic(self):
        assert get_trace_source("tor-relay-flap").events_hint is None
        assert get_trace_source("synthetic-flap-ci").events_hint > 0


class TestPackaged:
    def test_fetch_verifies_and_returns_packaged_path(self):
        path = fetch_trace("tor-relay-flap")
        assert path == PACKAGED_DATA_DIR / "tor_relay_flap.csv"
        assert file_sha256(path) == TOR_RELAY_FLAP_SHA256

    def test_resolve_by_name_and_by_filename(self):
        assert resolve_trace("tor-relay-flap").name == "tor_relay_flap.csv"
        assert resolve_trace("tor_relay_flap.csv").exists()


class TestSynthetic:
    def test_generated_on_demand_into_cache(self, cache_dir):
        source = register_trace(
            TraceSource(name="tiny-flap", synthetic=SMALL_SPEC), replace=True
        )
        path = resolve_trace("tiny-flap")
        assert path == source.cached_path()
        assert path.parent == cache_dir
        assert path.name.startswith("tiny-flap-")
        assert path.exists()

    def test_spec_change_misses_stale_cache(self, cache_dir):
        import dataclasses

        old = register_trace(
            TraceSource(name="tiny-flap", synthetic=SMALL_SPEC), replace=True
        )
        old_path = fetch_trace("tiny-flap")
        new = register_trace(
            TraceSource(
                name="tiny-flap",
                synthetic=dataclasses.replace(SMALL_SPEC, seed=6),
            ),
            replace=True,
        )
        new_path = fetch_trace("tiny-flap")
        # The edited spec lands in its own cache entry -- the stale
        # bytes are never replayed.
        assert new_path != old_path
        assert file_sha256(new_path) != file_sha256(old_path)
        assert new.cached_path() == new_path

    def test_deterministic_and_force_regenerates_same_bytes(self, cache_dir):
        register_trace(
            TraceSource(name="tiny-flap", synthetic=SMALL_SPEC), replace=True
        )
        first = file_sha256(fetch_trace("tiny-flap"))
        again = file_sha256(fetch_trace("tiny-flap"))
        forced = file_sha256(fetch_trace("tiny-flap", force=True))
        assert first == again == forced

    def test_threads_generating_one_source_leave_one_whole_file(
        self, cache_dir, tmp_path
    ):
        # Service jobs run in threads of one process: each write needs
        # its own temp file, or the threads interleave into one.
        spec = SyntheticFlapSpec(
            relays=300, duration=600.0, seed=8, mean_uptime=20.0,
            mean_downtime=10.0, diurnal_period=600.0,
        )
        write_flap_csv(tmp_path / "reference.csv.gz", spec)
        register_trace(
            TraceSource(name="threaded-flap", synthetic=spec), replace=True
        )
        errors = []

        def fetch():
            try:
                fetch_trace("threaded-flap", force=True)
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fetch) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        path = get_trace_source("threaded-flap").cached_path()
        assert path.read_bytes() == (tmp_path / "reference.csv.gz").read_bytes()
        assert [p.name for p in cache_dir.iterdir()] == [path.name]

    def test_sha_pin_enforced(self, cache_dir):
        source = register_trace(
            TraceSource(
                name="tiny-flap-pinned", synthetic=SMALL_SPEC, sha256="0" * 64
            ),
            replace=True,
        )
        with pytest.raises(ValueError, match="SHA-256 mismatch"):
            fetch_trace("tiny-flap-pinned")
        # The corrupt-by-definition file was removed, not left behind.
        assert not source.cached_path().exists()

    def test_corrupt_cache_entry_self_heals(self, cache_dir):
        # Pin the real hash, then corrupt the cached file: the next
        # fetch must discard it and regenerate, not fail forever.
        register_trace(
            TraceSource(name="tiny-flap", synthetic=SMALL_SPEC), replace=True
        )
        good_sha = file_sha256(fetch_trace("tiny-flap"))
        source = register_trace(
            TraceSource(
                name="tiny-flap", synthetic=SMALL_SPEC, sha256=good_sha
            ),
            replace=True,
        )
        path = source.cached_path()
        path.write_bytes(b"corrupted")
        assert file_sha256(fetch_trace("tiny-flap")) == good_sha


class TestUrlFetch:
    def _file_source(self, tmp_path, name="url-trace", sha=None):
        src = tmp_path / "upstream.csv"
        src.write_text(
            "time,kind,ident,session\n1.0,join,a,\n2.0,depart,a,\n"
        )
        return register_trace(
            TraceSource(
                name=name,
                url=src.as_uri(),
                sha256=sha if sha is not None else file_sha256(src),
            ),
            replace=True,
        ), src

    def test_fetch_downloads_verifies_and_caches(self, cache_dir, tmp_path):
        source, src = self._file_source(tmp_path)
        path = fetch_trace(source.name)
        assert path == cache_dir / "url-trace.csv"
        assert file_sha256(path) == source.sha256
        # Cached: resolving again works even after the upstream is gone.
        src.unlink()
        assert resolve_trace(source.name) == path

    def test_sha_mismatch_removes_download(self, cache_dir, tmp_path):
        source, _ = self._file_source(tmp_path, name="url-bad", sha="f" * 64)
        with pytest.raises(ValueError, match="SHA-256 mismatch"):
            fetch_trace("url-bad")
        assert not (cache_dir / "url-bad.csv").exists()

    def test_uncached_url_resolves_to_fetch_hint(self, cache_dir, tmp_path):
        self._file_source(tmp_path, name="url-lazy")
        with pytest.raises(FileNotFoundError, match="traces fetch url-lazy"):
            resolve_trace("url-lazy")

    def test_corrupt_url_cache_never_redownloads_implicitly(
        self, cache_dir, tmp_path
    ):
        # resolve_trace must stay offline: a corrupt cached copy is
        # removed and the user is pointed at the fetch command; the
        # upstream is NOT touched.  An explicit fetch then re-downloads.
        source, src = self._file_source(tmp_path, name="url-heal")
        cached = fetch_trace("url-heal")
        cached.write_bytes(b"corrupted")
        upstream = src.read_bytes()
        src.unlink()  # any implicit download attempt would now explode
        with pytest.raises(FileNotFoundError, match="traces fetch url-heal"):
            resolve_trace("url-heal")
        assert not cached.exists()  # the corrupt copy is gone
        src.write_bytes(upstream)
        assert file_sha256(fetch_trace("url-heal")) == source.sha256


class TestDownloadRetry:
    """Transient fetch faults are retried; definitive ones are not."""

    @pytest.fixture(autouse=True)
    def _no_backoff_sleep(self, monkeypatch):
        import repro.resilience
        import repro.traces.source as source_mod

        monkeypatch.setattr(
            source_mod, "DOWNLOAD_BACKOFF", repro.resilience.NO_DELAY
        )

    def _flaky_urlopen(self, monkeypatch, failures):
        """Make the first ``len(failures)`` urlopen calls raise, then
        delegate to the real opener.  Returns the call log."""
        import urllib.request

        import repro.traces.source as source_mod

        real = urllib.request.urlopen
        calls = []

        def fake(url, timeout=None):
            calls.append(url)
            if len(calls) <= len(failures):
                raise failures[len(calls) - 1]
            return real(url, timeout=timeout)

        monkeypatch.setattr(
            source_mod.urllib.request, "urlopen", fake
        )
        return calls

    def _file_source(self, tmp_path, name):
        src = tmp_path / "upstream.csv"
        src.write_text(
            "time,kind,ident,session\n1.0,join,a,\n2.0,depart,a,\n"
        )
        return register_trace(
            TraceSource(name=name, url=src.as_uri(), sha256=file_sha256(src)),
            replace=True,
        )

    def test_transient_errors_retried_until_success(
        self, cache_dir, tmp_path, monkeypatch
    ):
        import urllib.error

        source = self._file_source(tmp_path, "url-flaky")
        calls = self._flaky_urlopen(
            monkeypatch,
            [
                urllib.error.URLError("connection reset"),
                urllib.error.HTTPError("u", 503, "unavailable", None, None),
            ],
        )
        path = fetch_trace("url-flaky")
        assert file_sha256(path) == source.sha256
        assert len(calls) == 3  # two transient failures + one success

    def test_client_error_is_not_retried(
        self, cache_dir, tmp_path, monkeypatch
    ):
        import urllib.error

        self._file_source(tmp_path, "url-404")
        calls = self._flaky_urlopen(
            monkeypatch,
            [urllib.error.HTTPError("u", 404, "not found", None, None)] * 5,
        )
        with pytest.raises(urllib.error.HTTPError):
            fetch_trace("url-404")
        assert len(calls) == 1  # a definitive 404 fails immediately

    def test_retry_budget_is_bounded(self, cache_dir, tmp_path, monkeypatch):
        import urllib.error

        from repro.traces.source import DOWNLOAD_ATTEMPTS

        self._file_source(tmp_path, "url-down")
        calls = self._flaky_urlopen(
            monkeypatch, [urllib.error.URLError("refused")] * 10
        )
        with pytest.raises(urllib.error.URLError):
            fetch_trace("url-down")
        assert len(calls) == DOWNLOAD_ATTEMPTS
        # Failed attempts leave no temp litter in the cache.
        assert not list(cache_dir.glob(".tmp*"))


class TestResolution:
    def test_absolute_and_cwd_paths(self, tmp_path, monkeypatch):
        path = tmp_path / "local.csv"
        path.write_text("time,kind,ident,session\n")
        assert resolve_trace(path) == path
        monkeypatch.chdir(tmp_path)
        assert resolve_trace("local.csv") == Path.cwd() / "local.csv"

    def test_missing_ref_names_tried_locations(self, cache_dir):
        with pytest.raises(FileNotFoundError, match="cannot resolve"):
            resolve_trace("no-such-trace.csv")

    def test_cache_dir_env_override(self, cache_dir):
        assert trace_cache_dir() == cache_dir
