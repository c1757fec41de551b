"""Trace sources: a named registry, an on-disk cache, and a fetch tool.

A :class:`TraceSource` names one trace and says where its bytes come
from -- exactly one of:

* ``packaged``  -- a fixture shipped inside the repository
  (``src/repro/scenarios/data/``); always available, never copied;
* ``url``       -- a fetchable location (``https://``, or ``file://``
  for offline fixtures and tests), downloaded once into the trace
  cache and verified against a pinned SHA-256;
* ``synthetic`` -- a :class:`~repro.traces.synthetic.SyntheticFlapSpec`
  generated deterministically into the cache on first use, so CI-scale
  and stress-scale traces exist without any network at all.

The cache lives under :func:`trace_cache_dir` (``$REPRO_TRACE_DIR``,
defaulting to ``results/traces/`` in the repository).  Writes are
atomic (temp file + ``os.replace``), so concurrent sweep workers that
race to materialize the same synthetic trace cannot observe a torn
file -- they all produce identical bytes and the last rename wins.

:func:`resolve_trace` is the one lookup everything else uses: registry
names first, then packaged fixtures, then plain filesystem paths, then
the cache.  URL-backed sources are *never* fetched implicitly -- an
uncached one resolves to an error naming the ``repro traces fetch``
command, keeping simulation runs deterministic and offline by default.
"""

from __future__ import annotations

import hashlib
import os
import socket
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.resilience import BackoffPolicy, retry_call
from repro.traces.io import CHUNK_BYTES, file_sha256
from repro.traces.synthetic import SyntheticFlapSpec, write_flap_csv

#: Packaged trace fixtures (``TraceReplay`` relative paths resolve here).
PACKAGED_DATA_DIR = Path(__file__).resolve().parents[1] / "scenarios" / "data"

#: SHA-256 of the packaged Tor relay-flap fixture (verified on fetch).
TOR_RELAY_FLAP_SHA256 = (
    "0d4ec5207c4b1d3ce57f27e2270d808fdb4b9d79b396798450a1d287a3e16ca3"
)


def trace_cache_dir() -> Path:
    """The on-disk trace cache: ``$REPRO_TRACE_DIR`` or ``results/traces``."""
    env = os.environ.get("REPRO_TRACE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "traces"


@dataclass(frozen=True)
class TraceSource:
    """One named trace and where its bytes come from."""

    name: str
    description: str = ""
    packaged: Optional[str] = None
    url: Optional[str] = None
    synthetic: Optional[SyntheticFlapSpec] = None
    #: pinned hex SHA-256 of the file's raw bytes (required for ``url``
    #: sources in spirit; optional for packaged/synthetic ones).
    sha256: Optional[str] = None
    #: cache filename override (defaults derive from the name).
    filename: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("trace source name must be non-empty")
        backings = [
            b for b in (self.packaged, self.url, self.synthetic) if b is not None
        ]
        if len(backings) != 1:
            raise ValueError(
                f"trace source {self.name!r} must have exactly one of "
                "packaged / url / synthetic"
            )

    @property
    def kind(self) -> str:
        if self.packaged is not None:
            return "packaged"
        if self.url is not None:
            return "url"
        return "synthetic"

    @property
    def events_hint(self) -> Optional[int]:
        """Approximate row count, when cheaply known."""
        if self.synthetic is not None:
            return self.synthetic.expected_events
        return None

    def cache_filename(self) -> str:
        if self.filename:
            return self.filename
        if self.synthetic is not None:
            # Key the cache entry to the spec's contents (frozen
            # dataclass repr is deterministic), so editing a synthetic
            # spec misses the old cache instead of silently replaying
            # stale bytes.
            digest = hashlib.sha256(
                repr(self.synthetic).encode()
            ).hexdigest()[:12]
            return f"{self.name}-{digest}.csv.gz"
        if self.url is not None:
            tail = self.url.rsplit("/", 1)[-1]
            suffix = ".csv.gz" if tail.endswith(".gz") else ".csv"
            return f"{self.name}{suffix}"
        return self.packaged  # packaged sources are never cached

    def cached_path(self) -> Path:
        if self.packaged is not None:
            return PACKAGED_DATA_DIR / self.packaged
        return trace_cache_dir() / self.cache_filename()

    def is_available(self) -> bool:
        """Resolvable right now, without fetching anything?"""
        if self.synthetic is not None:
            return True  # generated on demand, offline
        return self.cached_path().exists()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, TraceSource] = {}


def register_trace(source: TraceSource, replace: bool = False) -> TraceSource:
    """Add a source to the registry (names are unique unless ``replace``)."""
    if not replace and source.name in _REGISTRY:
        raise ValueError(f"trace source {source.name!r} is already registered")
    _REGISTRY[source.name] = source
    return source


def get_trace_source(name: str) -> TraceSource:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown trace source {name!r}; choose from: {known}"
        ) from None


def trace_source_names() -> List[str]:
    """Registered names, in registration (presentation) order."""
    return list(_REGISTRY)


# ----------------------------------------------------------------------
# fetch
# ----------------------------------------------------------------------
#: (path, expected sha) -> (mtime_ns, size) of the file when it last
#: verified.  Every scenario-point compile resolves its trace ref, so
#: without this memo a sweep would rehash the whole (possibly multi-GB)
#: file once per point; a matching stat means the bytes are the ones
#: already verified in this process.
_VERIFIED: Dict[Tuple[str, str], Tuple[int, int]] = {}


def _verify_sha256(path: Path, expected: Optional[str], label: str) -> None:
    if expected is None:
        return
    key = (str(path), expected.lower())
    stat = path.stat()
    if _VERIFIED.get(key) == (stat.st_mtime_ns, stat.st_size):
        return
    actual = file_sha256(path)
    if actual != expected.lower():
        raise ValueError(
            f"{label}: SHA-256 mismatch: expected {expected}, got {actual}"
        )
    _VERIFIED[key] = (stat.st_mtime_ns, stat.st_size)


def _atomic_tmp(target: Path) -> Path:
    # The temp name keeps the target's full name as its suffix so
    # compression-by-suffix writers treat both paths identically.
    target.parent.mkdir(parents=True, exist_ok=True)
    return target.with_name(f".tmp{os.getpid()}.{target.name}")


#: Socket timeout for downloads; turns a stalled host into a clean,
#: retryable error instead of a forever-hung fetch.
DOWNLOAD_TIMEOUT_S = 60.0

#: Attempts per download (1 initial + 2 retries) and the capped
#: exponential backoff between them.
DOWNLOAD_ATTEMPTS = 3
DOWNLOAD_BACKOFF = BackoffPolicy(base_delay=1.0, factor=2.0, max_delay=30.0)


def _transient_download_error(exc: BaseException) -> bool:
    """Worth retrying?  Transport faults and server-side errors are;
    definitive client errors (404, 403, ...) are not."""
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code >= 500 or exc.code == 429
    return isinstance(exc, (urllib.error.URLError, socket.timeout, OSError))


def _download_once(url: str, target: Path) -> None:
    """Stream ``url`` to ``target`` atomically (bounded memory)."""
    tmp = _atomic_tmp(target)
    try:
        with urllib.request.urlopen(
            url, timeout=DOWNLOAD_TIMEOUT_S
        ) as response, open(tmp, "wb") as out:
            while True:
                chunk = response.read(CHUNK_BYTES)
                if not chunk:
                    break
                out.write(chunk)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()


def _download(url: str, target: Path) -> None:
    """:func:`_download_once` with bounded retries on transient faults.

    Each attempt is independently atomic (its temp file is cleaned up
    on failure), so a retry always starts from a clean slate.  Backoff
    delays are deterministic per URL (SHA-256-derived jitter).
    """
    retry_call(
        lambda: _download_once(url, target),
        max_retries=DOWNLOAD_ATTEMPTS - 1,
        policy=DOWNLOAD_BACKOFF,
        should_retry=_transient_download_error,
        key=url,
    )


def _generate_synthetic(spec: SyntheticFlapSpec, target: Path) -> None:
    tmp = _atomic_tmp(target)
    try:
        write_flap_csv(tmp, spec)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()


def _fetch_hint(name: str) -> str:
    return f"run `python -m repro traces fetch {name}` to (re)download it"


def fetch_trace(
    source: Union[str, TraceSource],
    force: bool = False,
    allow_network: bool = True,
) -> Path:
    """Materialize a source locally and return its verified path.

    Packaged fixtures are verified in place; URL sources are downloaded
    into the cache (once -- ``force`` re-downloads); synthetic sources
    are generated into the cache deterministically.  A cached file that
    fails its SHA-256 check is discarded and re-materialized; a fresh
    download/generation that fails is removed and raises -- either way
    no corrupt file survives, so a retry starts clean.  Successful
    verifications are memoized per process against the file's stat, so
    resolving the same trace once per sweep point does not rehash it.

    ``allow_network=False`` (what :func:`resolve_trace` passes) keeps
    the call offline: synthetic regeneration is still fine, but a URL
    source that would need downloading raises with the explicit fetch
    command instead -- simulation runs never touch the network
    implicitly, even to replace a corrupt cache entry.
    """
    if isinstance(source, str):
        source = get_trace_source(source)
    path = source.cached_path()
    if source.packaged is not None:
        if not path.exists():
            raise FileNotFoundError(
                f"packaged trace {source.name!r} missing at {path}"
            )
        _verify_sha256(path, source.sha256, source.name)
        return path
    if path.exists() and not force:
        try:
            _verify_sha256(path, source.sha256, source.name)
            return path
        except ValueError:
            # Corrupt cache entry (torn write from an old run, manual
            # edit, updated pin): discard and re-materialize below.
            # missing_ok: a concurrent worker may have discarded it too.
            path.unlink(missing_ok=True)
    if source.synthetic is not None:
        _generate_synthetic(source.synthetic, path)
    else:
        if not allow_network:
            raise FileNotFoundError(
                f"trace {source.name!r} has no verified cached copy; "
                + _fetch_hint(source.name)
            )
        _download(source.url, path)
    try:
        _verify_sha256(path, source.sha256, source.name)
    except ValueError:
        path.unlink(missing_ok=True)
        raise
    return path


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def resolve_trace(ref: Union[str, Path]) -> Path:
    """Resolve a trace ref -- registry name, fixture name, or path.

    Lookup order: (1) a registered source name (synthetic sources are
    generated on demand; uncached URL sources raise with the fetch
    command to run); (2) an absolute path; (3) a path relative to the
    packaged data directory; (4) the working directory; (5) the trace
    cache.
    """
    ref_str = str(ref)
    if ref_str in _REGISTRY:
        # allow_network=False keeps resolution offline: a URL source
        # without a verified cached copy raises with the fetch command.
        return fetch_trace(_REGISTRY[ref_str], allow_network=False)
    path = Path(ref)
    if path.is_absolute():
        if path.exists():
            return path
        raise FileNotFoundError(f"trace file not found: {path}")
    tried = []
    for candidate in (
        PACKAGED_DATA_DIR / path,
        Path.cwd() / path,
        trace_cache_dir() / path,
    ):
        if candidate.exists():
            return candidate
        tried.append(str(candidate))
    known = ", ".join(sorted(_REGISTRY)) or "(none)"
    raise FileNotFoundError(
        f"cannot resolve trace ref {ref_str!r}: not a registered source "
        f"(known: {known}) and no file at any of: {'; '.join(tried)}"
    )


# ----------------------------------------------------------------------
# built-in sources
# ----------------------------------------------------------------------
register_trace(
    TraceSource(
        name="tor-relay-flap",
        description=(
            "Packaged 183-event relay up/down fixture (18 flapping "
            "relays, a burst join and a synchronized exodus) in the "
            "shape of Winter et al.'s consensus flap data."
        ),
        packaged="tor_relay_flap.csv",
        sha256=TOR_RELAY_FLAP_SHA256,
    )
)

register_trace(
    TraceSource(
        name="synthetic-flap-ci",
        description=(
            "Small deterministic consensus-flap trace (~1.3k events, "
            "200 relays, one diurnal cycle) for CI and smoke runs."
        ),
        synthetic=SyntheticFlapSpec(
            relays=200,
            duration=600.0,
            seed=421,
            mean_uptime=120.0,
            uptime_shape=0.55,
            mean_downtime=60.0,
            diurnal_amplitude=0.6,
            diurnal_period=600.0,
        ),
    )
)

register_trace(
    TraceSource(
        name="synthetic-flap-xl",
        description=(
            "Stress-scale consensus-flap trace (~10^6 events, 5000 "
            "relays) backing the streamed-replay scale gates."
        ),
        synthetic=SyntheticFlapSpec(
            relays=5000,
            duration=7_800.0,
            seed=97,
            mean_uptime=48.0,
            uptime_shape=0.55,
            mean_downtime=24.0,
            diurnal_amplitude=0.6,
            diurnal_period=3_900.0,
        ),
    )
)
