"""Streaming trace ingestion & Tor-scale replay.

The paper's guarantees are "despite churn", so the reproduction should
be drivable by *real* churn: relay consensus flap traces (Winter et
al.) run to millions of events, far past what one ``Event`` object per
row could hold.  This package makes traces a first-class, scalable
input:

* :mod:`~repro.traces.source`  -- a named :class:`TraceSource` registry
  (packaged fixtures, fetchable URLs, deterministic synthetic specs),
  an on-disk cache (``$REPRO_TRACE_DIR``), and a SHA-256-verifying
  fetch tool that works fully offline;
* :mod:`~repro.traces.reader`  -- a streaming CSV reader (gzip-aware)
  that emits :class:`~repro.sim.blocks.ChurnBlock` batches directly in
  bounded memory and rejects unsorted rows with a ``file:line`` error;
* :mod:`~repro.traces.synthetic` -- a consensus-flap generator
  (heavy-tailed uptimes, diurnal flap rate) for CI- and stress-scale
  traces without any network;
* :mod:`~repro.traces.cli`     -- ``python -m repro traces
  fetch|list|stats|convert``.

Scenario specs plug in through
:class:`~repro.scenarios.spec.TraceReplay`: a phase's ``path`` is a
trace ref resolved through :func:`resolve_trace`, and the phase hands
the engine a lazy block stream the zero-heap fast path consumes as it
is parsed.
"""

from repro.traces.io import TRACE_CSV_HEADER, file_sha256, open_trace_text
from repro.traces.reader import (
    DEFAULT_BLOCK_SIZE,
    TraceBlockStream,
    peek_trace_origin,
    stream_trace_blocks,
)
from repro.traces.source import (
    PACKAGED_DATA_DIR,
    TraceSource,
    fetch_trace,
    get_trace_source,
    register_trace,
    resolve_trace,
    trace_cache_dir,
    trace_source_names,
)
from repro.traces.synthetic import (
    SyntheticFlapSpec,
    synthetic_flap_blocks,
    synthetic_flap_rows,
    write_flap_csv,
)

__all__ = [
    "TRACE_CSV_HEADER",
    "file_sha256",
    "open_trace_text",
    "DEFAULT_BLOCK_SIZE",
    "TraceBlockStream",
    "peek_trace_origin",
    "stream_trace_blocks",
    "PACKAGED_DATA_DIR",
    "TraceSource",
    "fetch_trace",
    "get_trace_source",
    "register_trace",
    "resolve_trace",
    "trace_cache_dir",
    "trace_source_names",
    "SyntheticFlapSpec",
    "synthetic_flap_blocks",
    "synthetic_flap_rows",
    "write_flap_csv",
]
