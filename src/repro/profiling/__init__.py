"""Cost attribution for the engine: spans, reports, flamegraph export.

Public surface:

* :class:`SpanProfiler` -- the accumulator; ``instrument(sim)`` times
  one simulation's seams from outside the engine.
* :class:`ProfileReport` / :class:`ProfileRow` -- flat results.
* :func:`to_speedscope` / :func:`validate_speedscope` -- flamegraph
  export (https://www.speedscope.app).

The CLI entry (``python -m repro profile``) lives in
:mod:`repro.profiling.cli` and is intentionally not imported here: it
pulls in the scenario runner, which imports this package.
"""

from repro.profiling.core import ProfileReport, ProfileRow, SpanProfiler
from repro.profiling.speedscope import to_speedscope, validate_speedscope

__all__ = [
    "ProfileReport",
    "ProfileRow",
    "SpanProfiler",
    "to_speedscope",
    "validate_speedscope",
]
