"""The determinism-boundary map and other lint configuration.

The linter's rules are scoped by *where* a file lives, because the
repo's contracts are layered:

* the **deterministic core** -- the simulation engine, the scenario
  compiler, trace ingestion, the adversary, resource burning, and all
  defense code -- may draw randomness only through explicitly seeded
  :class:`numpy.random.Generator` streams and must never read a wall
  clock.  Same seed, same bytes: that is what makes the engine-vs-
  oracle, ``jobs`` and crash-resume byte-identity checks meaningful.

* the **wall-clock-legitimate layers** -- the serve vertical, the
  fault-tolerant sweep runtime, the resilience/backoff primitives,
  benchmarks and operational scripts -- measure real elapsed time by
  design (heartbeats, retry backoff, wall-second budgets).  They are
  exempted from the determinism rule here, explicitly, so the
  exemption is reviewable instead of implied.

Paths are matched as posix fragments: a fragment ending in ``/``
matches any file under that package, a ``.py`` fragment matches that
file exactly.  Matching is rooted (``repro/sim/`` does not match
``notrepro/sim/``) but prefix-independent, so the map works from a
checkout (``src/repro/sim/...``) and an installed tree alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple, Union


def path_matches(path: Union[str, Path], fragment: str) -> bool:
    """True when ``fragment`` names ``path`` or one of its parents."""
    posix = "/" + Path(path).as_posix().lstrip("/")
    fragment = "/" + fragment.lstrip("/")
    if fragment.endswith("/"):
        return fragment in posix
    return posix.endswith(fragment)


def path_in(path: Union[str, Path], fragments: Tuple[str, ...]) -> bool:
    return any(path_matches(path, fragment) for fragment in fragments)


@dataclass(frozen=True)
class LintConfig:
    """Scope configuration shared by every rule."""

    #: The deterministic core: seeded-RNG-only, no wall clocks (R001),
    #: and where defense hook contracts are enforced (R004).
    deterministic_core: Tuple[str, ...] = (
        "repro/sim/",
        "repro/scenarios/",
        "repro/traces/",
        "repro/adversary/",
        "repro/rb/",
        "repro/core/",
        "repro/baselines/",
        "repro/churn/",
        "repro/identity/",
        "repro/classifier/",
        "repro/committee/",
        "repro/applications/",
        "repro/analysis/",
        # The profiler is *in* the determinism boundary on purpose: it
        # runs inside the engine loop, so R001 polices its clock reads
        # (the two justified perf_counter references carry allow[R001])
        # and R004's profiling extension keeps its span bodies RNG-free.
        "repro/profiling/",
    )

    #: Wall-clock-legitimate layers: R001 does not apply even where
    #: these overlap the core list.  Each entry is a deliberate,
    #: reviewable exemption -- see the module docstring.
    wall_clock_allowlist: Tuple[str, ...] = (
        "repro/serve/",          # heartbeats, SSE pings, Retry-After
        "repro/experiments/",    # runtime timeouts, backoff, flush accounting
        "repro/resilience.py",   # the backoff/atomic-write primitives
        "repro/faults.py",       # injected hangs/slowdowns sleep on purpose
        "repro/devtools/",       # the linter itself is not simulated
        "benchmarks/",           # wall-clock measurement is the product
        "scripts/",              # operational smoke drivers
        "examples/",             # pedagogical, not part of the matrix
    )

    #: Where sqlite thread-discipline and lock-blocking checks (R003)
    #: apply: the multi-threaded service vertical.
    serve_packages: Tuple[str, ...] = ("repro/serve/",)

    #: The cost-attribution profiler (R004's profiling extension):
    #: every function here runs interleaved with the engine loop, so
    #: *none* of them may draw RNG -- not just the named hook methods.
    profiling_packages: Tuple[str, ...] = ("repro/profiling/",)

    #: Terminal identifier substrings that mark a ``with`` context
    #: expression as a mutex for R003's held-lock check.
    lock_name_markers: Tuple[str, ...] = ("lock",)

    #: Receiver-name substrings for which a ``.join()`` call counts as
    #: thread/process blocking (``str.join`` stays out of scope).
    joinable_markers: Tuple[str, ...] = ("thread", "proc", "worker", "pool")

    #: Files excluded from linting entirely (never any today; the knob
    #: exists so a vendored file can be carved out without code edits).
    exclude: Tuple[str, ...] = field(default=())

    def in_core(self, path: Union[str, Path]) -> bool:
        return path_in(path, self.deterministic_core) and not path_in(
            path, self.wall_clock_allowlist
        )

    def in_serve(self, path: Union[str, Path]) -> bool:
        return path_in(path, self.serve_packages)

    def in_profiling(self, path: Union[str, Path]) -> bool:
        return path_in(path, self.profiling_packages)

    def excluded(self, path: Union[str, Path]) -> bool:
        return path_in(path, self.exclude)


DEFAULT_CONFIG = LintConfig()
