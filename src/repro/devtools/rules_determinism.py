"""R001 ``determinism`` -- seeded RNG streams are the *only* entropy.

The paper's bankrupting guarantees are reproduced by checks that
assert identical metrics between the engine and a naive per-event
oracle, and byte-identical metrics across worker counts and
crash-resume.  Those assertions are only
meaningful if the deterministic core draws every random number from a
seeded :class:`numpy.random.Generator` (the ``repro.sim.rng`` named
streams) and never reads a wall clock into a result.  One
``time.time()`` in the engine and every "byte-identical" test in the
suite is comparing noise.

Inside the core (see :class:`repro.devtools.config.LintConfig`) this
rule flags:

* the stdlib ``random`` module (imports and calls) -- process-global,
  implicitly seeded state;
* ``os.urandom`` / ``os.getrandom``, ``secrets``, ``uuid.uuid1`` /
  ``uuid.uuid4`` -- OS entropy;
* unseeded numpy constructors (``default_rng()`` / ``RandomState()``
  / ``SeedSequence()`` with no arguments) and *any* draw through the
  module-level ``numpy.random.*`` global (``np.random.normal``,
  ``np.random.seed``, ...);
* wall-clock reads: ``time.time`` / ``perf_counter`` / ``monotonic``
  and friends, ``datetime.now`` / ``utcnow`` / ``today``.  References
  count, not just calls -- aliasing ``clock = time.monotonic`` is the
  same leak one line later.  (``time.sleep`` is not flagged: it wastes
  time but reads nothing into the simulation.)

Wall-clock-legitimate layers (``serve/``, the sweep runtime,
``resilience.py``, benchmarks, scripts) are exempt via the explicit
allowlist manifest in the config; surviving single-line exceptions in
the core (the engine's snapshot ``wall_time_s`` telemetry) carry
``# lint: allow[R001]`` with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.config import LintConfig
from repro.devtools.registry import register
from repro.devtools.walker import FileContext, Rule, Violation

#: Wall-clock reads (module.attr).  Referencing one of these names in
#: the core is a violation even without a call.
CLOCK_REFS = frozenset(
    f"time.{attr}"
    for attr in (
        "time", "time_ns",
        "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns",
        "process_time", "process_time_ns",
        "thread_time", "thread_time_ns",
        "clock_gettime", "clock_gettime_ns",
        "localtime", "gmtime", "ctime", "asctime",
    )
) | frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: OS / stdlib entropy sources (references flagged, like the clocks).
ENTROPY_REFS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Modules that are banned wholesale in the core.
BANNED_MODULES = ("random", "secrets")

#: numpy.random names that are seeding machinery, not draws.  The
#: constructors still demand an explicit seed argument (checked at the
#: call site); everything else under numpy.random is the process-global
#: generator and is always a violation.
NP_SEEDING = frozenset(
    {
        "default_rng", "RandomState", "SeedSequence", "Generator",
        "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    }
)
NP_CONSTRUCTORS = frozenset({"default_rng", "RandomState", "SeedSequence"})


def _banned_module(qualified: str) -> Optional[str]:
    for module in BANNED_MODULES:
        if qualified == module or qualified.startswith(module + "."):
            return module
    return None


@register
class DeterminismRule(Rule):
    id = "R001"
    name = "determinism"
    summary = (
        "deterministic core must not touch wall clocks, the random "
        "module, OS entropy, or unseeded/global numpy RNG"
    )
    explain = __doc__ or ""

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        if not config.in_core(ctx.path):
            return
        reported = set()  # (line, col) -- one diagnostic per site

        def emit(node: ast.AST, message: str) -> Optional[Violation]:
            key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))
            if key in reported:
                return None
            reported.add(key)
            return ctx.violation(self, node, message)

        for node in ast.walk(ctx.tree):
            # banned module imports
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module = _banned_module(alias.name)
                    if module is not None:
                        v = emit(
                            node,
                            f"import of {module!r} in the deterministic "
                            f"core; draw from a seeded numpy Generator "
                            f"(repro.sim.rng) instead",
                        )
                        if v:
                            yield v
            elif isinstance(node, ast.ImportFrom):
                module = _banned_module(node.module or "")
                if module is not None:
                    v = emit(
                        node,
                        f"import from {module!r} in the deterministic "
                        f"core; draw from a seeded numpy Generator "
                        f"(repro.sim.rng) instead",
                    )
                    if v:
                        yield v

            # unseeded numpy constructors + module-global draws
            elif isinstance(node, ast.Call):
                qualified = ctx.imports.qualified(node.func)
                if qualified and qualified.startswith("numpy.random."):
                    tail = qualified.rsplit(".", 1)[1]
                    if tail in NP_CONSTRUCTORS:
                        unseeded = not node.args or (
                            isinstance(node.args[0], ast.Constant)
                            and node.args[0].value is None
                        )
                        if unseeded and not node.keywords:
                            v = emit(
                                node,
                                f"{qualified}() without a seed pulls OS "
                                f"entropy; pass an explicit seed or "
                                f"SeedSequence",
                            )
                            if v:
                                yield v
                    elif tail not in NP_SEEDING:
                        v = emit(
                            node,
                            f"{qualified}() draws from numpy's process-"
                            f"global generator; use a seeded Generator "
                            f"stream instead",
                        )
                        if v:
                            yield v

            # wall-clock / entropy references (calls included: the
            # Call's func is itself a Name/Attribute load)
            elif isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                qualified = ctx.imports.qualified(node)
                if qualified is None:
                    continue
                if qualified in CLOCK_REFS:
                    v = emit(
                        node,
                        f"wall-clock read {qualified} in the deterministic "
                        f"core; simulation time is the engine clock, and "
                        f"wall-clock telemetry belongs in the allowlisted "
                        f"layers (serve/, runtime, benchmarks)",
                    )
                    if v:
                        yield v
                elif qualified in ENTROPY_REFS or _banned_module(qualified):
                    v = emit(
                        node,
                        f"entropy source {qualified} in the deterministic "
                        f"core; seeding must be the sole entropy source",
                    )
                    if v:
                        yield v
