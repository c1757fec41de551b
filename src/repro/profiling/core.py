"""Span-based cost attribution for the simulation engine.

The engine's hot loop interleaves half a dozen subsystems -- the
zero-heap block fast path, heap scheduling, defense hooks, membership
mutation, sampling, snapshot emission -- and a run's wall time alone
cannot say which of them it went to.  This module attributes that
wall clock from outside the engine: :meth:`SpanProfiler.instrument`
shadows one simulation's seams with timed instance attributes before
it runs, and the wrappers accumulate per-span wall time, call counts
and event counts into a flat :class:`ProfileReport`.

Off-path contract: the engine contains no profiling code.  It binds
its seams once per ``run()`` from instance attributes, so an
uninstrumented simulation runs the raw callables, and ``instrument``
touches only that one simulation's instances -- never a class or a
module -- so unprofiled runs sharing the process (the service's job
threads) are unaffected.

Determinism contract: wrappers time and count, and never touch the
wrapped call's arguments, return value, or any RNG stream, so the
simulated trajectory (and the final metrics JSON) is byte-identical
with the profiler on or off.  The wall clock feeds only the profile
report, never a metric.

Span identity is the call *path* ("engine.run;defense.Ergo.join_batch;
defense.Ergo.price_batch"), so a span invoked under two different
parents is accounted separately under each and child totals never
exceed their parent's -- the additivity invariant the tests assert.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Path separator between parent and child span names.
SEP = ";"


class ProfileRow(NamedTuple):
    """One span's accumulated cost (flat, JSON-friendly)."""

    path: str      #: full call path, ``SEP``-joined span names
    span: str      #: leaf span name (last path segment)
    parent: str    #: parent path ("" for top-level spans)
    calls: int     #: times the span was entered
    events: int    #: domain events it processed (batch rows, ops)
    total_s: float  #: inclusive wall seconds
    self_s: float   #: exclusive wall seconds (total minus children)


class ProfileReport(NamedTuple):
    """A finished attribution: flat rows plus the covered wall."""

    rows: Tuple[ProfileRow, ...]
    wall_s: float

    def as_dict(self) -> Dict:
        """JSON-ready form (rows in deterministic path order)."""
        return {
            "wall_s": self.wall_s,
            "spans": [dict(row._asdict()) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "ProfileReport":
        rows = tuple(
            ProfileRow(
                path=span["path"],
                span=span["span"],
                parent=span["parent"],
                calls=int(span["calls"]),
                events=int(span["events"]),
                total_s=float(span["total_s"]),
                self_s=float(span["self_s"]),
            )
            for span in doc.get("spans", ())
        )
        return cls(rows=rows, wall_s=float(doc.get("wall_s", 0.0)))

    @classmethod
    def merged(cls, docs: Iterable[Dict]) -> "ProfileReport":
        """Sum several ``as_dict`` reports by span path (sweep rollup)."""
        acc: Dict[str, List] = {}
        for doc in docs:
            for span in doc.get("spans", ()):
                node = acc.get(span["path"])
                if node is None:
                    acc[span["path"]] = [
                        span["span"],
                        span["parent"],
                        int(span["calls"]),
                        int(span["events"]),
                        float(span["total_s"]),
                        float(span["self_s"]),
                    ]
                else:
                    node[2] += int(span["calls"])
                    node[3] += int(span["events"])
                    node[4] += float(span["total_s"])
                    node[5] += float(span["self_s"])
        rows = tuple(
            ProfileRow(path, *values)
            for path, values in sorted(acc.items())
        )
        wall = sum(row.total_s for row in rows if not row.parent)
        return cls(rows=rows, wall_s=wall)

    def coverage(self) -> float:
        """Fraction of the wall the self-times account for (0..1)."""
        if self.wall_s <= 0:
            return 0.0
        return sum(row.self_s for row in self.rows) / self.wall_s

    def table(self, top: Optional[int] = None) -> str:
        """Self-time table, hottest span first."""
        rows = sorted(self.rows, key=lambda r: (-r.self_s, r.path))
        if top is not None:
            rows = rows[:top]
        lines = [
            f"{'self s':>10}  {'self %':>6}  {'total s':>10}  "
            f"{'calls':>10}  {'events':>10}  span"
        ]
        wall = self.wall_s
        for row in rows:
            pct = 100.0 * row.self_s / wall if wall > 0 else 0.0
            label = row.span if not row.parent else (
                row.parent.rsplit(SEP, 1)[-1] + " > " + row.span
            )
            lines.append(
                f"{row.self_s:>10.4f}  {pct:>6.1f}  {row.total_s:>10.4f}  "
                f"{row.calls:>10}  {row.events:>10}  {label}"
            )
        lines.append(
            f"{len(self.rows)} spans cover "
            f"{100.0 * self.coverage():.1f}% of {wall:.4f} s wall"
        )
        return "\n".join(lines)


class SpanProfiler:
    """Accumulates wall time per call path via wrapped seams.

    Nodes live in a flat dict keyed by path; a small explicit stack
    tracks the current path so a child's time is (a) accounted under
    the parent it actually ran under and (b) subtracted from that
    parent's self-time.  Every frame belongs to a :meth:`wrap` call and
    is popped in its ``finally``, so a run that raises leaves the stack
    empty and the books balanced.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        if clock is None:
            # Wall clock feeds only the profile report, never a metric
            # (the profiling on/off byte-identity tests prove it).
            clock = time.perf_counter  # lint: allow[R001] -- profiler wall-clock telemetry, never read into metrics
        self._clk = clock
        #: path -> [total_s, calls, events, child_s]
        self._acc: Dict[str, List] = {}
        #: open frames, innermost last: [path, child_s]
        self._stack: List[List] = []

    def wrap(self, name: str, fn: Callable, rows: bool = False) -> Callable:
        """Time every call to ``fn`` as a span named ``name``.

        Each call counts one event, or ``len(args[0])`` events -- the
        rows of the batch it was handed -- when ``rows`` is set.
        """
        clk = self._clk
        stack = self._stack
        acc = self._acc
        paths: Dict[str, List] = {}  # parent path -> [path, node]

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            pkey = parent[0] if parent is not None else ""
            hit = paths.get(pkey)
            if hit is None:
                path = pkey + SEP + name if pkey else name
                node = acc.get(path)
                if node is None:
                    node = acc[path] = [0.0, 0, 0, 0.0]
                hit = paths[pkey] = [path, node]
            node = hit[1]
            frame = [hit[0], 0.0]
            stack.append(frame)
            t0 = clk()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clk() - t0
                stack.pop()
                node[0] += dt
                node[1] += 1
                node[2] += len(args[0]) if rows else 1
                node[3] += frame[1]
                if parent is not None:
                    parent[1] += dt

        return timed

    def instrument(self, sim) -> None:
        """Shadow one simulation's seams with timed instance attributes.

        Call once, before ``sim.run()``.  ``engine.run`` is the root
        span; the loop's seams, heap primitives, event handlers and the
        adversary's ``act`` nest under it.  The defense's hooks and
        internals are shadowed once ``sim._bootstrap`` has run, because
        a defense may build them there (Ergo's pricing window comes
        from ``after_bootstrap``); the one-shot bootstrap wrapper then
        removes itself, so the simulation keeps no shadow of it.
        Hooks a defense lacks are skipped, so Null and the baselines
        instrument as well as Ergo.
        """
        wrap = self.wrap
        shadow = self._shadow
        shadow(sim, "run", "engine.run")
        shadow(sim, "_load_next_block", "engine.block_load")
        shadow(sim, "_sample_now", "engine.sample")
        shadow(sim, "_emit_snapshot", "engine.snapshot")
        push, pop, drain = sim._heap_ops
        sim._heap_ops = (
            wrap("engine.heap_push", push),
            wrap("engine.heap_pop", pop),
            wrap("engine.heap_drain", drain),
        )
        sim._handlers = {
            cls: wrap(f"engine.handle.{cls.__name__}", handler)
            for cls, handler in sim._handlers.items()
        }
        if sim.adversary is not None:
            shadow(sim.adversary, "act", "adversary.act")
        bootstrap = sim._bootstrap

        def bootstrap_then_instrument_defense() -> None:
            del sim._bootstrap
            bootstrap()
            defense = sim.defense
            span = f"defense.{type(defense).__name__}."
            shadow(defense, "process_good_join_batch", span + "join_batch", True)
            shadow(
                defense, "process_good_departure_batch",
                span + "departure_batch", True,
            )
            shadow(defense, "on_tick", span + "on_tick")
            shadow(defense, "process_bad_join_batch", span + "bad_joins")
            shadow(defense, "process_bad_departure_batch", span + "bad_departures")
            shadow(defense, "process_good_join", span + "join")
            shadow(defense, "process_good_departure", span + "departure")
            shadow(defense, "quote_entrance_cost", span + "price")
            shadow(defense, "_execute_purge", span + "purge")
            window = getattr(defense, "_window", None)
            if window is not None:
                shadow(window, "quote_record_run", span + "price_batch", True)
            membership = getattr(getattr(defense, "population", None), "good", None)
            if membership is not None:
                shadow(membership, "add_batch", "membership.add_batch", True)
                shadow(membership, "remove_batch", "membership.remove_batch", True)
                shadow(membership, "add", "membership.add")
                shadow(membership, "discard", "membership.discard")

        sim._bootstrap = bootstrap_then_instrument_defense

    def _shadow(self, obj, attr: str, span: str, rows: bool = False) -> None:
        fn = getattr(obj, attr, None)
        if callable(fn):
            setattr(obj, attr, self.wrap(span, fn, rows))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ProfileReport:
        """Snapshot the accumulated spans as a :class:`ProfileReport`."""
        rows = []
        for path in sorted(self._acc):
            total, calls, events, child = self._acc[path]
            head, _, span = path.rpartition(SEP)
            self_s = total - child
            if self_s < 0.0:
                self_s = 0.0
            rows.append(
                ProfileRow(
                    path=path,
                    span=span if span else path,
                    parent=head,
                    calls=calls,
                    events=events,
                    total_s=total,
                    self_s=self_s,
                )
            )
        wall = sum(row.total_s for row in rows if not row.parent)
        return ProfileReport(rows=tuple(rows), wall_s=wall)
