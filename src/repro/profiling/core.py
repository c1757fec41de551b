"""Span-based cost attribution for the simulation engine.

The engine's hot loop interleaves half a dozen subsystems -- the
zero-heap block fast path, heap scheduling, defense hooks, membership
mutation, sampling, snapshot emission -- and a run's wall time alone
cannot say which of them it went to.  This module attributes that
wall clock: a :class:`SpanProfiler` wraps the loop's stable seams once
per ``run()`` call and accumulates per-span wall time, call counts and
event counts into a flat :class:`ProfileReport`.

Disabled-path contract (the bar the snapshot hook set): when
``SimulationConfig.profile`` is ``None`` the engine binds the *raw*
callables and pays nothing new per iteration -- the loop's only
recurring conditional work remains the snapshot hook's two float
compares.  All wrapping happens in one setup branch before the loop.

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
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Path separator between parent and child span names.
SEP = ";"

#: Accepted :attr:`ProfilePolicy.granularity` values.  ``"default"``
#: instruments everything, including the per-operation heap spans and
#: the defense's internal pricing/membership seams; ``"coarse"`` keeps
#: only the batch-level seams (handlers, batch hooks, sampling,
#: snapshots) for a cheaper enabled-mode run.
GRANULARITIES = ("coarse", "default")


@dataclass(frozen=True)
class ProfilePolicy:
    """How much of the engine to instrument (validated at creation)."""

    granularity: str = "default"

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            known = ", ".join(GRANULARITIES)
            raise ValueError(
                f"unknown profile granularity {self.granularity!r}; "
                f"choose from: {known}"
            )


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
    parent's self-time.  Wrapping is idempotent per object (see
    :meth:`instrument_defense`) and purely observational.
    """

    def __init__(
        self,
        policy: Optional[ProfilePolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.policy = policy if policy is not None else ProfilePolicy()
        if clock is None:
            # Wall clock feeds only the profile report, never a metric
            # (the profiling on/off byte-identity tests prove it).
            clock = time.perf_counter  # lint: allow[R001] -- profiler wall-clock telemetry, never read into metrics
        self._clk = clock
        #: path -> [total_s, calls, events, child_s]
        self._acc: Dict[str, List] = {}
        #: frames: [path, child_s] (wrappers) or [path, child_s, start]
        #: (explicit begin/end)
        self._stack: List[List] = []
        self._instrumented: set = set()

    # ------------------------------------------------------------------
    # accounting primitives
    # ------------------------------------------------------------------
    @property
    def deep(self) -> bool:
        """Default granularity: per-op heap + defense-internal spans."""
        return self.policy.granularity == "default"

    def _node(self, path: str) -> List:
        node = self._acc.get(path)
        if node is None:
            node = self._acc[path] = [0.0, 0, 0, 0.0]
        return node

    def begin(self, name: str) -> None:
        """Open a span explicitly (the engine's root ``engine.run``)."""
        stack = self._stack
        pkey = stack[-1][0] if stack else ""
        path = pkey + SEP + name if pkey else name
        stack.append([path, 0.0, self._clk()])

    def end(self) -> None:
        """Close the innermost explicitly opened span."""
        frame = self._stack.pop()
        dt = self._clk() - frame[2]
        node = self._node(frame[0])
        node[0] += dt
        node[1] += 1
        node[3] += frame[1]
        if self._stack:
            self._stack[-1][1] += dt

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Time every call to ``fn`` as a span named ``name``."""
        clk = self._clk
        stack = self._stack
        acc = self._acc
        paths: Dict[str, List] = {}  # parent path -> cached node

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            pkey = parent[0] if parent is not None else ""
            node = paths.get(pkey)
            if node is None:
                path = pkey + SEP + name if pkey else name
                node = acc.get(path)
                if node is None:
                    node = acc[path] = [0.0, 0, 0, 0.0]
                paths[pkey] = node
                frame_path = path
            else:
                frame_path = pkey + SEP + name if pkey else name
            frame = [frame_path, 0.0]
            stack.append(frame)
            t0 = clk()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clk() - t0
                stack.pop()
                node[0] += dt
                node[1] += 1
                node[2] += 1
                node[3] += frame[1]
                if parent is not None:
                    parent[1] += dt

        return timed

    def wrap_batch(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, counting ``len(args[0])`` rows as events."""
        clk = self._clk
        stack = self._stack
        acc = self._acc
        paths: Dict[str, List] = {}

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            pkey = parent[0] if parent is not None else ""
            node = paths.get(pkey)
            path = pkey + SEP + name if pkey else name
            if node is None:
                node = acc.get(path)
                if node is None:
                    node = acc[path] = [0.0, 0, 0, 0.0]
                paths[pkey] = node
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clk()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clk() - t0
                stack.pop()
                node[0] += dt
                node[1] += 1
                if args and hasattr(args[0], "__len__"):
                    node[2] += len(args[0])
                else:
                    node[2] += 1
                node[3] += frame[1]
                if parent is not None:
                    parent[1] += dt

        return timed

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """Time a childless hot-path callable (heap ops): no stack push.

        The wrapped callable must never invoke another wrapped seam --
        heapq primitives qualify.  Skipping the stack push keeps the
        enabled-mode cost of a per-operation span to two clock reads.
        """
        clk = self._clk
        stack = self._stack
        acc = self._acc
        paths: Dict[str, List] = {}

        def timed(*args):
            parent = stack[-1] if stack else None
            pkey = parent[0] if parent is not None else ""
            node = paths.get(pkey)
            if node is None:
                path = pkey + SEP + name if pkey else name
                node = acc.get(path)
                if node is None:
                    node = acc[path] = [0.0, 0, 0, 0.0]
                paths[pkey] = node
            t0 = clk()
            try:
                return fn(*args)
            finally:
                dt = clk() - t0
                node[0] += dt
                node[1] += 1
                node[2] += 1
                if parent is not None:
                    parent[1] += dt

        return timed

    # ------------------------------------------------------------------
    # defense instrumentation
    # ------------------------------------------------------------------
    def instrument_defense(self, defense) -> None:
        """Shadow a defense's hook methods with timed instance attrs.

        Idempotent per object (``run()`` may be re-entered on the same
        simulation).  Everything is duck-typed: hooks a defense lacks
        are skipped, so Null and the baselines instrument as well as
        Ergo.  At default granularity the defense's internal seams --
        membership batch mutators and Ergo's pricing/estimation/purge --
        are shadowed too, nesting under whichever hook invoked them.
        """
        if id(defense) in self._instrumented:
            return
        self._instrumented.add(id(defense))
        dname = type(defense).__name__
        self._shadow(
            defense, "process_good_join_batch",
            f"defense.{dname}.join_batch", batch=True,
        )
        self._shadow(
            defense, "process_good_departure_batch",
            f"defense.{dname}.departure_batch", batch=True,
        )
        self._shadow(defense, "on_tick", f"defense.{dname}.on_tick")
        self._shadow(
            defense, "process_bad_join_batch", f"defense.{dname}.bad_joins"
        )
        self._shadow(
            defense, "process_bad_departure_batch",
            f"defense.{dname}.bad_departures",
        )
        if not self.deep:
            return
        self._shadow(defense, "process_good_join", f"defense.{dname}.join")
        self._shadow(
            defense, "process_good_departure", f"defense.{dname}.departure"
        )
        self._shadow(
            defense, "quote_entrance_cost", f"defense.{dname}.price"
        )
        self._shadow(defense, "_execute_purge", f"defense.{dname}.purge")
        window = getattr(defense, "_window", None)
        if window is not None:
            self._shadow(
                window, "quote_record_run",
                f"defense.{dname}.price_batch", batch=True,
            )
        population = getattr(defense, "population", None)
        membership = getattr(population, "good", None)
        if membership is not None:
            self._shadow(
                membership, "add_batch", "membership.add_batch", batch=True
            )
            self._shadow(
                membership, "remove_batch",
                "membership.remove_batch", batch=True,
            )
            self._shadow(membership, "add", "membership.add")
            self._shadow(membership, "discard", "membership.discard")

    def _shadow(self, obj, attr: str, span: str, batch: bool = False) -> None:
        fn = getattr(obj, attr, None)
        if fn is None or not callable(fn):
            return
        wrapped = self.wrap_batch(span, fn) if batch else self.wrap(span, fn)
        try:
            setattr(obj, attr, wrapped)
        except AttributeError:
            # __slots__ without the attr: leave the seam uninstrumented.
            pass

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ProfileReport:
        """Snapshot the accumulated spans as a :class:`ProfileReport`.

        Explicit frames left open by an exception inside ``run()`` are
        closed here so partial profiles still satisfy additivity.
        """
        while self._stack:
            frame = self._stack[-1]
            if len(frame) < 3:
                self._stack.pop()
                continue
            self.end()
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
