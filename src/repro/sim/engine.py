"""The event queue and the simulation driver.

The driver wires together four roles:

* a **churn source** (struct-of-arrays
  :class:`~repro.sim.blocks.ChurnBlock` streams, typically produced by
  :mod:`repro.churn.generators`; per-event ``GoodJoin`` /
  ``GoodDeparture`` items are accepted too and packed into one-row
  blocks as the loop reaches them),
* a **defense** (Ergo, CCom, SybilControl, REMP, ... -- anything
  implementing :class:`repro.core.protocol.Defense`),
* an **adversary** (a :class:`repro.adversary.base.Adversary` deciding
  when to pay entrance costs and inject Sybil IDs), and
* a shared :class:`~repro.sim.metrics.MetricSet`.

The loop is a classic discrete-event simulation: events are popped in
``(time, priority, seq)`` order, the clock advances, the adversary gets a
chance to act at the new time, and then the event is dispatched.  A
recurring tick guarantees the adversary can act even during quiet periods
of the trace.

Hot-path design (this loop runs millions of times per sweep):

* **Zero-heap block fast path** -- every good-churn row enters through
  the block loader, and runs of rows that all precede the next heap
  entry, the adversary's wake time, and the next metrics sample are
  applied straight from the block through the defense batch hooks
  (:meth:`~repro.core.protocol.Defense.process_good_join_batch` /
  ``process_good_departure_batch``): no ``Event`` allocation, no heap
  push/pop.  Batch boundaries are chosen so the observable event order
  is *identical* to a naive per-event heap simulation (see
  :meth:`Simulation.run`; ``tests/reference_sim.py`` is that
  simulation, and the tests hold the engine to it).
* **Tuple-backed session departures** -- a departure the engine
  schedules for an admitted joiner is stored in the heap as its bare
  ``int`` ident rather than a frozen ``GoodDeparture`` dataclass, and
  consecutive departures at the heap front are drained as one batch.
* **Integer identities** -- a good ID is the ``int`` its defense's
  :class:`~repro.identity.ids.IdentityFactory` issued (Section 2.1.1's
  join-event counter); names a trace proposes stay at the edge, as
  keys of the engine's alias map.
* **Lazy ticks** -- a single recurring tick sentinel is re-armed as it
  fires instead of pre-scheduling ``horizon / tick_interval`` events up
  front, so the heap stays shallow and memory stays O(1) in the
  horizon.
* **Handler-table dispatch** -- events are routed through a dict keyed
  on the event class rather than an ``isinstance`` chain.
* **Adversary wake-ups** -- the adversary's
  :meth:`~repro.adversary.base.Adversary.next_wake` tells the engine the
  earliest time another ``act`` call could matter, so strategies that
  are out of budget (or passive) are not invoked on every event.
* **Lazy churn sources** -- the loop holds one block outside the heap
  and loads the next only when the current one is used up, so unbounded
  generators are consumed lazily and churn rows never enter the heap.

Path accounting: ``churn_events_fast`` counts good-churn rows applied
via the block fast path; ``churn_events_heap`` counts churn dispatched
from the heap (session departures the engine scheduled, bad
departures).  Benchmarks assert on these to verify the fast path
actually engages.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.sim.blocks import ChurnBlock
from repro.sim.clock import Clock
from repro.sim.events import (
    BadDeparture,
    BadDepartureBatch,
    Callback,
    Event,
)
from repro.sim.metrics import MetricSet, MetricsSnapshot, SnapshotPolicy
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.adversary.base import Adversary
    from repro.core.protocol import Defense

#: The recurring tick runs after any same-time protocol event.
TICK_PRIORITY = 10

#: Counter keys that describe *how* events were processed (heap traffic,
#: fast-vs-heap split) rather than the simulated trajectory.  These are
#: the only counters allowed to differ from a per-event simulation of
#: the same run; equivalence checks and result digests strip them.
PATH_COUNTERS = (
    "queue_pushes",
    "queue_pops",
    "queue_max_size",
    "churn_events_fast",
    "churn_events_heap",
    "good_joins_fast",
)

_INF = float("inf")


class _TickMarker:
    """Heap sentinel for the engine's recurring tick (no per-fire alloc)."""

    __slots__ = ()


_TICK = _TickMarker()


class EventQueue:
    """A priority queue of events ordered by ``(time, priority, seq)``.

    ``priority`` breaks ties at equal times (lower runs first); ``seq`` is
    a monotone counter providing the deterministic total order that the
    ABC model's "server orders simultaneous events" assumption requires.

    Besides :class:`~repro.sim.events.Event` objects the heap carries two
    engine-internal payloads: bare ``int`` idents (session departures
    scheduled for admitted joiners) and the tick sentinel.  Both exist to
    avoid a frozen-dataclass allocation per scheduled item.

    The queue counts its own traffic (``pushes``, ``pops``, ``max_size``)
    so benchmarks and tests can verify scheduling changes -- e.g. that
    lazy tick re-arming keeps the heap shallow.
    """

    __slots__ = ("_heap", "_seq", "pushes", "pops", "max_size")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        #: total events ever pushed / popped, and the high-water mark of
        #: resident heap entries (all exposed via ``MetricSet.counters``
        #: as ``queue_pushes`` / ``queue_pops`` / ``queue_max_size``).
        self.pushes = 0
        self.pops = 0
        self.max_size = 0

    def push_entry(self, time: float, priority: int, item) -> None:
        """Schedule an arbitrary payload (event, int ident, sentinel)."""
        heap = self._heap
        heapq.heappush(heap, (time, priority, next(self._seq), item))
        self.pushes += 1
        if len(heap) > self.max_size:
            self.max_size = len(heap)

    def push(self, event: Event, priority: int = 0) -> None:
        self.push_entry(event.time, priority, event)

    def push_departure(self, time: float, ident: int) -> None:
        """Schedule a session departure for ``ident`` (tuple-backed)."""
        self.push_entry(time, 0, ident)

    def pop(self):
        if not self._heap:
            raise IndexError("pop from empty event queue")
        self.pops += 1
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> Optional[float]:
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass
class SimulationConfig:
    """Run-level knobs shared by all experiments."""

    horizon: float = 10_000.0
    tick_interval: float = 1.0
    seed: int = 0
    #: record bad-fraction / system-size samples every this many seconds
    sample_interval: float = 50.0
    #: emit incremental :class:`~repro.sim.metrics.MetricsSnapshot` rows
    #: through the simulation's ``on_snapshot`` callback.  ``None``
    #: disables emission; final metrics are byte-identical either way.
    snapshots: Optional[SnapshotPolicy] = None


@dataclass
class SimulationResult:
    """What a finished run reports back to the experiment harness."""

    horizon: float
    good_spend: float
    adversary_spend: float
    good_spend_rate: float
    adversary_spend_rate: float
    max_bad_fraction: float
    final_system_size: int
    counters: dict
    metrics: Optional[MetricSet] = field(repr=False, default=None)

    @property
    def advantage(self) -> float:
        """Adversary spend divided by good spend (higher favors the defense)."""
        if self.good_spend == 0:
            return float("inf")
        return self.adversary_spend / self.good_spend


class Simulation:
    """Drives one defense against one churn trace and one adversary."""

    def __init__(
        self,
        config: SimulationConfig,
        defense: "Defense",
        churn: Iterable,
        adversary: Optional["Adversary"] = None,
        rngs: Optional[RngRegistry] = None,
        initial_members: Optional[Iterable] = None,
        on_snapshot: Optional[Callable[[MetricsSnapshot], None]] = None,
    ) -> None:
        self.config = config
        self.clock = Clock()
        self.queue = EventQueue()
        self.metrics = MetricSet()
        self.rngs = rngs if rngs is not None else RngRegistry(config.seed)
        self.defense = defense
        self.adversary = adversary
        #: raw churn iterator; yields ``ChurnBlock`` batches and/or
        #: per-event good-churn items (see :meth:`_load_next_block`)
        self._churn: Iterator = iter(churn)
        self._churn_done = False
        #: the block :meth:`_load_next_block` loaded, as plain lists
        self._block_times: Optional[list] = None
        self._block_kinds: Optional[list] = None
        self._block_sessions: Optional[list] = None
        self._block_deadlines: Optional[list] = None
        self._block_idents: Optional[list] = None
        self._initial_members = list(initial_members) if initial_members else []
        #: proposed name -> latest admitted int ident.  Per Section
        #: 2.1.1 every join is issued a fresh unique ident, so a replayed
        #: trace's departure rows (which name the *proposed* ident, e.g.
        #: ``relay-09``) would otherwise never match a member and every
        #: flap cycle would leak one standing ID.  Initial members are
        #: registered under their ``InitialMember.ident`` at bootstrap.
        #: The block loop resolves every named good departure through
        #: this map, *popping* the entry as it does: a name with no entry
        #: (never admitted, or a re-departure of the same name) resolves
        #: to ident 0, which names no member, so the row is a no-op.
        #: Session departures of named members clean up through
        #: ``_alias_owners``.  Memory is therefore bounded by standing
        #: named members, not by total joins.
        self._trace_aliases: dict = {}
        #: admitted int ident -> proposed name, for named members whose
        #: departure the engine itself schedules (session rows, initial
        #: residuals): when that departure fires, the alias entry is
        #: retired too.
        self._alias_owners: dict = {}
        #: live-telemetry consumer; see :meth:`_emit_snapshot`
        self.on_snapshot = on_snapshot
        self._snap_seq = 0
        self._snap_last_time = 0.0
        self._snap_last_good = 0.0
        self._snap_last_adversary = 0.0
        self._snap_wall_start: Optional[float] = None
        #: the loop's heap primitives (push, pop, drain-pop), bound once
        #: per ``run()``.  :meth:`repro.profiling.SpanProfiler.instrument`
        #: swaps in timed copies on this instance only: patching ``heapq``
        #: itself would time every run sharing the process.
        self._heap_ops = (heapq.heappush, heapq.heappop, heapq.heappop)
        #: event tallies flushed into MetricSet.counters at summarize
        #: time (a plain int increment is much cheaper than a dict-backed
        #: counter bump per event)
        self._good_join_events = 0
        self._good_departure_events = 0
        self._bad_departure_events = 0
        #: good-churn rows applied via the zero-heap block fast path
        self._fast_churn_events = 0
        #: the join-only subset of the above (scenario summaries report
        #: "fraction of good joins on the fast path")
        self._fast_join_events = 0
        self._ran = False
        self._handlers: dict = {
            BadDeparture: self._handle_bad_departure,
            BadDepartureBatch: self._handle_bad_departure_batch,
            Callback: self._handle_callback,
            _TickMarker: self._handle_tick_marker,
        }
        defense.bind(self)
        if adversary is not None:
            adversary.bind(self, defense)

    # ------------------------------------------------------------------
    # scheduling helpers (used by defenses and adversaries)
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn, label: str = "") -> None:
        """Schedule ``fn(now)`` to run at simulation time ``when``."""
        self.queue.push(Callback(time=when, fn=fn, label=label))

    def call_after(self, delay: float, fn, label: str = "") -> None:
        self.call_at(self.clock.now + delay, fn, label=label)

    # ------------------------------------------------------------------
    # churn source plumbing
    # ------------------------------------------------------------------
    def _load_next_block(self) -> bool:
        """Advance to the next non-empty block; ``False`` when exhausted.

        Rows are converted to plain Python lists once per block: the
        per-row scans in the main loop are then float compares on list
        items instead of numpy scalar extractions.  Departure deadlines
        (``time + session``, ``inf`` for session-less rows) are computed
        vectorized here so the scan and the admission push loop touch
        one precomputed float per row instead of re-deriving it.  A
        per-event item (from an event list, a lazy generator, or a mixed
        stream) is packed into a one-row block when the loop reaches it,
        so lazy sources stay lazy; non-churn event types are rejected
        with ``from_events``'s clear error.
        """
        for block in self._churn:
            if not isinstance(block, ChurnBlock):
                block = ChurnBlock.from_events([block])
            if len(block) == 0:
                continue
            self._block_times = block.times.tolist()
            self._block_kinds = block.kinds.tolist()
            sessions = block.sessions
            if sessions is not None:
                self._block_sessions = sessions.tolist()
                deadlines = block.times + sessions
                self._block_deadlines = np.nan_to_num(
                    deadlines, nan=_INF, posinf=_INF
                ).tolist()
            else:
                self._block_sessions = None
                self._block_deadlines = None
            self._block_idents = block.idents
            return True
        self._block_times = None
        self._churn_done = True
        return False

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation until the horizon and summarize.

        A ``Simulation`` runs once: a second call raises
        ``RuntimeError``.

        **Fast-path equivalence.**  The reference semantics is a naive
        per-event simulation: a churn pump pushes every row due at or
        before ``min(heap top, horizon)`` into the heap, and the loop
        pops and dispatches one entry at a time.  A run of block rows is
        applied in one batch only when every row in it would also be
        the next popped event under that simulation.  The batch is cut
        before any row that (a) is preceded by a resident heap entry --
        at equal times a priority-0 heap entry pushed during an
        *earlier* instant wins (it was scheduled before the pump would
        have admitted the row), while a tick (priority 10) or an entry
        pushed during the current instant loses: the pump admits every
        churn row due at time t before the first event at t is
        dispatched, so same-instant pushes always carry higher seqs;
        (b) reaches the adversary's wake time (``act`` must run first);
        (c) passes the next metrics sample mark (at most one boundary
        row is included, then the sample fires, exactly as the
        per-event loop samples after the crossing event); (d) changes
        kind (join vs departure runs map to distinct batch hooks); or
        (e) falls strictly after the earliest session departure another
        row in the same batch schedules -- a row at *exactly* that
        departure's time stays in the batch, because the pump admitted
        it before the departure was pushed.  Cuts are conservative:
        splitting a batch is always equivalent to the per-event order.
        """
        if self._ran:
            raise RuntimeError(
                "a Simulation runs once; build a new one for another run"
            )
        self._ran = True
        config = self.config
        horizon = config.horizon
        sample_interval = config.sample_interval
        self._bootstrap()
        self._arm_tick()
        # Local bindings for the loop: every attribute chased here would
        # otherwise be chased once per event.
        queue = self.queue
        heap = queue._heap
        heappush, heappop, drain_pop = self._heap_ops
        next_seq = queue._seq.__next__
        clock = self.clock
        defense = self.defense
        adversary = self.adversary
        handlers = self._handlers
        resolve = self._handler_for
        # earliest time another adversary.act() call could matter
        adv_wake = float("-inf") if adversary is not None else _INF
        next_sample = 0.0
        now = clock._now
        bt = bk = bs = bd = bid = None
        bi = bn = 0
        aliases = self._trace_aliases
        owners = self._alias_owners
        # Seam bindings: the loop calls these locals instead of chasing
        # attributes once per event.  They are read from the instance,
        # so a profiler that shadowed them before ``run()`` is bound
        # here and the loop itself never tests for one.
        join_batch = defense.process_good_join_batch
        depart_batch = defense.process_good_departure_batch
        adv_act = adversary.act if adversary is not None else None
        sample = self._sample_now
        emit_snapshot = self._emit_snapshot
        load_block = self._load_next_block
        pops = 0
        churn_pushes = 0
        fast_events = 0
        fast_joins = 0
        max_size = queue.max_size
        # Snapshot threshold: _INF when telemetry is off (or nobody is
        # listening), so the disabled cost is one float compare per
        # iteration.  Emission never cuts a batch -- due-checks run only
        # *after* a batch (or event) has been applied exactly as it
        # would have been without the policy, which is what keeps final
        # metrics byte-identical with the hook on or off.
        snap_on = config.snapshots is not None and self.on_snapshot is not None
        if snap_on:
            # Wall clock feeds only the snapshot telemetry channel
            # (events/sec); final metrics never read it.
            self._snap_wall_start = time.perf_counter()  # lint: allow[R001] -- snapshot wall-clock telemetry, never in metrics
            snap_next_time = self._snap_last_time + config.snapshots.sim_interval
        else:
            snap_next_time = _INF
        # Same-instant tie tracking: when the frontier first reaches a
        # time t, one seq is burned as a watermark; heap entries pushed
        # during instant t carry seqs >= the watermark and therefore
        # lose ties to block rows at t (the reference pump admits every
        # row due at t -- with lower seqs -- before the first event at t
        # is dispatched).
        frontier_time = float("-inf")
        frontier_seq = 0
        while True:
            if bt is None and not self._churn_done:
                if load_block():
                    bt = self._block_times
                    bk = self._block_kinds
                    bs = self._block_sessions
                    bd = self._block_deadlines
                    bid = self._block_idents
                    bi = 0
                    bn = len(bt)
            # ----------------------------------------------------------
            # block fast path
            # ----------------------------------------------------------
            if bt is not None:
                t0 = bt[bi]
                if t0 <= horizon:
                    if heap:
                        top = heap[0]
                        churn_first = t0 < top[0] or (
                            t0 == top[0]
                            and (
                                top[1] > 0
                                or (t0 == frontier_time and top[2] >= frontier_seq)
                            )
                        )
                    else:
                        churn_first = True
                    if churn_first:
                        if t0 < now:
                            raise ValueError(
                                f"clock cannot move backwards: now={now}, "
                                f"requested={t0}"
                            )
                        if t0 > frontier_time:
                            frontier_time = t0
                            frontier_seq = next_seq()
                        if adversary is not None and t0 >= adv_wake:
                            now = clock._now = t0
                            adv_act(t0)
                            adv_wake = adversary.next_wake(t0)
                        # Scan the batch extent.  Row ``bi`` is always
                        # included (the adversary, if due, already acted
                        # at its time); the scan extends the run while
                        # every boundary in the docstring holds.
                        if heap:
                            top = heap[0]
                            hb_time = top[0]
                            # A priority-0 entry at hb_time loses a tie
                            # only to rows of the instant whose watermark
                            # ``frontier_seq`` is (t0): those rows were
                            # pump-admitted before any same-instant push.
                            # Rows at *later* instants are admitted after
                            # the entry existed, so they must yield.
                            hb_tick = top[1] > 0
                            hb_yields_to_t0 = not hb_tick and top[2] >= frontier_seq
                        else:
                            hb_time = _INF
                            hb_tick = True
                            hb_yields_to_t0 = False
                        kind0 = bk[bi]
                        joins = kind0 == 0
                        # Session departures scheduled by batch rows:
                        # the reference pump co-admits only equal-time
                        # rows (its pull bound shrinks to each pushed
                        # row's own time), so a departure scheduled by
                        # a row at an *earlier* instant wins a tie
                        # against a later row (cut at ``>=``), while a
                        # same-instant row was admitted first and stays.
                        min_dep = _INF
                        inst_time = t0
                        track_deps = joins and bd is not None
                        inst_dep = bd[bi] if track_deps else _INF
                        j = bi + 1
                        if t0 < next_sample:
                            while j < bn:
                                t = bt[j]
                                if t > horizon:
                                    break
                                if t > hb_time:
                                    break
                                if t == hb_time and not (
                                    hb_tick or (hb_yields_to_t0 and t == t0)
                                ):
                                    break
                                if t >= adv_wake:
                                    break
                                if bk[j] != kind0:
                                    break
                                if t > inst_time:
                                    if inst_dep < min_dep:
                                        min_dep = inst_dep
                                    inst_dep = _INF
                                    inst_time = t
                                if t >= min_dep:
                                    break
                                if t >= next_sample:
                                    j += 1
                                    break
                                if track_deps:
                                    d = bd[j]
                                    if d < inst_dep:
                                        inst_dep = d
                                j += 1
                        times_seg = bt[bi:j]
                        ids_seg = bid[bi:j] if bid is not None else None
                        k = j - bi
                        if joins:
                            admitted = join_batch(times_seg, ids_seg)
                            if ids_seg is not None:
                                for proposed, uid in zip(ids_seg, admitted):
                                    if proposed is not None and uid is not None:
                                        aliases[proposed] = uid
                            self._good_join_events += k
                            fast_joins += k
                            if bd is not None:
                                off = bi
                                if ids_seg is None:
                                    for uid in admitted:
                                        if uid is not None:
                                            depart_at = bd[off]
                                            if depart_at <= horizon:
                                                heappush(
                                                    heap,
                                                    (depart_at, 0, next_seq(), uid),
                                                )
                                                churn_pushes += 1
                                        off += 1
                                else:
                                    # Named joiners with engine-scheduled
                                    # departures: remember the proposed
                                    # name so the session departure can
                                    # retire the alias entry.
                                    for row, uid in enumerate(admitted):
                                        if uid is not None:
                                            depart_at = bd[off]
                                            if depart_at <= horizon:
                                                heappush(
                                                    heap,
                                                    (depart_at, 0, next_seq(), uid),
                                                )
                                                churn_pushes += 1
                                                proposed = ids_seg[row]
                                                if proposed is not None:
                                                    owners[uid] = proposed
                                        off += 1
                                if len(heap) > max_size:
                                    max_size = len(heap)
                        else:
                            if ids_seg is not None:
                                unalias = aliases.pop
                                ids_seg = [
                                    None if i is None else unalias(i, 0)
                                    for i in ids_seg
                                ]
                            depart_batch(times_seg, ids_seg)
                            self._good_departure_events += k
                        fast_events += k
                        bi = j
                        if bi >= bn:
                            bt = None
                        last_t = times_seg[-1]
                        # Keep the watermark seq: entries the batch hooks
                        # pushed carry later seqs, and every row up to
                        # ``last_t`` was admitted before the batch ran.
                        if last_t > frontier_time:
                            frontier_time = last_t
                        now = clock._now = last_t
                        if last_t >= next_sample:
                            sample()
                            next_sample = last_t + sample_interval
                        if last_t >= snap_next_time:
                            snap_next_time = emit_snapshot(
                                last_t, pops + fast_events,
                                fast_events, len(heap),
                            )
                        continue
            if not heap:
                break
            entry = heap[0]
            event_time = entry[0]
            if event_time > horizon:
                break
            event = heappop(heap)[3]
            pops += 1
            # Keep Clock.advance_to's fail-loud invariant without its
            # call overhead: an event behind the clock means an unsorted
            # churn source or a negative-delay schedule, and processing
            # it would silently corrupt every rate and series.
            if event_time < now:
                raise ValueError(
                    f"clock cannot move backwards: now={now}, "
                    f"requested={event_time}"
                )
            now = clock._now = event_time
            if event_time > frontier_time:
                frontier_time = event_time
                frontier_seq = next_seq()
            if adversary is not None and event_time >= adv_wake:
                adv_act(event_time)
                adv_wake = adversary.next_wake(event_time)
            cls = event.__class__
            if cls is int:
                # Session departure: drain the run of consecutive
                # tuple-backed departures at the heap front.  Bounds
                # mirror the block batch: stop before the adversary's
                # wake, a sample mark, or any same/earlier-time block
                # row (a row loses the seq tie to an already-scheduled
                # departure, so <= is safe).
                run = None
                if event_time < next_sample and heap:
                    top = heap[0]
                    if top[3].__class__ is int:
                        t2 = top[0]
                        # Strict bound: a departure at exactly the next
                        # block row's time leaves the drain, and the
                        # outer loop's tie rules decide who goes first.
                        block_bound = bt[bi] if bt is not None else _INF
                        if t2 < adv_wake and t2 < next_sample and t2 < block_bound:
                            d_times = [event_time]
                            d_ids = [event]
                            while True:
                                drain_pop(heap)
                                pops += 1
                                d_times.append(t2)
                                d_ids.append(top[3])
                                if not heap:
                                    break
                                top = heap[0]
                                if top[3].__class__ is not int:
                                    break
                                t2 = top[0]
                                if (
                                    t2 >= adv_wake
                                    or t2 >= next_sample
                                    or t2 >= block_bound
                                ):
                                    break
                            run = d_times
                if run is not None:
                    now = clock._now = d_times[-1]
                    self._good_departure_events += len(d_ids)
                    depart_batch(d_times, d_ids)
                    if owners:
                        for uid in d_ids:
                            proposed = owners.pop(uid, None)
                            if proposed is not None and aliases.get(proposed) == uid:
                                del aliases[proposed]
                else:
                    self._good_departure_events += 1
                    depart_batch((event_time,), (event,))
                    if owners:
                        proposed = owners.pop(event, None)
                        if proposed is not None and aliases.get(proposed) == event:
                            del aliases[proposed]
            else:
                handler = handlers.get(cls)
                if handler is None:
                    handler = resolve(cls)
                handler(event, event_time)
            if now >= next_sample:
                sample()
                next_sample = now + sample_interval
            if now >= snap_next_time:
                snap_next_time = emit_snapshot(
                    now, pops + fast_events, fast_events, len(heap)
                )
        queue.pops += pops
        queue.pushes += churn_pushes
        if queue.max_size < max_size:
            queue.max_size = max_size
        self._fast_churn_events += fast_events
        self._fast_join_events += fast_joins
        self.clock.advance_to(horizon)
        if adversary is not None and horizon >= adv_wake:
            adv_act(horizon)
        sample()
        if snap_on:
            # Terminal snapshot: cumulative spend here equals the final
            # row exactly (the horizon-time adversary act has run).
            emit_snapshot(horizon, 0, 0, len(queue._heap), last=True)
        return self._summarize()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Initialize membership and schedule initial residual departures.

        Initial members model a system already in steady state: each
        carries a *residual* session time (sampled from the equilibrium
        distribution by the churn datasets) after which it departs.  The
        defense issues each one an int ident; its ``InitialMember.ident``
        name becomes an alias, so trace rows that name it still resolve.
        """
        members = self._initial_members
        issued = self.defense.bootstrap([member.ident for member in members])
        aliases = self._trace_aliases
        owners = self._alias_owners
        horizon = self.config.horizon
        for member, uid in zip(members, issued):
            aliases[member.ident] = uid
            depart_at = member.residual
            if depart_at is not None and 0 <= depart_at <= horizon:
                self.queue.push_departure(depart_at, uid)
                owners[uid] = member.ident

    def _arm_tick(self) -> None:
        """Schedule the first recurring tick (re-armed as each one fires).

        Only one tick is ever resident in the queue: pre-scheduling
        ``horizon / tick_interval`` of them (10,001 heap entries at the
        defaults) made every heap operation pay a log of that bulk.  The
        resident entry is a shared sentinel, not a fresh event object per
        fire.
        """
        interval = self.config.tick_interval
        if interval <= 0:
            return
        if interval <= self.config.horizon:
            self.queue.push_entry(interval, TICK_PRIORITY, _TICK)

    # ------------------------------------------------------------------
    # event handlers (dispatch table; one per event class)
    # ------------------------------------------------------------------
    def _handle_bad_departure(self, event: BadDeparture, now: float) -> None:
        self._bad_departure_events += 1
        self.defense.process_bad_departure(event.ident)

    def _handle_bad_departure_batch(
        self, event: BadDepartureBatch, now: float
    ) -> None:
        """A scheduled Sybil mass withdrawal: one heap entry, one call.

        ``drain_fraction`` batches size themselves against the Sybil
        population standing *now* (the compiler cannot know it in
        advance), so a staged exodus actually stages instead of the
        first oversized batch draining everything.  Counts only the
        departures the schedule delivered (a batch larger than the
        standing Sybil population withdraws what is there, and purge
        evictions tripped along the way stay out -- they are tallied by
        the defense's own counters), so ``bad_departure_events`` keeps
        meaning "withdrawals the adversary's schedule performed".
        """
        count = event.count
        if event.drain_fraction is not None:
            count = math.ceil(self.defense.bad_count() * event.drain_fraction)
        self._bad_departure_events += self.defense.process_bad_departure_batch(
            count
        )

    def _handle_tick_marker(self, marker: _TickMarker, now: float) -> None:
        self.defense.on_tick(now)
        next_tick = now + self.config.tick_interval
        if next_tick <= self.config.horizon:
            self.queue.push_entry(next_tick, TICK_PRIORITY, marker)

    def _handle_callback(self, event: Callback, now: float) -> None:
        event.fn(now)

    def _handler_for(self, cls: type) -> Callable:
        """Resolve (and cache) the handler for an event subclass."""
        for base in cls.__mro__:
            handler = self._handlers.get(base)
            if handler is not None:
                self._handlers[cls] = handler
                return handler
        raise TypeError(f"unhandled event type: {cls.__name__}")

    def _emit_snapshot(self, now: float, events_local: int,
                       fast_local: int, heap_size: int,
                       last: bool = False):
        """Build and deliver one :class:`MetricsSnapshot`; returns the
        sim time of the next one.

        Determinism contract: this reads existing state only --
        ``defense.system_size()`` / ``bad_fraction()`` and the spend
        meters' totals -- draws no RNG, and records nothing into the
        run's :class:`MetricSet`, so the simulated trajectory (and the
        final metrics JSON) is identical with snapshots on or off.
        ``events_local``/``fast_local`` are the loop's running tallies,
        which it flushes into the queue and the fast-path counter only
        when it ends; the flushed totals are added back for the reported
        cumulative fields.
        """
        metrics = self.metrics
        good = metrics.good.total
        adversary = metrics.adversary.total
        dt = now - self._snap_last_time
        wall = time.perf_counter() - self._snap_wall_start  # lint: allow[R001] -- snapshot wall-clock telemetry, never in metrics
        events = self.queue.pops + self._fast_churn_events + events_local
        snapshot = MetricsSnapshot(
            seq=self._snap_seq,
            sim_time=now,
            wall_time_s=wall,
            events=events,
            events_per_sec=events / wall if wall > 0 else 0.0,
            system_size=self.defense.system_size(),
            bad_fraction=self.defense.bad_fraction(),
            good_spend=good,
            adversary_spend=adversary,
            good_spend_rate=(
                (good - self._snap_last_good) / dt if dt > 0 else 0.0
            ),
            adversary_spend_rate=(
                (adversary - self._snap_last_adversary) / dt if dt > 0 else 0.0
            ),
            churn_events_fast=self._fast_churn_events + fast_local,
            heap_size=heap_size,
            last=last,
        )
        self._snap_seq += 1
        self._snap_last_time = now
        self._snap_last_good = good
        self._snap_last_adversary = adversary
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)
        return now + self.config.snapshots.sim_interval

    def _sample_now(self) -> None:
        now = self.clock.now
        size = self.defense.system_size()
        fraction = self.defense.bad_fraction()
        if self.metrics.system_size.last_time() == now:
            return
        self.metrics.system_size.record(now, size)
        self.metrics.bad_fraction.record(now, fraction)

    def _summarize(self) -> SimulationResult:
        horizon = self.config.horizon
        max_bad = self.metrics.bad_fraction.max() if len(self.metrics.bad_fraction) else 0.0
        max_bad = max(max_bad, getattr(self.defense, "peak_bad_fraction", 0.0))
        counters = self.metrics.counters
        churn_total = (
            self._good_join_events
            + self._good_departure_events
            + self._bad_departure_events
        )
        # Path split: fast = applied straight from blocks (zero heap),
        # heap = dispatched from the queue.  These two are diagnostics of
        # *how* events were processed; every other counter matches a
        # per-event simulation of the same run.
        counters.add("churn_events_fast", self._fast_churn_events)
        counters.add("churn_events_heap", churn_total - self._fast_churn_events)
        counters.add("good_joins_fast", self._fast_join_events)
        if self._good_join_events:
            counters.add("good_join_events", self._good_join_events)
        if self._good_departure_events:
            counters.add("good_departure_events", self._good_departure_events)
        if self._bad_departure_events:
            counters.add("bad_departure_events", self._bad_departure_events)
        counters.add("queue_pushes", self.queue.pushes)
        counters.add("queue_pops", self.queue.pops)
        counters.add("queue_max_size", self.queue.max_size)
        return SimulationResult(
            horizon=horizon,
            good_spend=self.metrics.good.total,
            adversary_spend=self.metrics.adversary.total,
            good_spend_rate=self.metrics.good.rate(horizon),
            adversary_spend_rate=self.metrics.adversary.rate(horizon),
            max_bad_fraction=max_bad,
            final_system_size=self.defense.system_size(),
            counters=counters.as_dict(),
            metrics=self.metrics,
        )
