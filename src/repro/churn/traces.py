"""Materialized churn traces: containers, statistics, CSV round-trips.

A scenario's ``events`` may be classic per-event objects *or*
struct-of-arrays :class:`~repro.sim.blocks.ChurnBlock` batches (the
block form is what the network models produce and the engine's fast
path consumes).  :func:`trace_stats` and :func:`save_trace_csv` operate
on blocks **without expanding them**: statistics are computed with
vectorized array reductions and CSV rows are emitted straight from the
arrays, so a block stream of any length passes through in bounded
memory (per-event objects are only ever built for per-event inputs).
:meth:`ChurnScenario.replay` still expands blocks for classic
consumers.

CSV paths ending in ``.gz`` are transparently (de)compressed, matching
the :mod:`repro.traces` streaming reader's convention.
"""

from __future__ import annotations

import collections.abc
import csv
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.sim.blocks import ChurnBlock, JOIN, flatten_churn as _iter_flat
from repro.sim.events import Event, GoodDeparture, GoodJoin
from repro.traces.io import TRACE_CSV_HEADER, open_trace_text


@dataclass(frozen=True)
class InitialMember:
    """A good ID present at time zero, with its residual session time."""

    ident: str
    residual: Optional[float] = None


class _SingleUseEvents:
    """Guard around a lazy event stream: a second pass raises, loudly.

    A generator-backed ``ChurnScenario.events`` is single-use; before
    this guard, replaying or computing stats on an unmaterialized
    scenario silently exhausted the stream, and the *next* consumer saw
    an empty trace with no hint why.  Now the first iteration passes
    through untouched and any further iteration raises with the fix.
    """

    __slots__ = ("_iter", "_name", "_consumed")

    def __init__(self, iterable, name: str) -> None:
        self._iter = iter(iterable)
        self._name = name
        self._consumed = False

    def __iter__(self):
        if self._consumed:
            raise RuntimeError(
                f"scenario {self._name!r}: its lazy event stream was "
                "already consumed (generators are single-use); call "
                "materialize() before replaying or computing stats, or "
                "construct the scenario with a list"
            )
        self._consumed = True
        return self._iter


@dataclass
class ChurnScenario:
    """An initial population plus a stream of good-churn events.

    ``events`` may be a list (replayable) or a lazy iterator (single
    use) of events and/or churn blocks; :meth:`materialize` forces a
    list so the scenario can be fed to several defenses for
    apples-to-apples comparisons.  Lazy streams are wrapped so that a
    second iteration raises instead of silently yielding nothing.
    """

    name: str
    initial: List[InitialMember]
    events: Union[Sequence, Iterator]
    description: str = ""

    def __post_init__(self) -> None:
        events = self.events
        # Only true iterators are single-use; re-iterable containers
        # (tuples, deques, arrays) and already-guarded streams are left
        # alone.  The isinstance probe is side-effect free -- calling
        # iter() here would itself consume a single-use source.
        if not isinstance(events, list) and isinstance(
            events, collections.abc.Iterator
        ):
            self.events = _SingleUseEvents(events, self.name)

    def materialize(self) -> "ChurnScenario":
        if not isinstance(self.events, list):
            self.events = list(self.events)
        return self

    def replay(self) -> Iterator[Event]:
        """Iterate per-event objects; requires a materialized scenario."""
        if not isinstance(self.events, list):
            raise TypeError("call materialize() before replaying a scenario")
        return _iter_flat(self.events)


class SortedPeakJoins:
    """Streaming peak of joins per 1-second bin, O(1) memory.

    Assumes bin seconds arrive in non-decreasing order across calls --
    true for every block producer in the repository (generator output,
    compiled scenarios, the streaming trace reader, all of which
    enforce time order), so the peak of an arbitrarily long sorted
    stream needs one open bin and a running maximum rather than a
    per-second map.
    """

    __slots__ = ("sec", "count", "peak")

    def __init__(self) -> None:
        self.sec: Optional[int] = None
        self.count = 0
        self.peak = 0

    def add_block(self, join_times: np.ndarray) -> None:
        seconds, counts = np.unique(
            np.floor(join_times).astype(np.int64), return_counts=True
        )
        for sec, cnt in zip(seconds.tolist(), counts.tolist()):
            if sec == self.sec:
                self.count += cnt
                continue
            if self.count > self.peak:
                self.peak = self.count
            self.sec = sec
            self.count = cnt

    def result(self) -> int:
        return max(self.peak, self.count)


@dataclass
class TraceStats:
    """Summary statistics of an event or block sequence."""

    joins: int = 0
    departures: int = 0
    first_time: float = 0.0
    last_time: float = 0.0
    mean_session: Optional[float] = None
    #: max joins falling into any 1-second bin (0 for join-free traces)
    peak_joins_1s: int = 0

    @property
    def duration(self) -> float:
        return max(self.last_time - self.first_time, 0.0)

    @property
    def join_rate(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.joins / self.duration


def trace_stats(events: Iterable) -> TraceStats:
    """Compute joins/departures/rates for an event or block sequence.

    Blocks are reduced with vectorized array operations -- no per-event
    objects are built -- and their peak-join bins stream through
    :class:`SortedPeakJoins`, so a multi-million-row trace costs
    ``O(block_size)`` memory end to end.  Per-event items keep an exact
    per-second map (they may arrive in any order; such traces are
    small).  In a mixed stream, same-second joins split across the two
    shapes contribute to their own tally and the peak takes the larger.
    """
    stats = TraceStats()
    session_sum = 0.0
    session_count = 0
    first: Optional[float] = None
    last = 0.0
    peak = SortedPeakJoins()
    bins: dict = {}
    for item in events:
        if isinstance(item, ChurnBlock):
            if len(item) == 0:
                continue
            times = item.times
            block_first = float(times[0])
            if first is None or block_first < first:
                first = block_first
            block_last = float(times[-1])
            if block_last > last:
                last = block_last
            join_mask = item.kinds == JOIN
            block_joins = int(np.count_nonzero(join_mask))
            stats.joins += block_joins
            stats.departures += len(item) - block_joins
            if item.sessions is not None and block_joins:
                sessions = item.sessions[join_mask]
                valid = sessions[~np.isnan(sessions)]
                if len(valid):
                    session_sum += float(np.sum(valid))
                    session_count += len(valid)
            if block_joins:
                peak.add_block(times[join_mask])
        else:
            event = item
            if first is None or event.time < first:
                first = event.time
            last = max(last, event.time)
            if isinstance(event, GoodJoin):
                stats.joins += 1
                if event.session is not None:
                    session_sum += event.session
                    session_count += 1
                sec = int(np.floor(event.time))
                bins[sec] = bins.get(sec, 0) + 1
            elif isinstance(event, GoodDeparture):
                stats.departures += 1
    stats.first_time = first if first is not None else 0.0
    stats.last_time = last
    if session_count:
        stats.mean_session = session_sum / session_count
    stats.peak_joins_1s = max(peak.result(), max(bins.values(), default=0))
    return stats


def _write_block_rows(writer, block: ChurnBlock) -> None:
    """Emit one block's CSV rows straight from its arrays.

    Produces byte-identical output to expanding the block into events
    first (including the historical falsy-cell rule: a 0.0 session and
    an empty ident both serialize as empty cells).
    """
    times = block.times.tolist()
    kinds = block.kinds.tolist()
    sessions = block.sessions.tolist() if block.sessions is not None else None
    idents = block.idents
    for i, t in enumerate(times):
        ident = idents[i] if idents is not None else None
        if kinds[i] == JOIN:
            session = sessions[i] if sessions is not None else None
            cell = session if session is not None and session == session and session else ""
            writer.writerow([f"{t:.6f}", "join", ident or "", cell])
        else:
            writer.writerow([f"{t:.6f}", "depart", ident or "", ""])


def save_trace_csv(path, events: Iterable) -> None:
    """Write a trace (events and/or blocks) as ``time,kind,ident,session``.

    Streams: blocks are serialized row-by-row from their arrays without
    expansion, and ``events`` may be a lazy iterable, so converting an
    arbitrarily long block stream to CSV runs in bounded memory.  A
    ``.gz`` path writes gzip-compressed output.
    """
    with open_trace_text(path, "wt") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_CSV_HEADER)
        for item in events:
            if isinstance(item, ChurnBlock):
                _write_block_rows(writer, item)
            elif isinstance(item, GoodJoin):
                writer.writerow(
                    [f"{item.time:.6f}", "join", item.ident or "", item.session or ""]
                )
            elif isinstance(item, GoodDeparture):
                writer.writerow([f"{item.time:.6f}", "depart", item.ident or "", ""])
            else:
                raise TypeError(
                    f"cannot serialize event type {type(item).__name__}"
                )


def load_trace_csv(path) -> List[Event]:
    """Read a trace written by :func:`save_trace_csv` (gzip-aware).

    This is the *eager* loader -- every row becomes an ``Event`` object.
    For long traces use :func:`repro.traces.stream_trace_blocks`, which
    yields churn blocks in bounded memory instead.
    """
    events: List[Event] = []
    with open_trace_text(path) as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            time = float(row["time"])
            ident = row["ident"] or None
            if row["kind"] == "join":
                session = float(row["session"]) if row["session"] else None
                events.append(GoodJoin(time=time, ident=ident, session=session))
            elif row["kind"] == "depart":
                events.append(GoodDeparture(time=time, ident=ident))
            else:
                raise ValueError(f"unknown event kind {row['kind']!r}")
    return events
