"""Churn scenarios and block-stream statistics and CSV output.

:func:`trace_stats` and :func:`save_trace_csv` take
:class:`~repro.sim.blocks.ChurnBlock` streams -- what the network
models, the scenario compiler and the streaming trace reader produce --
and never expand them: statistics are vectorized array reductions and
CSV rows are written straight from the arrays, so a block stream of any
length passes through in bounded memory.  Hand-written event lists are
packed first with :func:`repro.sim.blocks.blocks_from_events`.

CSV paths ending in ``.gz`` are transparently compressed, matching the
:mod:`repro.traces` streaming reader's convention, and every write is
atomic (:func:`repro.traces.io.write_trace_text`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.sim.blocks import ChurnBlock, JOIN
from repro.traces.io import TRACE_CSV_HEADER, write_trace_text


@dataclass(frozen=True)
class InitialMember:
    """A good ID present at time zero, with its residual session time."""

    ident: str
    residual: Optional[float] = None


@dataclass
class ChurnScenario:
    """An initial population plus a stream of good-churn blocks.

    ``events`` is listed once at construction, so a generator-backed
    scenario reads the same on every pass and can be fed to several
    defenses.
    """

    name: str
    initial: List[InitialMember]
    events: Iterable[ChurnBlock]
    description: str = ""

    def __post_init__(self) -> None:
        self.events = list(self.events)


@dataclass
class TraceStats:
    """Summary statistics of a churn block stream."""

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


def _require_block(item) -> ChurnBlock:
    if not isinstance(item, ChurnBlock):
        raise TypeError(
            f"expected ChurnBlock items, got {type(item).__name__}; pack "
            "event lists with repro.sim.blocks.blocks_from_events"
        )
    return item


class TraceStatsFold:
    """:class:`TraceStats` accumulated one block at a time.

    :func:`trace_stats` folds a whole stream; :meth:`observe` folds
    each block as a consumer pulls it, so a run reads its workload shape
    off the same pass that feeds the engine.  Blocks are reduced with
    vectorized array operations -- no per-event objects are built -- so
    a multi-million-row trace costs ``O(block_size)`` memory end to end.
    The first and last times are the stream's minimum and maximum.  The
    peak-join bins assume the stream is time-sorted, as every producer
    in the repository enforces (generator output, compiled scenarios,
    the streaming trace reader): one open 1-second bin and a running
    maximum replace a per-second map.
    """

    def __init__(self) -> None:
        self._joins = 0
        self._departures = 0
        self._first: Optional[float] = None
        self._last = 0.0
        self._session_sum = 0.0
        self._session_count = 0
        self._open_sec: Optional[int] = None
        self._open_count = 0
        self._peak = 0

    def add(self, block: ChurnBlock) -> None:
        if len(_require_block(block)) == 0:
            return
        times = block.times
        block_first = float(times[0])
        if self._first is None or block_first < self._first:
            self._first = block_first
        self._last = max(self._last, float(times[-1]))
        join_mask = block.kinds == JOIN
        block_joins = int(np.count_nonzero(join_mask))
        self._joins += block_joins
        self._departures += len(block) - block_joins
        if not block_joins:
            return
        if block.sessions is not None:
            sessions = block.sessions[join_mask]
            valid = sessions[~np.isnan(sessions)]
            self._session_sum += float(np.sum(valid))
            self._session_count += len(valid)
        seconds, counts = np.unique(
            np.floor(times[join_mask]).astype(np.int64), return_counts=True
        )
        for sec, cnt in zip(seconds.tolist(), counts.tolist()):
            if sec == self._open_sec:
                self._open_count += cnt
                continue
            self._peak = max(self._peak, self._open_count)
            self._open_sec, self._open_count = sec, cnt

    def observe(self, blocks: Iterable[ChurnBlock]) -> Iterator[ChurnBlock]:
        """Pass ``blocks`` through, folding each one as it is pulled."""
        for block in blocks:
            self.add(block)
            yield block

    def result(self) -> TraceStats:
        """The statistics of every block folded so far."""
        return TraceStats(
            joins=self._joins,
            departures=self._departures,
            first_time=self._first if self._first is not None else 0.0,
            last_time=self._last,
            mean_session=(
                self._session_sum / self._session_count
                if self._session_count
                else None
            ),
            peak_joins_1s=max(self._peak, self._open_count),
        )


def trace_stats(blocks: Iterable[ChurnBlock]) -> TraceStats:
    """Compute joins/departures/rates for a block stream
    (see :class:`TraceStatsFold`)."""
    fold = TraceStatsFold()
    for block in blocks:
        fold.add(block)
    return fold.result()


def save_trace_csv(path, blocks: Iterable[ChurnBlock]) -> None:
    """Write a block stream as ``time,kind,ident,session`` CSV rows.

    Rows are serialized straight from each block's arrays and
    ``blocks`` may be lazy, so converting an arbitrarily long stream
    runs in bounded memory.  A zero or NaN session and an empty ident
    serialize as empty cells.  A ``.gz`` path writes gzip-compressed
    output.  The write is atomic: if ``blocks`` raises part way, ``path``
    is left as it was (:func:`~repro.traces.io.write_trace_text`).
    """
    with write_trace_text(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_CSV_HEADER)
        for block in blocks:
            times = _require_block(block).times.tolist()
            kinds = block.kinds.tolist()
            sessions = (
                block.sessions.tolist() if block.sessions is not None else None
            )
            idents = block.idents
            for i, t in enumerate(times):
                ident = (idents[i] if idents is not None else None) or ""
                if kinds[i] == JOIN:
                    session = sessions[i] if sessions is not None else 0.0
                    # NaN (no session) and 0.0 both write an empty cell.
                    cell = session if session == session and session else ""
                    writer.writerow([f"{t:.6f}", "join", ident, cell])
                else:
                    writer.writerow([f"{t:.6f}", "depart", ident, ""])
