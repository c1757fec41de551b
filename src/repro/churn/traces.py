"""Churn scenarios and block-stream statistics and CSV output.

:func:`trace_stats` and :func:`save_trace_csv` take
:class:`~repro.sim.blocks.ChurnBlock` streams -- what the network
models, the scenario compiler and the streaming trace reader produce --
and never expand them: statistics are vectorized array reductions and
CSV rows are written straight from the arrays, so a block stream of any
length passes through in bounded memory.  Hand-written event lists are
packed first with :func:`repro.sim.blocks.blocks_from_events`.

CSV paths ending in ``.gz`` are transparently compressed, matching the
:mod:`repro.traces` streaming reader's convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.sim.blocks import ChurnBlock, JOIN
from repro.traces.io import TRACE_CSV_HEADER, open_trace_text


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


def trace_stats(blocks: Iterable[ChurnBlock]) -> TraceStats:
    """Compute joins/departures/rates for a block stream.

    Blocks are reduced with vectorized array operations -- no per-event
    objects are built -- so a multi-million-row trace costs
    ``O(block_size)`` memory end to end.  The first and last times are
    the stream's minimum and maximum.  The peak-join bins assume the
    stream is time-sorted, as every producer in the repository enforces
    (generator output, compiled scenarios, the streaming trace reader):
    one open 1-second bin and a running maximum replace a per-second
    map.
    """
    stats = TraceStats()
    session_sum = 0.0
    session_count = 0
    first: Optional[float] = None
    last = 0.0
    open_sec: Optional[int] = None
    open_count = 0
    peak = 0
    for block in blocks:
        if len(_require_block(block)) == 0:
            continue
        times = block.times
        block_first = float(times[0])
        if first is None or block_first < first:
            first = block_first
        last = max(last, float(times[-1]))
        join_mask = block.kinds == JOIN
        block_joins = int(np.count_nonzero(join_mask))
        stats.joins += block_joins
        stats.departures += len(block) - block_joins
        if not block_joins:
            continue
        if block.sessions is not None:
            sessions = block.sessions[join_mask]
            valid = sessions[~np.isnan(sessions)]
            session_sum += float(np.sum(valid))
            session_count += len(valid)
        seconds, counts = np.unique(
            np.floor(times[join_mask]).astype(np.int64), return_counts=True
        )
        for sec, cnt in zip(seconds.tolist(), counts.tolist()):
            if sec == open_sec:
                open_count += cnt
                continue
            peak = max(peak, open_count)
            open_sec, open_count = sec, cnt
    stats.first_time = first if first is not None else 0.0
    stats.last_time = last
    if session_count:
        stats.mean_session = session_sum / session_count
    stats.peak_joins_1s = max(peak, open_count)
    return stats


def save_trace_csv(path, blocks: Iterable[ChurnBlock]) -> None:
    """Write a block stream as ``time,kind,ident,session`` CSV rows.

    Rows are serialized straight from each block's arrays and
    ``blocks`` may be lazy, so converting an arbitrarily long stream
    runs in bounded memory.  A zero or NaN session and an empty ident
    serialize as empty cells.  A ``.gz`` path writes gzip-compressed
    output.
    """
    with open_trace_text(path, "wt") as handle:
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
