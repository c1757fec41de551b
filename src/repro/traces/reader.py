"""Streaming trace reader: CSV rows in, :class:`ChurnBlock` batches out.

:func:`stream_trace_blocks` parses a (possibly gzipped) trace file in
bounded chunks and assembles struct-of-arrays blocks directly, never one
``Event`` object per row -- a multi-month consensus flap trace with
millions of rows replays with peak memory ``O(block_size)``, and the
engine's zero-heap fast path consumes the stream as it is read.

Streaming contract:

* input rows must be time-sorted (the reader raises, naming the line,
  on the first regression -- it cannot sort without materializing);
* only blocks come out, never per-event objects;
* blocks hold ``block_size`` rows (the last one may be shorter), and
  each block's ``sessions`` / ``idents`` are present only when some row
  in that block carries one, matching
  :meth:`repro.sim.blocks.ChurnBlock.from_events`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.sim.blocks import DEPART, JOIN, ChurnBlock
from repro.traces.io import TRACE_CSV_HEADER, open_trace_text

#: Rows per emitted block; matches the generators' and
#: :func:`~repro.sim.blocks.blocks_from_events`' default.
DEFAULT_BLOCK_SIZE = 4096

_NAN = float("nan")


def _check_header(header: Optional[List[str]], path) -> None:
    if header is None:
        raise ValueError(f"{path}: empty trace file (missing CSV header)")
    if [h.strip() for h in header] != TRACE_CSV_HEADER:
        raise ValueError(
            f"{path}: unexpected trace header {header!r}; "
            f"expected {TRACE_CSV_HEADER}"
        )


def _bad_number(path, lineno: int, column: str, cell: str) -> ValueError:
    return ValueError(
        f"{path}: line {lineno}: {column} {cell!r} is not a number"
    )


def stream_trace_blocks(
    path: Union[str, Path],
    block_size: int = DEFAULT_BLOCK_SIZE,
    start: float = 0.0,
    time_scale: float = 1.0,
    duration: Optional[float] = None,
    origin: Optional[float] = None,
) -> Iterator[ChurnBlock]:
    """Stream a (possibly gzipped) trace CSV as churn blocks.

    Row times are re-based: with ``origin`` defaulting to the first
    row's time, a row at ``t`` lands at ``start + (t - origin) *
    time_scale``, and rows whose scaled offset exceeds ``duration`` end
    the stream (the file's tail is never read).  Sessions are *not*
    scaled -- they are durations in the replayed timeline.
    """
    if block_size <= 0:
        raise ValueError(f"block size must be positive: {block_size}")
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive: {time_scale}")
    with open_trace_text(path) as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), path)
        times: List[float] = []
        kinds: List[int] = []
        sessions: List[float] = []
        idents: List[Optional[str]] = []
        any_session = False
        any_ident = False
        prev = float("-inf")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 cells "
                    f"(time,kind,ident,session), got {len(row)}"
                )
            try:
                t = float(row[0])
            except ValueError:
                raise _bad_number(path, lineno, "time", row[0]) from None
            if t < prev:
                raise ValueError(
                    f"{path}: line {lineno}: time {t} precedes {prev}; "
                    "the trace must be time-sorted: sort the rows by time"
                )
            prev = t
            if origin is None:
                origin = t
            offset = (t - origin) * time_scale
            if duration is not None and offset > duration:
                break
            kind = row[1]
            if kind == "join":
                kinds.append(JOIN)
                cell = row[3]
                if cell:
                    try:
                        sessions.append(float(cell))
                    except ValueError:
                        raise _bad_number(
                            path, lineno, "session", cell
                        ) from None
                    any_session = True
                else:
                    sessions.append(_NAN)
            elif kind == "depart":
                kinds.append(DEPART)
                sessions.append(_NAN)
            else:
                raise ValueError(
                    f"{path}: line {lineno}: unknown event kind {kind!r}"
                )
            times.append(start + offset)
            ident = row[2] or None
            idents.append(ident)
            if ident is not None:
                any_ident = True
            if len(times) >= block_size:
                yield ChurnBlock(
                    times,
                    kinds,
                    sessions=np.asarray(sessions) if any_session else None,
                    idents=idents if any_ident else None,
                )
                times, kinds, sessions, idents = [], [], [], []
                any_session = False
                any_ident = False
        if times:
            yield ChurnBlock(
                times,
                kinds,
                sessions=np.asarray(sessions) if any_session else None,
                idents=idents if any_ident else None,
            )


def peek_trace_origin(path: Union[str, Path]) -> Optional[float]:
    """The first data row's time, or ``None`` for a header-only file.

    Also validates the header, so a bad file fails at resolution time
    (compile) rather than mid-simulation.
    """
    with open_trace_text(path) as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), path)
        for lineno, row in enumerate(reader, start=2):
            if row:
                try:
                    return float(row[0])
                except ValueError:
                    raise _bad_number(path, lineno, "time", row[0]) from None
    return None


class TraceBlockStream:
    """A re-iterable, bounded-memory block view of one trace file.

    This is what the scenario compiler stores for a
    :class:`~repro.scenarios.spec.TraceReplay` phase: each iteration
    re-opens the file and yields fresh blocks, so the workload summary
    and the engine can both walk the trace without either one
    materializing it.  ``origin`` is fixed at construction (the first
    row's time), making every pass identical.
    """

    __slots__ = ("path", "start", "time_scale", "duration", "block_size", "origin")

    def __init__(
        self,
        path: Union[str, Path],
        start: float = 0.0,
        time_scale: float = 1.0,
        duration: Optional[float] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.path = Path(path)
        self.start = start
        self.time_scale = time_scale
        self.duration = duration
        self.block_size = block_size
        self.origin = peek_trace_origin(self.path)

    @property
    def empty(self) -> bool:
        return self.origin is None

    @property
    def t_begin(self) -> float:
        """Earliest possible replayed event time (the origin row)."""
        return self.start

    @property
    def t_end_bound(self) -> float:
        """Upper bound on the last replayed event time."""
        if self.duration is None:
            return float("inf")
        return self.start + self.duration

    def __iter__(self) -> Iterator[ChurnBlock]:
        if self.origin is None:
            return iter(())
        return stream_trace_blocks(
            self.path,
            block_size=self.block_size,
            start=self.start,
            time_scale=self.time_scale,
            duration=self.duration,
            origin=self.origin,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceBlockStream({self.path.name}, start={self.start}, "
            f"scale={self.time_scale}, duration={self.duration})"
        )
