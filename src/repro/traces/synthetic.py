"""Synthetic consensus-flap traces: Tor-scale churn without the network.

Real relay consensus traces (Winter et al.'s Sybil characterization
data) are multi-month, multi-million-event files that CI cannot fetch.
This module generates statistically similar flap traces offline and
deterministically: a fleet of relays alternates between *up* (a
heavy-tailed Weibull uptime -- most relays flap quickly, a few stay up
for a long time, matching measured relay session fits) and *down* (an
exponential downtime whose mean is modulated by a diurnal factor, so
flap intensity follows a day/night cycle the way consensus weights do).

Each up-phase emits a ``join`` row at its start and a ``depart`` row at
its end, with explicit relay idents and *no* session column -- the same
shape as the packaged ``tor_relay_flap.csv`` fixture, so everything
downstream (streaming reader, replay phases, stats) treats generated
and measured traces identically.

Generation is a single time-ordered merge over per-relay state machines
(one pending event per relay in a heap), so traces of any length are
produced in ``O(relays)`` memory and can be written straight to a
gzipped CSV.  Each row's work is done once: random draws come from
numpy in chunks, each relay's CSV ident cell is escaped once, and rows
are written in joined chunks.  Generation is fully deterministic: the same
spec always yields the same rows, and
:func:`~repro.traces.io.write_trace_text` (a fixed gzip level, no file
name or mtime in the header) turns them into byte-identical files in
any process, which is what lets synthetic registry entries be
(re)generated on demand anywhere and pinned by SHA-256.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.sim.blocks import DEPART, JOIN, ChurnBlock
from repro.traces.io import TRACE_CSV_HEADER, write_trace_text


@dataclass(frozen=True)
class SyntheticFlapSpec:
    """Parameters of one synthetic consensus-flap trace (picklable)."""

    relays: int = 2000
    duration: float = 86_400.0
    seed: int = 2021
    #: mean relay uptime (seconds); Weibull with ``uptime_shape`` < 1
    #: gives the heavy tail measured for relay sessions.
    mean_uptime: float = 3_600.0
    uptime_shape: float = 0.55
    #: mean downtime at diurnal factor 1.0.
    mean_downtime: float = 900.0
    #: flap-rate modulation: downtime mean is divided by
    #: ``1 + amplitude * sin(2*pi*t / period)``.
    diurnal_amplitude: float = 0.6
    diurnal_period: float = 86_400.0
    ident_prefix: str = "relay"

    def __post_init__(self) -> None:
        if self.relays < 1:
            raise ValueError(f"need at least one relay: {self.relays}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.mean_uptime <= 0 or self.mean_downtime <= 0:
            raise ValueError("uptime/downtime means must be positive")
        if self.uptime_shape <= 0:
            raise ValueError(f"uptime_shape must be positive: {self.uptime_shape}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1): {self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0:
            raise ValueError(f"period must be positive: {self.diurnal_period}")

    @property
    def expected_events(self) -> int:
        """Rough expected row count (one join + one depart per cycle)."""
        cycle = self.mean_uptime + self.mean_downtime
        return int(2 * self.relays * self.duration / cycle)


#: Standard exponentials drawn per numpy call.
DRAW_CHUNK = 4096

#: Rows formatted per write of :func:`write_flap_csv`: enough to
#: amortize the write call, few enough that the formatted chunk keeps
#: generation's peak memory near the heap's own.
ROWS_PER_WRITE = 1024


def _relay_idents(spec: SyntheticFlapSpec) -> List[str]:
    width = len(str(max(spec.relays - 1, 1)))
    return [f"{spec.ident_prefix}-{i:0{width}d}" for i in range(spec.relays)]


def _flap_events(spec: SyntheticFlapSpec) -> Iterator[Tuple[float, int, int]]:
    """Yield ``(time, relay index, kind)`` rows in global time order.

    Memory is ``O(relays)``: a heap holds exactly one pending event per
    relay, and each emitted row is replaced by that relay's next event.
    Every draw is one standard exponential ``E``: numpy's
    ``exponential(s)`` is ``s * E`` and its ``weibull(a)`` is
    ``E ** (1 / a)``, so drawing ``E`` in chunks of :data:`DRAW_CHUNK`
    gives the scalar calls' values bit for bit, in the same order.
    """
    rng = np.random.default_rng(spec.seed)

    def exponentials() -> Iterator[float]:
        while True:
            yield from rng.standard_exponential(DRAW_CHUNK).tolist()

    draw = exponentials().__next__
    # Weibull scale solved from the mean: E[X] = scale * Gamma(1 + 1/k).
    up_scale = spec.mean_uptime / math.gamma(1.0 + 1.0 / spec.uptime_shape)
    up_power = 1.0 / spec.uptime_shape
    mean_down = spec.mean_downtime
    amplitude = spec.diurnal_amplitude
    omega = 2.0 * math.pi / spec.diurnal_period
    sin = math.sin

    # Every relay starts down; its first join is one downtime away (the
    # diurnal factor is 1 at t = 0).  A downtime's mean is divided by
    # the diurnal factor at its start.  The heap entry is the emitted
    # row; the relay index breaks float ties deterministically, and a
    # relay never has two pending events, so `kind` is never compared.
    heap = [(mean_down * draw(), i, JOIN) for i in range(spec.relays)]
    heapq.heapify(heap)
    replace = heapq.heapreplace
    duration = spec.duration
    while True:
        row = heap[0]
        t, i, kind = row
        if t > duration:
            # The heap is time-ordered: everything left is later still.
            return
        yield row
        if kind == JOIN:
            replace(heap, (t + draw() ** up_power * up_scale, i, DEPART))
        else:
            factor = 1.0 + amplitude * sin(omega * t)
            replace(heap, (t + mean_down / factor * draw(), i, JOIN))


def synthetic_flap_rows(
    spec: SyntheticFlapSpec,
) -> Iterator[Tuple[float, int, str]]:
    """Yield ``(time, kind, ident)`` rows in global time order."""
    idents = _relay_idents(spec)
    for t, relay, kind in _flap_events(spec):
        yield t, kind, idents[relay]


def synthetic_flap_blocks(
    spec: SyntheticFlapSpec, block_size: int = 4096
) -> Iterator[ChurnBlock]:
    """Pack the generated rows into churn blocks (idents, no sessions)."""
    if block_size <= 0:
        raise ValueError(f"block size must be positive: {block_size}")
    times: list = []
    kinds: list = []
    idents: list = []
    for t, kind, ident in synthetic_flap_rows(spec):
        times.append(t)
        kinds.append(kind)
        idents.append(ident)
        if len(times) >= block_size:
            yield ChurnBlock(times, kinds, idents=idents)
            times, kinds, idents = [], [], []
    if times:
        yield ChurnBlock(times, kinds, idents=idents)


def write_flap_csv(path: Union[str, Path], spec: SyntheticFlapSpec) -> int:
    """Generate a trace into ``path`` (gzipped iff ``.gz``); returns the
    row count.

    Rows are in the :data:`~repro.traces.io.TRACE_CSV_HEADER` format
    with empty session cells, exactly as :mod:`csv` writes them; each
    relay's ident cell is escaped once.  The write is atomic and its
    bytes are a function of ``spec`` alone
    (:func:`~repro.traces.io.write_trace_text`).
    """
    buf = io.StringIO()
    writerow = csv.writer(buf, lineterminator="").writerow
    cells = []
    for ident in _relay_idents(spec):
        writerow((ident,))
        cells.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    names = {JOIN: "join", DEPART: "depart"}
    rows = _flap_events(spec)
    count = 0
    with write_trace_text(path) as out:
        csv.writer(out).writerow(TRACE_CSV_HEADER)
        while True:
            chunk = [
                f"{t:.6f},{names[kind]},{cells[relay]},\r\n"
                for t, relay, kind in islice(rows, ROWS_PER_WRITE)
            ]
            if not chunk:
                return count
            out.write("".join(chunk))
            count += len(chunk)
