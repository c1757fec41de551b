"""Good-churn event generators.

Two families:

* **Measurement-style generators** (:func:`poisson_join_blocks`,
  :func:`modulated_join_blocks`): joins arrive by a (possibly
  inhomogeneous) Poisson process and each joiner carries a session
  duration sampled from a network's session distribution.  Departures
  happen when sessions expire -- the engine schedules them.  This is how
  the paper simulates BitTorrent, Ethereum and Gnutella (Section 10).

* **Exactly-smooth synthetic traces** (:func:`smooth_trace`): events are
  laid out to satisfy α,β-smoothness *by construction*, with a planned
  sequence of epoch rates.  Used by property tests that compare
  GoodJEst's estimate against the Theorem-2 envelope for known (α, β).

The measurement-style generators emit struct-of-arrays
:class:`~repro.sim.blocks.ChurnBlock` batches (``times`` via one
vectorized cumulative sum of exponential gaps per block, ``sessions``
via one vectorized distribution draw) instead of one ``Event`` object
per ID; the engine consumes them directly through its zero-heap fast
path.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.churn.sessions import SessionDistribution, sample_session_array
from repro.sim.blocks import JOIN, ChurnBlock
from repro.sim.events import Event, GoodDeparture, GoodJoin

#: Rows per generated block.  Big enough to amortize the vectorized RNG
#: draws and the per-block Python overhead, small enough that lazily
#: consumed sources stay lazy (a horizon cutoff wastes at most one
#: block of draws).
DEFAULT_BLOCK_SIZE = 4096


def poisson_join_blocks(
    rate: float,
    session_dist: SessionDistribution,
    rng: np.random.Generator,
    horizon: Optional[float] = None,
    start: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[ChurnBlock]:
    """Homogeneous Poisson joins at ``rate`` per second, as churn blocks.

    Each block draws ``block_size`` exponential inter-arrival gaps and
    the matching session durations in two vectorized calls; arrival
    times are the running cumulative sum.  With ``horizon=None`` the
    stream is unbounded (consume lazily!).
    """
    if rate <= 0:
        return
    if block_size <= 0:
        raise ValueError(f"block size must be positive: {block_size}")
    scale = 1.0 / rate
    now = start
    kinds = np.zeros(block_size, dtype=np.uint8)
    while True:
        gaps = rng.exponential(scale, size=block_size)
        times = now + np.cumsum(gaps)
        if horizon is not None:
            keep = int(np.searchsorted(times, horizon, side="right"))
            if keep == 0:
                return
            if keep < block_size:
                yield ChurnBlock(
                    times[:keep],
                    kinds[:keep],
                    sessions=sample_session_array(session_dist, rng, keep),
                )
                return
        sessions = sample_session_array(session_dist, rng, block_size)
        yield ChurnBlock(times, kinds, sessions=sessions)
        now = float(times[-1])


def modulated_join_blocks(
    rate_fn: Callable[[float], float],
    max_rate: float,
    session_dist: SessionDistribution,
    rng: np.random.Generator,
    horizon: float,
    start: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[ChurnBlock]:
    """Inhomogeneous Poisson joins via thinning, as churn blocks.

    ``rate_fn(t)`` must never exceed ``max_rate``; candidate arrivals are
    generated at ``max_rate`` (vectorized per block) and kept with
    probability ``rate_fn(t)/max_rate``.  ``rate_fn`` itself is an
    arbitrary Python callable, so it is evaluated per candidate; the RNG
    draws (gaps, acceptance uniforms, sessions) are all vectorized.
    """
    if max_rate <= 0:
        raise ValueError(f"max_rate must be positive: {max_rate}")
    if block_size <= 0:
        raise ValueError(f"block size must be positive: {block_size}")
    scale = 1.0 / max_rate
    bound = max_rate + 1e-9
    now = start
    while True:
        gaps = rng.exponential(scale, size=block_size)
        times = now + np.cumsum(gaps)
        accept = rng.random(block_size)
        keep = int(np.searchsorted(times, horizon, side="right"))
        done = keep < block_size
        kept_times: List[float] = []
        for i in range(keep):
            t = float(times[i])
            rate = rate_fn(t)
            if rate < 0 or rate > bound:
                raise ValueError(f"rate_fn({t}) = {rate} outside [0, {max_rate}]")
            if accept[i] < rate / max_rate:
                kept_times.append(t)
        if kept_times:
            n = len(kept_times)
            yield ChurnBlock(
                kept_times,
                np.full(n, JOIN, dtype=np.uint8),
                sessions=sample_session_array(session_dist, rng, n),
            )
        if done:
            return
        now = float(times[-1])


def diurnal_rate(base_rate: float, amplitude: float, period: float = 86_400.0):
    """A day-night modulated rate: ``base·(1 + amplitude·sin(2πt/period))``."""
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1): {amplitude}")

    def rate_fn(t: float) -> float:
        return base_rate * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))

    return rate_fn


def smooth_trace(
    n0: int,
    epoch_rates: Sequence[float],
    rng: np.random.Generator,
    beta: float = 1.0,
    keep_size_constant: bool = True,
) -> List[Event]:
    """An exactly α,β-smooth trace with planned epoch rates.

    Construction: the system holds ``n0`` good IDs.  For epoch *i* with
    rate ``ρ_i``, joins are spaced ``1/ρ_i`` apart (β = 1) or jittered
    within their slot by up to a factor β (β > 1, which keeps counts
    within the Definition-1 window).  Each join is paired with a
    departure of the *oldest* present ID, so the size stays constant and
    the good-set symmetric difference advances by exactly 2 per pair --
    which makes each planned epoch complete exactly where intended
    (after ``n0/4 + 1`` pairs the difference strictly exceeds ``n0/2``).

    The effective α of the trace is ``max_i ρ_{i+1}/ρ_i`` (and its
    inverse); callers pick ``epoch_rates`` accordingly.

    Returns a flat, time-ordered event list.  Departures reference
    explicit idents; joins carry idents ``e{epoch}-j{index}``.  Pack it
    with :func:`repro.sim.blocks.blocks_from_events` to feed the
    engine's batched fast path.
    """
    if n0 < 4:
        raise ValueError(f"n0 too small for a smooth trace: {n0}")
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1: {beta}")
    events: List[Event] = []
    population: List[str] = [f"init-{i}" for i in range(n0)]
    now = 0.0
    for epoch_index, rate in enumerate(epoch_rates):
        if rate <= 0:
            raise ValueError(f"epoch rate must be positive: {rate}")
        # n0/4 + 1 join+departure pairs advance the good symmetric
        # difference to strictly more than n0/2, ending the epoch.
        pairs = max(n0 // 4 + 1, 2)
        slot = 1.0 / rate
        for pair_index in range(pairs):
            base = now + pair_index * slot
            if beta > 1.0:
                jitter = slot * (1.0 - 1.0 / beta)
                offset = float(rng.uniform(0.0, jitter))
            else:
                offset = 0.0
            join_time = base + offset
            ident = f"e{epoch_index}-j{pair_index}"
            events.append(GoodJoin(time=join_time, ident=ident))
            population.append(ident)
            if keep_size_constant:
                # Oldest-first departures guarantee every pair moves the
                # symmetric difference by 2 (the victim is always a
                # snapshot member while the epoch lasts).
                victim = population.pop(0)
                events.append(GoodDeparture(time=join_time + slot * 0.25, ident=victim))
        now += pairs * slot
    events.sort(key=lambda e: e.time)
    return events
