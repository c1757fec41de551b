"""Counters, time series, and spend meters.

The paper's headline quantities are *rates*: the good spend rate ``A``
(total resource-burning cost of good IDs per second) and the adversary's
spend rate ``T``.  :class:`SpendMeter` accumulates raw costs and converts
them to rates over a given horizon.  :class:`SlidingWindowCounter`
implements the "number of IDs that joined within the last ``1/J̃``
seconds" query at the heart of Ergo's entrance cost (Figure 4, Step 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np


class Counter:
    """A dictionary of named integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts})"


class TimeSeries:
    """An append-only series of ``(time, value)`` samples.

    Backed by preallocated numpy buffers with amortized doubling growth:
    :meth:`record` is an O(1) scalar store (no per-sample list-object
    churn once event dispatch itself is cheap), and :attr:`times` /
    :attr:`values` are zero-copy array views over the filled prefix --
    analysis code gets vectorized access for free.  Treat the views as
    read-only; they alias the live buffers.
    """

    __slots__ = ("name", "_times", "_values", "_n")

    #: Initial buffer capacity (doubles as the series grows).
    INITIAL_CAPACITY = 32

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times = np.empty(self.INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty(self.INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0

    def record(self, time: float, value: float) -> None:
        n = self._n
        times = self._times
        if n:
            if time < times[n - 1]:
                raise ValueError(
                    f"time series {self.name!r} must be appended in time order"
                )
            if n == times.shape[0]:
                self._times = np.empty(2 * n, dtype=np.float64)
                self._times[:n] = times
                times = self._times
                values = np.empty(2 * n, dtype=np.float64)
                values[:n] = self._values
                self._values = values
        times[n] = time
        self._values[n] = value
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(
            zip(self._times[: self._n].tolist(), self._values[: self._n].tolist())
        )

    @property
    def times(self) -> np.ndarray:
        """Zero-copy float64 view of the sample times.

        The view aliases the live buffer: a later :meth:`record` that
        triggers an amortized-doubling resize leaves previously fetched
        views pointing at the *old* buffer.  Re-fetch after writing, or
        take a stable snapshot with :meth:`arrays`.
        """
        return self._times[: self._n]

    @property
    def values(self) -> np.ndarray:
        """Zero-copy float64 view of the sample values.

        Same aliasing caveat as :attr:`times`: re-fetch after any
        :meth:`record`, or use :meth:`arrays` for a stable snapshot.
        """
        return self._values[: self._n]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of ``(times, values)``, stable across future records.

        Use this at result-assembly boundaries (exports, reports) where
        the series may still be appended to afterwards; the zero-copy
        views go stale when a resize reallocates the buffers.
        """
        return self._times[: self._n].copy(), self._values[: self._n].copy()

    def max(self) -> float:
        if not self._n:
            raise ValueError(f"time series {self.name!r} is empty")
        return float(self._values[: self._n].max())

    def min(self) -> float:
        if not self._n:
            raise ValueError(f"time series {self.name!r} is empty")
        return float(self._values[: self._n].min())

    def last(self) -> float:
        if not self._n:
            raise ValueError(f"time series {self.name!r} is empty")
        return float(self._values[self._n - 1])

    def last_time(self) -> Optional[float]:
        """Time of the most recent sample, or ``None`` when empty (O(1))."""
        if not self._n:
            return None
        return float(self._times[self._n - 1])

    def value_at(self, time: float) -> float:
        """The most recent sample at or before ``time`` (step function)."""
        idx = int(np.searchsorted(self._times[: self._n], time, side="right")) - 1
        if idx < 0:
            raise ValueError(f"no sample at or before t={time}")
        return float(self._values[idx])


class SpendMeter:
    """Accumulates resource-burning costs for one party.

    Costs are classified by *category* (``"entrance"``, ``"purge"``,
    ``"recurring"``, ...) so experiments can report the breakdown that
    Section 7.1's intuition talks about (entrance costs vs purge costs).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._total = 0.0
        self._by_category: Dict[str, float] = {}

    def charge(self, amount: float, category: str = "other") -> None:
        if amount < 0:
            raise ValueError(f"negative charge on {self.name!r}: {amount}")
        self._total += amount
        self._by_category[category] = self._by_category.get(category, 0.0) + amount

    def charge_seq(self, amounts, category: str = "other") -> None:
        """Charge a sequence of amounts, one at a time.

        Float-exact equivalent of calling :meth:`charge` per amount (the
        running totals accumulate in the same order), minus the per-call
        overhead -- used by the defenses' whole-run join hooks, where
        accumulation order must match per-row ``charge`` calls bit for
        bit.
        """
        total = self._total
        cat_total = self._by_category.get(category, 0.0)
        for amount in amounts:
            if amount < 0:
                raise ValueError(f"negative charge on {self.name!r}: {amount}")
            total += amount
            cat_total += amount
        self._total = total
        self._by_category[category] = cat_total

    @property
    def total(self) -> float:
        return self._total

    def by_category(self) -> Dict[str, float]:
        return dict(self._by_category)

    def rate(self, horizon: float) -> float:
        """Average spend per second over a horizon of ``horizon`` seconds."""
        if horizon <= 0:
            raise ValueError(f"non-positive horizon: {horizon}")
        return self._total / horizon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpendMeter({self.name!r}, total={self._total:.2f})"


class SlidingWindowCounter:
    """Counts events inside a trailing time window of mutable width.

    Ergo's entrance cost is ``1 +`` the number of IDs that joined within
    the last ``1/J̃`` seconds *of the current iteration* (Figure 4).  The
    window width changes whenever GoodJEst updates ``J̃``, and the counter
    is cleared at iteration boundaries, so both operations are supported.

    Events are stored as sorted ``(time, prefix-count)`` parallel arrays
    behind a *width-aware cursor*: for the monotone query times a
    simulation produces, ``count`` advances the cursor to the window's
    left edge in amortized O(1), and a width change just walks it back.
    Counting is **non-destructive**: a batch that has aged out of the
    current window is *kept*, so a later ``set_width`` to a wider window
    (GoodJEst revising J̃ downward makes ``1/J̃`` grow) correctly
    re-admits it.  The destructive-eviction layout this replaces
    permanently undercounted after such a widening.  Whole join runs are
    quoted and recorded in one pass by :meth:`quote_record_run` (the
    engine's block fast path).

    ``max_width`` bounds how far back a future window can ever reach:
    batches older than ``now - max_width`` may be pruned, and
    ``set_width`` beyond ``max_width`` is rejected.  ``None`` (the
    default) keeps every batch until :meth:`clear`.
    """

    #: run length below which the scalar quote loop beats the
    #: vectorized pass (numpy calls have fixed per-call overhead)
    _VECTOR_MIN = 12

    def __init__(self, width: float, max_width: Optional[float] = None) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive: {width}")
        if max_width is not None and max_width < width:
            raise ValueError(
                f"max_width {max_width} is narrower than the width {width}"
            )
        self._width = float(width)
        self._max_width = float(max_width) if max_width is not None else None
        #: batch times (sorted) and prefix sums: ``_cum[i]`` = events in
        #: batches ``[0, i)``; plain lists -- scalar access dominates
        self._t: List[float] = []
        self._cum: List[int] = [0]
        #: index of the first batch inside the last-queried window
        self._cursor = 0
        #: batches before this index were pruned (beyond ``max_width``)
        self._head = 0
        #: events are never counted before this time (iteration start)
        self._floor = float("-inf")

    @property
    def width(self) -> float:
        return self._width

    @property
    def max_width(self) -> Optional[float]:
        return self._max_width

    @property
    def _batches(self) -> List[List[float]]:
        """Live batches as ``[time, count]`` pairs (tests/debugging)."""
        t = self._t[self._head :]
        cum = self._cum[self._head :]
        return [[time, cum[i + 1] - cum[i]] for i, time in enumerate(t)]

    def set_width(self, width: float) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive: {width}")
        if self._max_width is not None and width > self._max_width:
            raise ValueError(
                f"width {width} exceeds max_width {self._max_width}; "
                "events that far back may already be pruned"
            )
        self._width = float(width)

    def clear(self, now: float) -> None:
        """Forget all events and refuse to count anything before ``now``."""
        self._t = []
        self._cum = [0]
        self._cursor = 0
        self._head = 0
        self._floor = float(now)

    def _prune(self, now: float) -> None:
        """Advance past batches no representable window can reach."""
        horizon = now - self._max_width
        t = self._t
        n = len(t)
        head = self._head
        while head < n and t[head] <= horizon:
            head += 1
        if head > 1024 and head * 2 > n:
            # Compact the pruned prefix away (amortized O(1) per event).
            del t[:head]
            base = self._cum[head]
            self._cum = [c - base for c in self._cum[head:]]
            self._cursor = max(self._cursor - head, 0)
            head = 0
        self._head = head

    def record(self, now: float, count: int = 1) -> None:
        if now < self._floor:
            raise ValueError("cannot record an event before the window floor")
        if count < 0:
            raise ValueError(f"negative event count: {count}")
        if count == 0:
            return
        t = self._t
        if t and t[-1] == now:
            self._cum[-1] += count
            return
        t.append(now)
        self._cum.append(self._cum[-1] + count)
        if self._max_width is not None:
            self._prune(now)

    def count(self, now: float) -> int:
        """Number of recorded events in ``(now - width, now]``.

        Events at exactly ``now - width`` have aged out; events at
        exactly the floor time (recorded in the same instant as a
        ``clear``) still count.  Aged-out batches are *not* discarded:
        a later, wider window still sees them (up to ``max_width``).
        """
        cutoff = now - self._width
        t = self._t
        n = len(t)
        c = self._cursor
        if c > n:
            c = n
        while c < n and t[c] <= cutoff:
            c += 1
        head = self._head
        while c > head and t[c - 1] > cutoff:
            c -= 1
        self._cursor = c
        return self._cum[n] - self._cum[c]

    # -- whole-run batch operations (the engine's block fast path) ------
    def record_run(self, times) -> None:
        """Record a non-decreasing run of single events in one pass."""
        k = len(times)
        if k == 0:
            return
        t0 = times[0]
        if t0 < self._floor:
            raise ValueError("cannot record an event before the window floor")
        cum = self._cum
        base = cum[-1]
        if isinstance(times, np.ndarray):
            times = times.tolist()
        self._t.extend(times)
        cum.extend(range(base + 1, base + k + 1))
        if self._max_width is not None:
            self._prune(times[-1])

    def quote_record_run(self, times) -> List[int]:
        """Per-row window counts for a run of joins, then record them.

        Entry ``i`` equals what ``count(times[i])`` would have returned
        just before ``record(times[i], 1)`` -- i.e. the exact per-row
        quote-then-record sequence of Ergo's entrance pricing (Figure 4
        Step 1), computed in one pass.  Short runs use the cursor
        scalar path; long runs one vectorized pass over the window's
        tail slice.
        """
        k = len(times)
        if k == 0:
            return []
        if isinstance(times, np.ndarray):
            times = times.tolist()
        if times[0] < self._floor:
            raise ValueError("cannot record an event before the window floor")
        t_list = self._t
        cum = self._cum
        if k < self._VECTOR_MIN or (t_list and t_list[-1] > times[0]):
            # Scalar path: each row counts through the cursor (seeing
            # the rows of this run appended before it), then appends.
            counts = []
            append_count = counts.append
            count = self.count
            append_t = t_list.append
            append_cum = cum.append
            for now in times:
                append_count(count(now))
                append_t(now)
                append_cum(cum[-1] + 1)
            if self._max_width is not None:
                self._prune(times[-1])
            return counts
        return self._quote_record_vector(times, k)

    def _quote_record_vector(self, times: List[float], k: int) -> List[int]:
        """One vectorized pass over the window's in-reach tail slice."""
        t = np.asarray(times, dtype=np.float64)
        cutoffs = t - self._width
        t_list = self._t
        cum = self._cum
        n = len(t_list)
        # Move the cursor to the first batch inside row 0's window; only
        # the tail slice from there on can fall inside any row's window
        # (cutoffs are non-decreasing), so the numpy conversion below is
        # proportional to the window content, not the history.
        c = self._cursor
        if c > n:
            c = n
        cut0 = float(cutoffs[0])
        while c < n and t_list[c] <= cut0:
            c += 1
        head = self._head
        while c > head and t_list[c - 1] > cut0:
            c -= 1
        self._cursor = c
        prior = np.asarray(t_list[c:n], dtype=np.float64)
        prior_cum = np.asarray(cum[c : n + 1], dtype=np.int64)
        # All prior batches are at or before t[0] (the caller routed
        # out-of-order histories to the scalar path), so "events at or
        # before t[i]" is the whole slice for every row.
        counts = prior_cum[n - c] - prior_cum[
            np.searchsorted(prior, cutoffs, side="right")
        ]
        # Rows of this run that precede row i and are still inside its
        # window: all j < i with t[j] > t[i] - width.
        counts += np.arange(k) - np.searchsorted(t, cutoffs, side="right")
        base = cum[-1]
        t_list.extend(times)
        cum.extend(range(base + 1, base + k + 1))
        if self._max_width is not None:
            self._prune(times[-1])
        return counts.tolist()


@dataclass(frozen=True)
class SnapshotPolicy:
    """When the engine emits incremental :class:`MetricsSnapshot` rows.

    The engine emits a snapshot whenever the clock crosses the next
    ``sim_interval`` mark.  Emission is strictly *observational*: the
    engine samples existing counters and spend totals at batch
    boundaries it would have taken anyway, draws no RNG, and records
    nothing into the run's metrics -- so final metrics are
    byte-identical with snapshots on or off.
    """

    #: emit whenever simulated time advances past the next mark
    sim_interval: float

    def __post_init__(self) -> None:
        if self.sim_interval <= 0:
            raise ValueError(
                f"sim_interval must be positive seconds: {self.sim_interval}"
            )


class MetricsSnapshot(NamedTuple):
    """One incremental telemetry row emitted mid-run by the engine.

    Spend *totals* are cumulative since the start of the run; spend
    *rates* are deltas since the previous snapshot divided by the
    simulated time elapsed between them, so a live reader sees the
    paper's headline quantities (good rate ``A`` vs adversary rate
    ``T``) as they evolve.  ``wall_time_s`` / ``events_per_sec`` are
    wall-clock observability fields and the only nondeterministic ones;
    everything else is a pure function of the simulated trajectory.

    A ``NamedTuple`` rather than a (frozen) dataclass deliberately:
    construction happens inside the engine loop, and tuple creation is
    several times cheaper than fourteen ``object.__setattr__`` calls --
    the difference is most of the snapshot hook's overhead budget.
    """

    #: 0-based emission index within this run
    seq: int
    sim_time: float
    #: wall seconds since the run started (nondeterministic)
    wall_time_s: float
    #: logical events processed so far (heap pops + fast-path rows)
    events: int
    #: events / wall_time_s (nondeterministic)
    events_per_sec: float
    system_size: int
    bad_fraction: float
    good_spend: float
    adversary_spend: float
    #: delta spend / delta sim-time since the previous snapshot
    good_spend_rate: float
    adversary_spend_rate: float
    #: good-churn rows applied via the zero-heap block fast path so far
    churn_events_fast: int
    #: resident event-heap entries at emission time
    heap_size: int
    #: True only for the terminal snapshot emitted at the horizon
    last: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return self._asdict()


@dataclass
class MetricSet:
    """The standard bundle of metrics a simulation run produces."""

    good: SpendMeter = field(default_factory=lambda: SpendMeter("good"))
    adversary: SpendMeter = field(default_factory=lambda: SpendMeter("adversary"))
    counters: Counter = field(default_factory=Counter)
    bad_fraction: TimeSeries = field(
        default_factory=lambda: TimeSeries("bad_fraction")
    )
    system_size: TimeSeries = field(default_factory=lambda: TimeSeries("system_size"))
    estimate_ratio: TimeSeries = field(
        default_factory=lambda: TimeSeries("estimate_ratio")
    )

    def good_spend_rate(self, horizon: float) -> float:
        return self.good.rate(horizon)

    def adversary_spend_rate(self, horizon: float) -> float:
        return self.adversary.rate(horizon)
