"""GoodJEst: estimating the good join rate (Figure 5).

    t  ← time at system initialization.
    J̃  ← |S(t)| divided by time required for initialization.
    Repeat forever: whenever |S(t') △ S(t)| ≥ (5/12)|S(t')|:
        1.  J̃ ← |S(t')| / (t' − t)
        2.  t ← t'

The estimator needs no knowledge of which IDs are good, of epoch
boundaries, or of α and β.  Theorem 2 guarantees (given a bad fraction
below 1/6) that ``J̃`` is within ``[ρ/(88 α⁴ β³), 1867 α⁴ β⁵ ρ]`` of the
true good join rate ρ of any epoch the estimate lives in.

Heuristic 1 (Section 10.3) aligns updates with Ergo's purges: when the
interval threshold trips, the update is *deferred* and applied right
after the next purge, so the membership size used in step 1 contains at
most a κ-fraction of bad IDs.  Set ``defer_updates=True`` and have the
defense call :meth:`apply_deferred` after purging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.population import SystemPopulation

#: Interval threshold from Figure 5; see Section 9.3 for why 5/12.
INTERVAL_THRESHOLD = 5.0 / 12.0

#: Floor on an interval's length and on J̃: an interval that closes at
#: the instant it opened must not divide by zero or zero the estimate.
MIN_INTERVAL_LENGTH = 1e-9

#: Trip distance meaning "no run of this kind can trip".
_NEVER = 1 << 62


@dataclass(frozen=True)
class IntervalRecord:
    """One completed GoodJEst interval (for analysis/experiments)."""

    start: float
    end: float
    size_at_end: int
    estimate: float


class GoodJEst:
    """The good-join-rate estimator, fed by a defense's population view."""

    TRACKER = "goodjest"

    def __init__(
        self,
        population: SystemPopulation,
        threshold: float = INTERVAL_THRESHOLD,
        defer_updates: bool = False,
    ) -> None:
        self._population = population
        self._threshold = float(threshold)
        self._defer = bool(defer_updates)
        self._estimate: Optional[float] = None
        self._interval_start: Optional[float] = None
        self._pending = False
        self._intervals: List[IntervalRecord] = []
        population.attach_combined_tracker(self.TRACKER)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initialize(self, now: float, initialization_duration: float = 1.0) -> None:
        """Set the initial estimate from the bootstrap population.

        "Initially, GoodJEst sets J̃ equal to the number of IDs at system
        initialization divided by the total time taken for
        initialization" (Section 8); initialization is one round of
        1-hard challenges, so the default duration is one second.
        """
        if initialization_duration <= 0:
            raise ValueError("initialization duration must be positive")
        size = self._population.size
        self._estimate = max(size / initialization_duration, MIN_INTERVAL_LENGTH)
        self._interval_start = now
        self._population.reset_combined_tracker(self.TRACKER)

    @property
    def estimate(self) -> float:
        """The current estimate J̃ (raises if never initialized)."""
        if self._estimate is None:
            raise RuntimeError("GoodJEst.initialize() was never called")
        return self._estimate

    @property
    def intervals(self) -> List[IntervalRecord]:
        """Completed intervals, oldest first."""
        return list(self._intervals)

    @property
    def has_pending_update(self) -> bool:
        return self._pending

    # ------------------------------------------------------------------
    # event feed
    # ------------------------------------------------------------------
    def on_event(self, now: float) -> bool:
        """Check the interval rule after a join/departure.

        Returns ``True`` if the estimate was updated (or, in deferred
        mode, if an update became pending).
        """
        if self._estimate is None:
            raise RuntimeError("GoodJEst.initialize() was never called")
        if self._pending:
            return False
        diff = self._population.combined_sym_diff(self.TRACKER)
        if diff < self._threshold * self._population.size:
            return False
        if self._defer:
            self._pending = True
            return True
        self._update(now)
        return True

    def joins_until_update(self) -> int:
        """Exact count of further *pure good joins* before a trip.

        During a run of good joins, the combined symmetric difference
        and the system size each grow by exactly 1 per row, so the k-th
        next join trips the interval rule iff
        ``diff + k >= threshold * (size + k)`` -- evaluated with the
        same float arithmetic as :meth:`on_event`, so Ergo's vectorized
        join batches can stop at precisely the row where the per-row
        loop would have updated.  Returns at least 1; a huge sentinel
        when no number of joins can trip (deferred update pending, or a
        threshold ≥ 1 never crossed).
        """
        return self._rows_until_trip(1)

    def departures_until_update_bound(self) -> int:
        """A safe lower bound on departures before a trip can occur.

        A departure moves the combined symmetric difference by at most
        +1 while shrinking the size by 1 (a post-snapshot member leaving
        *reduces* the difference), so the worst case approaches the
        interval rule fastest via ``diff + k >= threshold * (size - k)``.
        Any run shorter than the returned bound cannot trip before its
        final row; the caller re-checks exactly with :meth:`on_event`.
        """
        return self._rows_until_trip(-1)

    def _rows_until_trip(self, step: int) -> int:
        """Least ``k >= 1`` with ``diff + k >= threshold * (size + step*k)``.

        ``step`` is the size change per row (+1 join, -1 departure).
        The closed form ``k = ceil((threshold*size - diff) /
        (1 - step*threshold))`` can be off by an ulp, so the result
        settles on the exact first ``k`` that satisfies the
        :meth:`on_event` comparison.
        """
        if self._estimate is None:
            raise RuntimeError("GoodJEst.initialize() was never called")
        if self._pending:
            return _NEVER
        diff = self._population.combined_sym_diff(self.TRACKER)
        size = self._population.size
        thr = self._threshold
        if diff + 1 >= thr * (size + step):
            return 1
        divisor = 1.0 - step * thr
        if divisor <= 0.0:
            # diff + k - thr*(size + step*k) is non-increasing in k.
            return _NEVER
        k = int(math.ceil((thr * size - diff) / divisor))
        if k < 1:
            k = 1
        while diff + k < thr * (size + step * k):
            k += 1
        while k > 1 and diff + (k - 1) >= thr * (size + step * (k - 1)):
            k -= 1
        return k

    def apply_deferred(self, now: float) -> bool:
        """Apply a pending update (Heuristic 1: call right after a purge)."""
        if not self._pending:
            return False
        self._pending = False
        self._update(now)
        return True

    def _update(self, now: float) -> None:
        elapsed = max(now - self._interval_start, MIN_INTERVAL_LENGTH)
        size = self._population.size
        new_estimate = max(size / elapsed, MIN_INTERVAL_LENGTH)
        self._intervals.append(
            IntervalRecord(
                start=self._interval_start,
                end=now,
                size_at_end=size,
                estimate=new_estimate,
            )
        )
        self._estimate = new_estimate
        self._interval_start = now
        self._population.reset_combined_tracker(self.TRACKER)
