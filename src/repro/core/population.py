"""The server's population view: individual good IDs, aggregate bad IDs.

Why aggregate?  At adversarial spend rate T = 2^20 the adversary can
inject on the order of 10^6 Sybil joins *per second* against CCom
(entrance cost 1).  Materializing each Sybil ID as an object would make
the Figure-8 sweep intractable; but Sybil IDs are interchangeable for
every quantity the protocols compute (set sizes, symmetric differences,
purge evictions), so we track them as *cohorts* ``(join_serial,
join_time, count)``.

Good IDs stay individual because the ABC model selects the departing
good ID uniformly at random and session-based traces bind departures to
specific IDs.

Symmetric-difference bookkeeping for the aggregate side: for a snapshot
taken at serial watermark ``w``,

* ``snapshot_present`` = bad IDs with serial ≤ ``w`` still in the system,
* ``departed``        = bad IDs from the snapshot that have left,
* post-snapshot bad IDs still present = ``total - snapshot_present``,

so ``|B(t') △ B(s)| = (total - snapshot_present) + departed`` in O(1)
amortized per event.  Serials (not times) delineate snapshots because
several joins and a snapshot reset can share one timestamp; the serial
order is the event order, matching the ABC model's assumption that the
server totally orders events (Section 2.1.1).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.identity.membership import (
    ArenaMembershipSet,
    SymmetricDifferenceTracker,
)


@dataclass
class _BadSnapshot:
    """Per-tracker symmetric-difference state for the aggregate bad set."""

    watermark: int
    snapshot_present: int
    departed: int


class AggregateBadPopulation:
    """Sybil IDs tracked as cohorts of identical members."""

    def __init__(self) -> None:
        #: deque of [serial, join_time, count] cohorts, oldest first
        self._cohorts: Deque[List[float]] = deque()
        self._serials = itertools.count(1)
        self._last_serial = 0
        self._total = 0
        self._snapshots: Dict[str, _BadSnapshot] = {}

    # -- snapshots ---------------------------------------------------------
    def attach_tracker(self, name: str) -> None:
        self._snapshots[name] = _BadSnapshot(
            watermark=self._last_serial, snapshot_present=self._total, departed=0
        )

    def reset_tracker(self, name: str) -> None:
        snap = self._snapshots[name]
        snap.watermark = self._last_serial
        snap.snapshot_present = self._total
        snap.departed = 0

    def sym_diff(self, name: str) -> int:
        snap = self._snapshots[name]
        new_present = self._total - snap.snapshot_present
        return new_present + snap.departed

    # -- mutation ------------------------------------------------------------
    def join(self, count: int, now: float) -> None:
        if count < 0:
            raise ValueError(f"negative join count: {count}")
        if count == 0:
            return
        serial = next(self._serials)
        self._last_serial = serial
        self._cohorts.append([serial, float(now), count])
        self._total += count

    def evict_oldest(self, count: int) -> int:
        """Remove up to ``count`` of the oldest bad IDs; return removed."""
        removed = 0
        while count > 0 and self._cohorts:
            cohort = self._cohorts[0]
            take = min(count, int(cohort[2]))
            self._apply_eviction(int(cohort[0]), take)
            cohort[2] -= take
            if cohort[2] == 0:
                self._cohorts.popleft()
            removed += take
            count -= take
        return removed

    def evict_newest(self, count: int) -> int:
        """Remove up to ``count`` of the newest bad IDs; return removed."""
        removed = 0
        while count > 0 and self._cohorts:
            cohort = self._cohorts[-1]
            take = min(count, int(cohort[2]))
            self._apply_eviction(int(cohort[0]), take)
            cohort[2] -= take
            if cohort[2] == 0:
                self._cohorts.pop()
            removed += take
            count -= take
        return removed

    def evict_all(self) -> int:
        return self.evict_oldest(self._total)

    def _apply_eviction(self, serial: int, count: int) -> None:
        self._total -= count
        for snap in self._snapshots.values():
            if serial <= snap.watermark:
                # These were snapshot members: moving them out grows the
                # |S(t) − S(t')| side of the symmetric difference.
                snap.snapshot_present -= count
                snap.departed += count
            # Post-snapshot members joining and leaving cancel out: the
            # "new present" term shrinks automatically via self._total.

    # -- queries -------------------------------------------------------------
    @property
    def total(self) -> int:
        return self._total

    @property
    def cohort_count(self) -> int:
        return len(self._cohorts)


class SystemPopulation:
    """Combined view: ``S(t)`` = good membership ∪ aggregate bad population.

    Named trackers span both sides so GoodJEst's interval rule
    ``|S(t') △ S(t)| ≥ (5/12)|S(t')|`` and Heuristic 2's purge rule see
    the full set, while epoch detection attaches a good-only tracker
    directly to :attr:`good`.
    """

    def __init__(self) -> None:
        self.good = ArenaMembershipSet()
        self.bad = AggregateBadPopulation()
        self._combined: List[str] = []

    # -- trackers ------------------------------------------------------------
    def attach_combined_tracker(self, name: str) -> None:
        self.good.attach_tracker(name, SymmetricDifferenceTracker())
        self.bad.attach_tracker(name)
        self._combined.append(name)

    def reset_combined_tracker(self, name: str) -> None:
        self.good.reset_tracker(name)
        self.bad.reset_tracker(name)

    def combined_sym_diff(self, name: str) -> int:
        good_diff = self.good.tracker(name).symmetric_difference
        return good_diff + self.bad.sym_diff(name)

    # -- mutation ------------------------------------------------------------
    def good_join(self, ident: str) -> None:
        self.good.add(ident)

    def good_depart(self, ident: str) -> bool:
        return self.good.discard(ident)

    def random_good(self, rng: np.random.Generator) -> Optional[str]:
        return self.good.random_good(rng)

    def bad_join(self, count: int, now: float) -> None:
        self.bad.join(count, now)

    # -- queries -------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.good.size + self.bad.total

    @property
    def good_count(self) -> int:
        return self.good.size

    @property
    def bad_count(self) -> int:
        return self.bad.total

    def bad_fraction(self) -> float:
        total = self.size
        if total == 0:
            return 0.0
        return self.bad.total / total
