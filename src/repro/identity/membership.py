"""Membership sets with O(1) incremental symmetric-difference tracking.

Both GoodJEst and the ABC model's epochs are defined in terms of the
symmetric difference between the current membership set and a past
snapshot:

* GoodJEst updates its estimate when ``|S(t') △ S(t)| ≥ (5/12)|S(t')|``
  over *all* IDs (Figure 5);
* an epoch ends when the symmetric difference of the *good* sets exceeds
  half the good population at the epoch start (Section 2.1.2).

Recomputing ``|A △ B|`` from scratch is O(n) per event, and even taking
an O(n) snapshot at each interval/iteration boundary is ruinous: against
CCom at T = 2^20 the simulation executes on the order of 10^7 purges.
:class:`SymmetricDifferenceTracker` therefore works with *serial
watermarks*: every member is stamped with a monotonically increasing
join serial, a snapshot is just the serial watermark at reset time, and

* ``snapshot_present``  = members with serial ≤ watermark still present,
* ``departed``          = snapshot members that left,
* ``|S_now − S_snap|``  = current size − snapshot_present,
* ``|S_snap − S_now|``  = departed,

all maintained in O(1) per event with O(1) resets.  This exploits the
fact that joining IDs are always brand new (unique names, Section
2.1.1): an ID that joins after the snapshot and then departs cancels out
of the symmetric difference automatically -- exactly the subtlety the
paper highlights in Section 8.1.

The storage is :class:`ArenaMembershipSet`, which holds only good IDs:
Sybil IDs are interchangeable and live as cohorts in
:class:`repro.core.population.AggregateBadPopulation`, while a good ID
must be tracked individually because the departing one is drawn
uniformly at random (Section 2).  It is one dense table -- an ident
list, a parallel serial column and an ident -> position map -- that
grows by appending and shrinks by swap-remove, giving O(1) uniform
selection.  Whole-run batch mutators
(:meth:`~ArenaMembershipSet.add_batch` /
:meth:`~ArenaMembershipSet.remove_batch`) replace the per-member work
that would otherwise dominate the engine's block fast path, which is
what makes 10^6-ID populations simulable in seconds.

``tests/reference_sim.py`` holds a deliberately naive reference (a
dict, a swap-remove list, and set snapshots for the symmetric
difference); ``tests/test_membership_backends.py`` checks the table,
per-row and batched, against it op for op, including the swap-remove
order that seeded ``random_good`` draws depend on.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

import numpy as np


class SymmetricDifferenceTracker:
    """Tracks ``|S_now △ S_snapshot|`` against a serial watermark.

    Owned by a membership set, which feeds it join/departure *serials*
    and its current size.
    """

    def __init__(self) -> None:
        self._watermark = 0
        self._snapshot_present = 0
        self._departed = 0
        self._current_size = 0

    def reset(self, current_size: int, watermark: int) -> None:
        """Take a new snapshot: everyone present right now is in it."""
        self._watermark = watermark
        self._snapshot_present = current_size
        self._departed = 0
        self._current_size = current_size

    def on_join(self, serial: int) -> None:
        if serial <= self._watermark:
            raise ValueError(
                f"join with stale serial {serial}; "
                "serials must increase monotonically"
            )
        self._current_size += 1

    def on_depart(self, serial: int) -> None:
        self._current_size -= 1
        if serial <= self._watermark:
            # A snapshot member left: grows |S_snap − S_now|.
            self._snapshot_present -= 1
            self._departed += 1
        # Post-snapshot members joining then leaving cancel out.

    # -- batch feeds (whole-run mutators) ----------------------------------
    def on_join_batch(self, count: int, first_serial: int) -> None:
        """``count`` joins with serials starting at ``first_serial``."""
        if first_serial <= self._watermark:
            raise ValueError(
                f"join with stale serial {first_serial}; "
                "serials must increase monotonically"
            )
        self._current_size += count

    def on_depart_batch(self, serials) -> None:
        """A run of departures, given the serials of the removed members."""
        watermark = self._watermark
        if len(serials) > 256:
            below = int(
                np.count_nonzero(np.asarray(serials, dtype=np.int64) <= watermark)
            )
        else:
            below = 0
            for serial in serials:
                if serial <= watermark:
                    below += 1
        self._current_size -= len(serials)
        self._snapshot_present -= below
        self._departed += below

    @property
    def symmetric_difference(self) -> int:
        """``|S_now △ S_snapshot|``."""
        joined_since = self._current_size - self._snapshot_present
        return joined_since + self._departed

    @property
    def snapshot_size(self) -> int:
        """Size of the snapshot when it was taken (present + departed)."""
        return self._snapshot_present + self._departed

    @property
    def joined_since_snapshot(self) -> int:
        """``|S_now − S_snapshot|``: post-snapshot joiners still present."""
        return self._current_size - self._snapshot_present

    @property
    def departed_from_snapshot(self) -> int:
        """``|S_snapshot − S_now|``: snapshot members that left."""
        return self._departed


def _extend_ramp(column: array, start: int, count: int) -> None:
    """``column.extend(range(start, start + count))``, done fast.

    A typed array converts Python ints one at a time through the
    argument parser; past a handful of rows one numpy ``arange`` copied
    in as raw bytes is several times cheaper.
    """
    if count < 8:
        column.extend(range(start, start + count))
    else:
        column.frombytes(np.arange(start, start + count, dtype=np.int64).tobytes())


class ArenaMembershipSet:
    """The server's set of good IDs, stored as one dense swap-remove table.

    Position ``i`` of the table holds an ident (``_idents``) and its join
    serial (``_serials``); ``_pos_of`` maps each ident to its position.
    A join appends a row; a departure moves the last row into the hole.
    That is exactly the order of a plain swap-remove list, which is what
    seeded ``random_good`` draws index into.

    Serials sit in an ``array('q')``, one raw machine value per member
    where a list would hold a pointer to a boxed int.  Like a list, and
    unlike a numpy buffer, it appends and pops in O(1) with cheap scalar
    access, which the engine's mix of whole-run batches and single-row
    mutations needs.  Whole-run joins fill serials from a numpy ramp.

    Supports O(1) joins and removals, O(1) uniform random selection (the
    ABC model's departure rule), any number of attached
    O(1)-per-event :class:`SymmetricDifferenceTracker` views, and
    whole-run batch mutators (:meth:`add_batch` / :meth:`remove_batch`)
    for the engine's block fast path.
    """

    def __init__(self) -> None:
        self._pos_of: Dict[str, int] = {}
        self._idents: List[str] = []
        self._serials = array("q")
        self._trackers: Dict[str, SymmetricDifferenceTracker] = {}
        self._tracker_list: List[SymmetricDifferenceTracker] = []
        self._serial = 0

    # -- tracker plumbing --------------------------------------------------
    def attach_tracker(self, name: str, tracker: SymmetricDifferenceTracker) -> None:
        tracker.reset(len(self._idents), self._serial)
        self._trackers[name] = tracker
        self._tracker_list = list(self._trackers.values())

    def tracker(self, name: str) -> SymmetricDifferenceTracker:
        return self._trackers[name]

    def reset_tracker(self, name: str) -> None:
        self._trackers[name].reset(len(self._idents), self._serial)

    def sym_diff(self, name: str) -> int:
        return self._trackers[name].symmetric_difference

    # -- mutation ----------------------------------------------------------
    def add(self, ident: str) -> None:
        pos_of = self._pos_of
        if ident in pos_of:
            raise ValueError(f"duplicate ID {ident!r}")
        serial = self._serial + 1
        self._serial = serial
        pos_of[ident] = len(self._idents)
        self._idents.append(ident)
        self._serials.append(serial)
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_join(serial)

    def add_batch(self, idents: Sequence[str]) -> None:
        """Add a run of brand-new members.

        Observably equivalent to calling :meth:`add` row by row: serials
        are assigned in order, the table grows in ident order, and
        trackers see one aggregated update.
        """
        k = len(idents)
        if k == 0:
            return
        if k == 1:
            # Single-row runs (steady-state interleave) skip the batch
            # machinery; ``add`` performs the same checks and feeds.
            self.add(idents[0])
            return
        pos_of = self._pos_of
        if not pos_of.keys().isdisjoint(idents):
            for ident in idents:
                if ident in pos_of:
                    raise ValueError(f"duplicate ID {ident!r}")
        if len(set(idents)) != k:
            # Checked *before* mutating: an intra-batch duplicate must
            # not leave a ghost row behind the raised error.
            raise ValueError("duplicate ident within one add_batch call")
        a = len(self._idents)
        s0 = self._serial
        self._serial = s0 + k
        self._idents.extend(idents)
        _extend_ramp(self._serials, s0 + 1, k)
        pos_of.update(zip(idents, range(a, a + k)))
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_join_batch(k, s0 + 1)

    def discard(self, ident: str) -> bool:
        """Remove ``ident`` if present; return whether it was."""
        pos = self._pos_of.pop(ident, None)
        if pos is None:
            return False
        idents = self._idents
        serials = self._serials
        serial = serials[pos]
        last = idents.pop()
        last_serial = serials.pop()
        if pos != len(idents):
            idents[pos] = last
            serials[pos] = last_serial
            self._pos_of[last] = pos
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_depart(serial)
        return True

    #: Same call; ``perfbench/layers.py`` times both names.
    remove = discard

    def remove_batch(self, idents: Sequence[str]) -> int:
        """Remove a run of named members; absent idents are no-ops.

        Returns the number actually removed.  Swap-removals happen in
        ident order, exactly as sequential :meth:`discard` calls would,
        so the table ends in the identical permutation (and later
        ``random_good`` draws are unaffected by batching).  Trackers see
        one aggregated update per run.
        """
        if len(idents) == 1:
            return 1 if self.discard(idents[0]) else 0
        pos_of = self._pos_of
        pop = pos_of.pop
        track = bool(self._tracker_list)
        serials: List[int] = []
        track_serial = serials.append
        all_idents = self._idents
        before = len(all_idents)
        all_serials = self._serials
        pop_ident = all_idents.pop
        pop_serial = all_serials.pop
        # Inlined ``discard``: this loop runs once per session departure,
        # and the call overhead alone is measurable.
        for ident in idents:
            pos = pop(ident, None)
            if pos is None:
                continue
            if track:
                track_serial(all_serials[pos])
            last = pop_ident()
            last_serial = pop_serial()
            if pos != len(all_idents):
                all_idents[pos] = last
                all_serials[pos] = last_serial
                pos_of[last] = pos
        if track and serials:
            for tr in self._tracker_list:
                tr.on_depart_batch(serials)
        return before - len(all_idents)

    # -- queries -----------------------------------------------------------
    def __contains__(self, ident: str) -> bool:
        return ident in self._pos_of

    def __len__(self) -> int:
        return len(self._idents)

    @property
    def size(self) -> int:
        return len(self._idents)

    @property
    def last_serial(self) -> int:
        return self._serial

    def good_ids(self) -> List[str]:
        """The members in table order (the order ``random_good`` indexes)."""
        return list(self._idents)

    def random_good(self, rng: np.random.Generator) -> Optional[str]:
        """A good ID selected uniformly at random, or ``None`` if empty.

        This implements the ABC model's rule that the adversary schedules
        *when* a good departure happens but cannot choose *which* good ID
        departs (Section 2).
        """
        idents = self._idents
        n = len(idents)
        if not n:
            return None
        return idents[int(rng.integers(0, n))]
