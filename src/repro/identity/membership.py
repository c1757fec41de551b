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
watermarks*: every member carries a monotonically increasing join
serial (for a good ID, its ident: idents are issued in join order), a
snapshot is just the serial watermark at reset time, and

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
uniformly at random (Section 2).  It is one dense table -- an integer
member column and a position map indexed by ident, both typed arrays --
that grows by appending and shrinks by swap-remove, giving O(1) uniform
selection.  Whole-run batch mutators
(:meth:`~ArenaMembershipSet.add_batch` /
:meth:`~ArenaMembershipSet.remove_batch`) replace the per-member work
that would otherwise dominate the engine's block fast path, which is
what makes 10^6-ID populations simulable in seconds: a run of issued
idents is a ``range``, stored as two numpy ramps with no Python object
per row.

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


#: One absent position-map entry: int64 -1 is all one bits in either byte
#: order, so a gap of ``g`` idents pads as ``_ABSENT * g`` raw bytes.
_ABSENT = b"\xff" * 8


def _not_new(ident, last: int) -> ValueError:
    return ValueError(
        f"duplicate or stale ident {ident!r}: every join is a new ID, so "
        f"idents must exceed last_serial={last} and increase within a batch"
    )


class ArenaMembershipSet:
    """The server's set of good IDs, stored as one dense swap-remove table.

    Idents are the ``int`` join counters that
    :class:`~repro.identity.ids.IdentityFactory` issues.  ``_members``
    holds them in table order; ``_pos`` is indexed by ident and holds its
    table position, ``-1`` for an ident that is absent (departed, never
    added, or skipped).  Ident 0 is never issued.
    A join appends a row; a departure moves the last row into the hole.
    That is exactly the order of a plain swap-remove list, which is what
    seeded ``random_good`` draws index into.

    Idents are issued in join order, so an ident is its own join serial:
    trackers are fed idents, and :attr:`last_serial` is the largest ident
    added.  A join must therefore carry an ident above ``last_serial``
    (strictly increasing within a batch); that one compare rejects a
    duplicate and a re-added departed ID alike.  Gaps -- idents issued to
    joiners the defense refused -- read as absent.

    Both columns are ``array('q')``: one raw machine value per entry,
    O(1) append/pop and cheap scalar access, which the engine's mix of
    whole-run batches and single-row mutations needs.  A whole-run join
    arrives as a ``range`` and fills both columns from numpy ramps.
    Memory: the position map costs 8 B per join ever made (it is never
    compacted), and the member column 8 B per member at its peak, since
    an array does not shrink on pop.  The string-keyed table this
    replaced cost ~87 B per standing member (a dict entry, a boxed
    position, a list pointer and a serial).

    Supports O(1) joins and removals, O(1) uniform random selection (the
    ABC model's departure rule), any number of attached
    O(1)-per-event :class:`SymmetricDifferenceTracker` views, and
    whole-run batch mutators (:meth:`add_batch` / :meth:`remove_batch`)
    for the engine's block fast path.
    """

    def __init__(self) -> None:
        self._members = array("q")
        #: index 0 stands for ident 0, which is never issued
        self._pos = array("q", [-1])
        self._trackers: Dict[str, SymmetricDifferenceTracker] = {}
        self._tracker_list: List[SymmetricDifferenceTracker] = []
        self._last = 0

    # -- tracker plumbing --------------------------------------------------
    def attach_tracker(self, name: str, tracker: SymmetricDifferenceTracker) -> None:
        tracker.reset(len(self._members), self._last)
        self._trackers[name] = tracker
        self._tracker_list = list(self._trackers.values())

    def tracker(self, name: str) -> SymmetricDifferenceTracker:
        return self._trackers[name]

    def reset_tracker(self, name: str) -> None:
        self._trackers[name].reset(len(self._members), self._last)

    def sym_diff(self, name: str) -> int:
        return self._trackers[name].symmetric_difference

    # -- mutation ----------------------------------------------------------
    def add(self, ident: int) -> None:
        last = self._last
        if ident <= last:
            raise _not_new(ident, last)
        pos = self._pos
        if ident > last + 1:
            pos.frombytes(_ABSENT * (ident - last - 1))
        pos.append(len(self._members))
        self._members.append(ident)
        self._last = ident
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_join(ident)

    def add_batch(self, idents: Sequence[int]) -> None:
        """Add a run of brand-new members.

        Observably equivalent to calling :meth:`add` row by row: the
        table grows in ident order and trackers see one aggregated
        update.  Every ident is checked before any is stored, so a
        rejected batch changes nothing.  A ``range`` (what every join
        hook passes) is checked by its first element and stored as two
        ramps.
        """
        k = len(idents)
        if k == 0:
            return
        if k == 1:
            # Single-row runs (steady-state interleave) skip the batch
            # machinery; ``add`` performs the same check and feeds.
            self.add(idents[0])
            return
        last = self._last
        first = idents[0]
        members = self._members
        pos = self._pos
        if type(idents) is range and idents.step == 1:
            if first <= last:
                raise _not_new(first, last)
            if first > last + 1:
                pos.frombytes(_ABSENT * (first - last - 1))
            _extend_ramp(pos, len(members), k)
            _extend_ramp(members, first, k)
        else:
            prev = last
            for ident in idents:
                if ident <= prev:
                    raise _not_new(ident, prev)
                prev = ident
            for ident in idents:
                gap = ident - len(pos)
                if gap:
                    pos.frombytes(_ABSENT * gap)
                pos.append(len(members))
                members.append(ident)
        self._last = idents[-1]
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_join_batch(k, first)

    def discard(self, ident: int) -> bool:
        """Remove ``ident`` if present; return whether it was."""
        pos = self._pos
        if not 0 < ident < len(pos):
            return False
        at = pos[ident]
        if at < 0:
            return False
        pos[ident] = -1
        members = self._members
        moved = members.pop()
        if at != len(members):
            members[at] = moved
            pos[moved] = at
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_depart(ident)
        return True

    #: Same call; ``perfbench/layers.py`` times both names.
    remove = discard

    def remove_batch(self, idents: Sequence[int]) -> int:
        """Remove a run of members; absent idents (and 0) are no-ops.

        Returns the number actually removed.  Swap-removals happen in
        ident order, exactly as sequential :meth:`discard` calls would,
        so the table ends in the identical permutation (and later
        ``random_good`` draws are unaffected by batching).  Trackers see
        one aggregated update per run.
        """
        if len(idents) == 1:
            return 1 if self.discard(idents[0]) else 0
        pos = self._pos
        end = len(pos)
        members = self._members
        pop = members.pop
        before = n = len(members)
        track = bool(self._tracker_list)
        gone: List[int] = []
        note = gone.append
        # Inlined ``discard``: this loop runs once per session departure,
        # and the call overhead alone is measurable.
        for ident in idents:
            if not 0 < ident < end:
                continue
            at = pos[ident]
            if at < 0:
                continue
            pos[ident] = -1
            if track:
                note(ident)
            moved = pop()
            n -= 1
            if at != n:
                members[at] = moved
                pos[moved] = at
        if gone:
            for tr in self._tracker_list:
                tr.on_depart_batch(gone)
        return before - n

    # -- queries -----------------------------------------------------------
    def __contains__(self, ident: int) -> bool:
        pos = self._pos
        return 0 < ident < len(pos) and pos[ident] >= 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def last_serial(self) -> int:
        return self._last

    def good_ids(self) -> List[int]:
        """The members in table order (the order ``random_good`` indexes)."""
        return self._members.tolist()

    def random_good(self, rng: np.random.Generator) -> Optional[int]:
        """A good ID selected uniformly at random, or ``None`` if empty.

        This implements the ABC model's rule that the adversary schedules
        *when* a good departure happens but cannot choose *which* good ID
        departs (Section 2).
        """
        members = self._members
        n = len(members)
        if not n:
            return None
        return members[int(rng.integers(0, n))]
