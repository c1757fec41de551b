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

The storage is :class:`ArenaMembershipSet`, a slot-interned **arena**:
idents are interned to integer slot indices, per-member fields live in
parallel slot-indexed typed columns (``is_good`` / ``joined_at`` /
``serial``), freed slots are recycled through a free-list, and the good
population is a dense slot array supporting O(1) uniform selection.
Whole-run batch mutators (:meth:`~ArenaMembershipSet.add_batch` /
:meth:`~ArenaMembershipSet.remove_batch`) replace the per-member
allocation and bookkeeping that dominated the engine's block fast path,
which is what makes 10^6-ID populations simulable in seconds.

``tests/reference_sim.py`` holds a deliberately naive reference (a
dict, a swap-remove good list, and set snapshots for the symmetric
difference); ``tests/test_membership_backends.py`` checks the arena,
per-row and batched, against it op for op, including the swap-remove
order of the good list that seeded ``random_good`` draws depend on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


@dataclass(slots=True)
class Member:
    """One ID currently in the system.

    A *view* constructed on demand by ``get()`` / ``remove()`` /
    ``members()``; the live state is in the arena's parallel arrays.
    """

    ident: str
    is_good: bool
    joined_at: float
    serial: int = 0


class SymmetricDifferenceTracker:
    """Tracks ``|S_now △ S_snapshot|`` against a serial watermark.

    Owned by a membership set, which feeds it join/departure *serials*
    (not members: the arena never materializes a ``Member`` on
    the hot path) and its current size.
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


#: ``_good_pos`` filler for bad members (never read: only good slots
#: have a position in the dense good list)
_NO_POS = array("q", [-1])


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
    """The server's membership view, stored as a slot-interned arena.

    Idents are interned to integer *slots*; ``is_good`` / ``joined_at``
    / ``serial`` live in parallel slot-indexed arrays; freed slots are
    recycled through a LIFO free-list; and the good population is a
    dense slot array (``_good_slots`` + per-slot position index) giving
    O(1) uniform random selection and O(1) swap-removal -- in exactly
    the positional order of a plain swap-remove list, which is what
    seeded ``random_good`` draws are defined over.

    The numeric columns are stdlib typed buffers -- ``array('q')`` for
    serials and the good list's slots and positions, ``array('d')`` for
    join times, a ``bytearray`` for the good flags -- which store one
    raw machine value per slot where a list stores a pointer to a boxed
    int or float.  That halves the arena's footprint: ~113 B/member
    under ``tracemalloc`` on CPython 3.11 against ~218 B for lists,
    most of what remains being the ident dict and its boxed slot ints.
    Like lists, and unlike numpy buffers, they append and pop in O(1)
    with cheap scalar access, which the engine's mix of whole-run
    batches and single-row mutations needs (run lengths of 5-10 are
    typical once session departures interleave).  The price is a
    conversion on each scalar store: a per-op micro-benchmark read
    per-row ``add`` ~17% slower than on lists, while whole-run joins,
    filled from numpy ramps, and removals read no slower (EXPERIMENTS.md,
    "Memory footprint").
    Numpy also enters for the aggregate math (tracker batch updates,
    the window counter) where whole-array operations pay.

    Supports O(1) joins/removals, O(1) uniform random selection of a
    good ID (the ABC model's departure rule), any number of attached
    O(1)-per-event :class:`SymmetricDifferenceTracker` views, and
    whole-run batch mutators (:meth:`add_batch` / :meth:`remove_batch`)
    for the engine's block fast path.
    """

    def __init__(self) -> None:
        self._slot_of: Dict[str, int] = {}
        self._idents: List[Optional[str]] = []
        self._serials = array("q")
        self._joined = array("d")
        self._good_flags = bytearray()
        #: dense array of good slots (append order, swap-removed) +
        #: slot-indexed positions for swap-removal
        self._good_slots = array("q")
        self._good_pos = array("q")
        self._free: List[int] = []
        self._bad_count = 0
        self._trackers: Dict[str, SymmetricDifferenceTracker] = {}
        self._tracker_list: List[SymmetricDifferenceTracker] = []
        self._serial = 0

    # -- tracker plumbing --------------------------------------------------
    def attach_tracker(self, name: str, tracker: SymmetricDifferenceTracker) -> None:
        tracker.reset(len(self._slot_of), self._serial)
        self._trackers[name] = tracker
        self._tracker_list = list(self._trackers.values())

    def tracker(self, name: str) -> SymmetricDifferenceTracker:
        return self._trackers[name]

    def reset_tracker(self, name: str) -> None:
        self._trackers[name].reset(len(self._slot_of), self._serial)

    def sym_diff(self, name: str) -> int:
        return self._trackers[name].symmetric_difference

    # -- mutation ----------------------------------------------------------
    def add(self, ident: str, is_good: bool, now: float) -> None:
        if ident in self._slot_of:
            raise ValueError(f"duplicate ID {ident!r}")
        self._add_unchecked(ident, is_good, now)
        if self._tracker_list:
            serial = self._serial
            for tr in self._tracker_list:
                tr.on_join(serial)

    def _add_unchecked(self, ident: str, is_good: bool, now: float) -> None:
        """``add`` minus the duplicate check and tracker feed (batch use)."""
        serial = self._serial + 1
        self._serial = serial
        good_slots = self._good_slots
        pos = len(good_slots) if is_good else -1
        free = self._free
        if free:
            slot = free.pop()
            self._idents[slot] = ident
            self._serials[slot] = serial
            self._joined[slot] = now
            self._good_flags[slot] = is_good
            self._good_pos[slot] = pos
        else:
            slot = len(self._idents)
            self._idents.append(ident)
            self._serials.append(serial)
            self._joined.append(now)
            self._good_flags.append(is_good)
            self._good_pos.append(pos)
        self._slot_of[ident] = slot
        if is_good:
            good_slots.append(slot)
        else:
            self._bad_count += 1

    def add_batch(self, idents: Sequence[str], is_good: bool, times) -> None:
        """Add a run of brand-new members (parallel ``idents``/``times``).

        Observably equivalent to calling :meth:`add` row by row: serials
        are assigned in order, the good list grows in ident order, and
        trackers see one aggregated update.  Slot *indices* may differ
        from the per-row path when the free-list is non-empty, but slots
        are not observable through the public API.
        """
        k = len(idents)
        if k == 0:
            return
        if k == 1:
            # Single-row runs (steady-state interleave) skip the batch
            # machinery; ``add`` performs the same checks and feeds.
            self.add(idents[0], is_good, times[0])
            return
        slot_of = self._slot_of
        if not slot_of.keys().isdisjoint(idents):
            for ident in idents:
                if ident in slot_of:
                    raise ValueError(f"duplicate ID {ident!r}")
        if len(set(idents)) != k:
            # Checked *before* mutating: an intra-batch duplicate must
            # not leave a ghost slot behind the raised error.
            raise ValueError("duplicate ident within one add_batch call")
        if isinstance(times, np.ndarray):
            times = times.tolist()
        elif not isinstance(times, list):
            times = list(times)  # ``array.fromlist`` takes only lists
        serial0 = self._serial
        free = self._free
        reuse = len(free)
        if reuse >= k:
            # Fully recycled: per-row stores into scattered slots.
            for ident, t in zip(idents, times):
                self._add_unchecked(ident, is_good, t)
        else:
            if reuse:
                for ident, t in zip(idents[:reuse], times[:reuse]):
                    self._add_unchecked(ident, is_good, t)
                idents_tail = idents[reuse:]
                times_tail = times[reuse:]
                kk = k - reuse
            else:
                idents_tail = idents
                times_tail = times
                kk = k
            # Contiguous tail: C-level fills, one zip interning pass.
            a = len(self._idents)
            b = a + kk
            s0 = self._serial
            self._serial = s0 + kk
            self._idents.extend(idents_tail)
            _extend_ramp(self._serials, s0 + 1, kk)
            self._joined.fromlist(times_tail)
            slot_of.update(zip(idents_tail, range(a, b)))
            if is_good:
                n = len(self._good_slots)
                self._good_flags += b"\x01" * kk
                _extend_ramp(self._good_pos, n, kk)
                _extend_ramp(self._good_slots, a, kk)
            else:
                self._good_flags += bytes(kk)
                self._good_pos.extend(_NO_POS * kk)
                self._bad_count += kk
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_join_batch(k, serial0 + 1)

    def _release_slot(self, slot: int) -> None:
        """Detach ``slot`` from the good list / bad count and recycle it."""
        if self._good_flags[slot]:
            good_slots = self._good_slots
            pos = self._good_pos[slot]
            last_slot = good_slots.pop()
            if last_slot != slot:
                good_slots[pos] = last_slot
                self._good_pos[last_slot] = pos
        else:
            self._bad_count -= 1
        self._idents[slot] = None
        self._free.append(slot)

    def remove(self, ident: str) -> Optional[Member]:
        """Remove ``ident`` if present; return a member view or ``None``."""
        slot = self._slot_of.pop(ident, None)
        if slot is None:
            return None
        member = Member(
            ident=ident,
            is_good=bool(self._good_flags[slot]),
            joined_at=self._joined[slot],
            serial=self._serials[slot],
        )
        self._release_slot(slot)
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_depart(member.serial)
        return member

    def discard(self, ident: str) -> bool:
        """Remove ``ident`` if present without building a member view."""
        slot = self._slot_of.pop(ident, None)
        if slot is None:
            return False
        serial = self._serials[slot]
        self._release_slot(slot)
        if self._tracker_list:
            for tr in self._tracker_list:
                tr.on_depart(serial)
        return True

    def remove_batch(self, idents: Sequence[str]) -> int:
        """Remove a run of named members; absent idents are no-ops.

        Returns the number actually removed.  Swap-removals happen in
        ident order, exactly as sequential :meth:`remove` calls would,
        so the dense good list ends in the identical permutation (and
        later ``random_good`` draws are unaffected by batching).
        Trackers see one aggregated update per run.
        """
        if len(idents) == 1:
            return 1 if self.discard(idents[0]) else 0
        pop = self._slot_of.pop
        track = bool(self._tracker_list)
        serials: List[int] = []
        track_serial = serials.append
        removed = 0
        all_serials = self._serials
        all_idents = self._idents
        good_flags = self._good_flags
        good_slots = self._good_slots
        good_pos = self._good_pos
        free_slot = self._free.append
        for ident in idents:
            slot = pop(ident, None)
            if slot is None:
                continue
            if track:
                track_serial(all_serials[slot])
            # Inlined _release_slot: this loop runs once per session
            # departure, and the call overhead alone is measurable.
            if good_flags[slot]:
                last_slot = good_slots.pop()
                if last_slot != slot:
                    pos = good_pos[slot]
                    good_slots[pos] = last_slot
                    good_pos[last_slot] = pos
            else:
                self._bad_count -= 1
            all_idents[slot] = None
            free_slot(slot)
            removed += 1
        if track and serials:
            for tr in self._tracker_list:
                tr.on_depart_batch(serials)
        return removed

    # -- queries -----------------------------------------------------------
    def __contains__(self, ident: str) -> bool:
        return ident in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def get(self, ident: str) -> Optional[Member]:
        slot = self._slot_of.get(ident)
        if slot is None:
            return None
        return Member(
            ident=ident,
            is_good=bool(self._good_flags[slot]),
            joined_at=self._joined[slot],
            serial=self._serials[slot],
        )

    @property
    def size(self) -> int:
        return len(self._slot_of)

    @property
    def good_count(self) -> int:
        return len(self._good_slots)

    @property
    def bad_count(self) -> int:
        return self._bad_count

    @property
    def last_serial(self) -> int:
        return self._serial

    def bad_fraction(self) -> float:
        total = len(self._slot_of)
        if not total:
            return 0.0
        return self._bad_count / total

    def good_ids(self) -> List[str]:
        idents = self._idents
        return [idents[s] for s in self._good_slots]

    def bad_ids(self) -> List[str]:
        good = self._good_flags
        return [i for i, s in self._slot_of.items() if not good[s]]

    def all_ids(self) -> List[str]:
        return list(self._slot_of)

    def members(self) -> Iterable[Member]:
        good = self._good_flags
        joined = self._joined
        serials = self._serials
        return [
            Member(
                ident=ident,
                is_good=bool(good[slot]),
                joined_at=joined[slot],
                serial=serials[slot],
            )
            for ident, slot in self._slot_of.items()
        ]

    def random_good(self, rng: np.random.Generator) -> Optional[str]:
        """A good ID selected uniformly at random, or ``None`` if empty.

        This implements the ABC model's rule that the adversary schedules
        *when* a good departure happens but cannot choose *which* good ID
        departs (Section 2).
        """
        good_slots = self._good_slots
        n = len(good_slots)
        if not n:
            return None
        idx = int(rng.integers(0, n))
        return self._idents[good_slots[idx]]


#: Backwards-compatible name for :class:`ArenaMembershipSet`.
MembershipSet = ArenaMembershipSet
