"""Unique ID issuance.

"Every joining ID is treated as a new ID.  We ensure every joining ID is
given a unique name by concatenating a join-event counter to the name
chosen by the ID." (Section 2.1.1.)

The counter alone already makes the name unique, so the simulator's
identity *is* the counter: a plain ``int``.  The name an ID proposes
(a trace's relay fingerprint, say) never reaches the membership set;
the engine keeps it only as a label in its trace alias map.
"""

from __future__ import annotations


class IdentityFactory:
    """Issues globally unique integer identities: 1, 2, 3, ...

    Each join gets the next value of a join-event counter, so a
    re-joining ID is always a new ID from the system's perspective.
    Ident 0 is never issued; the membership set reads it as absent.
    """

    def __init__(self) -> None:
        self._counter = 0

    def issue(self) -> int:
        """Return the next unique ident."""
        self._counter += 1
        return self._counter

    def issue_batch(self, count: int) -> range:
        """Issue ``count`` consecutive idents as one ``range``.

        Exactly equivalent to ``count`` :meth:`issue` calls (same idents,
        same counter state after), with no Python object per row.
        """
        start = self._counter + 1
        self._counter += count
        return range(start, start + count)
