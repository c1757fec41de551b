"""Identity and membership substrate.

Implements the paper's bookkeeping assumptions (Section 2.1.1):

* every joining ID receives a globally unique name (a join-event counter
  is concatenated to the name the ID chose) -- :mod:`repro.identity.ids`;
* the server/committee maintains the membership set and can compute the
  symmetric difference against past snapshots incrementally --
  :mod:`repro.identity.membership`;
* departures are detectable, either announced or inferred from missing
  heartbeat messages -- :mod:`repro.identity.heartbeat`.
"""

from repro.identity.heartbeat import HeartbeatMonitor
from repro.identity.ids import IdentityFactory
from repro.identity.membership import ArenaMembershipSet, SymmetricDifferenceTracker

__all__ = [
    "ArenaMembershipSet",
    "HeartbeatMonitor",
    "IdentityFactory",
    "SymmetricDifferenceTracker",
]
