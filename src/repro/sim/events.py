"""Event vocabulary for the churn simulation.

Churn traces, adversary strategies, and periodic protocol work all speak
in terms of these events.  Each event is a small frozen dataclass carrying
its scheduled time; the engine orders them by ``(time, priority, seq)``.

The ABC model (Section 2.1.1 of the paper) assumes every join/departure
occurs at a unique point in time, with ties broken by the server.  The
engine's ``seq`` counter provides exactly that deterministic tie-break.
The engine routes events through a handler table keyed on the event
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Event:
    """Base class for all simulation events."""

    time: float


@dataclass(frozen=True)
class GoodJoin(Event):
    """A good ID wants to join.

    ``ident`` is an opaque label chosen by the trace generator; the
    defense issues the joiner a fresh ``int`` ident from a join-event
    counter, which is what guarantees global uniqueness (Section 2.1.1),
    and the engine keeps the label as an alias for later departure rows
    that name it.  ``session`` optionally carries the
    session duration sampled by the trace generator, so the engine can
    schedule the matching departure.
    """

    ident: Optional[str] = None
    session: Optional[float] = None


@dataclass(frozen=True)
class GoodDeparture(Event):
    """A good ID departs.

    A named departure resolves through the engine's alias map to the
    latest ID admitted under that label (or an initial member's name);
    an unknown label is a no-op.  If ``ident`` is ``None``, the departing
    ID is selected uniformly at random from the good IDs currently in
    the system -- the ABC model's rule when the adversary schedules a
    departure *event* but cannot pick the victim (Section 2).
    """

    ident: Optional[str] = None


@dataclass(frozen=True)
class BadDeparture(Event):
    """The adversary withdraws one of its IDs (it picks which)."""

    ident: str = ""


@dataclass(frozen=True)
class BadDepartureBatch(Event):
    """The adversary withdraws up to ``count`` of its IDs at one instant.

    The block form of a bad-departure schedule: a synchronized Sybil
    exodus (mass withdrawal, relay flapping) is one heap entry handled by
    :meth:`repro.core.protocol.Defense.process_bad_departure_batch`
    instead of ``count`` separate :class:`BadDeparture` objects.  Bad IDs
    are an aggregate population (the adversary has perfect collusion, so
    only the count matters); ``count`` in excess of the standing Sybil
    population withdraws everything that is present.

    ``drain_fraction`` sizes the withdrawal at *fire time* instead:
    that fraction of the Sybil population standing when the event
    dispatches (rounded up) is withdrawn, and ``count`` is ignored.  A
    staged full exodus over ``n`` batches is fractions ``1/n, 1/(n-1),
    ..., 1`` -- equal shares of the original population, draining
    everything by the last batch, without the compiler having to guess
    the standing population in advance.
    """

    count: int = 1
    #: withdraw this fraction of the standing Sybil population instead
    #: of a precomputed count (``None`` = use ``count``)
    drain_fraction: Optional[float] = None


@dataclass(frozen=True)
class Callback(Event):
    """Run an arbitrary function at a scheduled time.

    Used by defenses that need future work (e.g. SybilControl's periodic
    neighbor tests, REMP's recurring challenges, heartbeat timeouts).
    """

    fn: Callable[[float], None] = field(default=lambda _t: None)
    label: str = ""
