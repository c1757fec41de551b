"""Struct-of-arrays churn blocks: the zero-allocation event representation.

At the paper's regime of interest (adversarial spend rate T = 2^20, good
populations of 10^4-10^5) a sweep point pushes millions of good-churn
events through the engine.  Materializing each one as a frozen
:class:`~repro.sim.events.Event` dataclass and routing it through the
heap costs ~2.5 us per event in allocation and scheduling alone.  A
:class:`ChurnBlock` instead carries a *batch* of good-churn rows as
parallel numpy arrays (``times``, ``kinds``, ``sessions``) plus an
optional ident list, so

* generators (:mod:`repro.churn.generators`) produce churn with
  vectorized RNG draws instead of one Python-level draw per event, and
* the engine (:mod:`repro.sim.engine`) applies runs of block rows
  directly to the defense through the batch hooks
  (:meth:`repro.core.protocol.Defense.process_good_join_batch`) without
  ever constructing an ``Event`` or touching the heap.

Blocks only describe *good* churn (the trace side of the ABC model).
Adversarial joins are already aggregated (``process_bad_join_batch``);
ticks, callbacks and bad departures stay ordinary events.

Blocks are the one churn shape from generation through replay,
statistics and CSV output.  Hand-written ``GoodJoin`` / ``GoodDeparture``
lists (e.g. :func:`repro.churn.generators.smooth_trace`) enter it
through :meth:`ChurnBlock.from_events` / :func:`blocks_from_events`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.sim.events import Event, GoodDeparture, GoodJoin

#: ``kinds`` codes.  A row is either a good join (optionally carrying a
#: session duration) or a good departure (optionally naming the victim).
JOIN = 0
DEPART = 1


class ChurnBlock:
    """A time-sorted batch of good-churn rows in struct-of-arrays form.

    Attributes:
        times: float64 array of event times, non-decreasing.
        kinds: uint8 array of :data:`JOIN` / :data:`DEPART` codes.
        sessions: optional float64 array of session durations for join
            rows (``NaN`` = no session, i.e. no scheduled departure).
            ``None`` means no row has a session.
        idents: optional sequence of per-row ident labels (``None``
            entries mean "anonymous": the joiner proposes no name, or
            the departure victim is chosen uniformly at random).
            ``None`` means every row is anonymous.
    """

    __slots__ = ("times", "kinds", "sessions", "idents")

    def __init__(
        self,
        times,
        kinds,
        sessions=None,
        idents: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        times = np.ascontiguousarray(times, dtype=np.float64)
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        if times.ndim != 1 or kinds.ndim != 1:
            raise ValueError("times and kinds must be 1-D arrays")
        n = times.shape[0]
        if kinds.shape[0] != n:
            raise ValueError(
                f"length mismatch: {n} times vs {kinds.shape[0]} kinds"
            )
        if n > 1 and bool(np.any(np.diff(times) < 0)):
            raise ValueError("block times must be non-decreasing")
        if n and bool(np.any(kinds > DEPART)):
            raise ValueError("kinds must be JOIN (0) or DEPART (1)")
        if sessions is not None:
            sessions = np.ascontiguousarray(sessions, dtype=np.float64)
            if sessions.shape[0] != n:
                raise ValueError(
                    f"length mismatch: {n} times vs {sessions.shape[0]} sessions"
                )
        if idents is not None and len(idents) != n:
            raise ValueError(
                f"length mismatch: {n} times vs {len(idents)} idents"
            )
        self.times = times
        self.kinds = kinds
        self.sessions = sessions
        self.idents = list(idents) if idents is not None else None

    def __len__(self) -> int:
        return self.times.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self)
        if n == 0:
            return "ChurnBlock(empty)"
        return (
            f"ChurnBlock(n={n}, t=[{self.times[0]:.3f}, {self.times[-1]:.3f}], "
            f"joins={int(np.count_nonzero(self.kinds == JOIN))})"
        )

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "ChurnBlock":
        """Pack ``GoodJoin`` / ``GoodDeparture`` events into one block.

        The events must already be time-sorted; any other event type is
        rejected (blocks describe good churn only).
        """
        times: List[float] = []
        kinds: List[int] = []
        sessions: List[float] = []
        idents: List[Optional[str]] = []
        any_session = False
        any_ident = False
        for event in events:
            if isinstance(event, GoodJoin):
                kinds.append(JOIN)
                if event.session is not None:
                    sessions.append(float(event.session))
                    any_session = True
                else:
                    sessions.append(float("nan"))
            elif isinstance(event, GoodDeparture):
                kinds.append(DEPART)
                sessions.append(float("nan"))
            else:
                raise TypeError(
                    f"cannot pack event type {type(event).__name__} into a churn block"
                )
            times.append(event.time)
            idents.append(event.ident)
            if event.ident is not None:
                any_ident = True
        return cls(
            times,
            kinds,
            sessions=np.asarray(sessions) if any_session else None,
            idents=idents if any_ident else None,
        )


def blocks_from_events(
    events: Iterable[Event], block_size: int = 4096
) -> Iterator[ChurnBlock]:
    """Chunk a time-sorted event stream into blocks of ``block_size``."""
    if block_size <= 0:
        raise ValueError(f"block size must be positive: {block_size}")
    chunk: List[Event] = []
    for event in events:
        chunk.append(event)
        if len(chunk) >= block_size:
            yield ChurnBlock.from_events(chunk)
            chunk = []
    if chunk:
        yield ChurnBlock.from_events(chunk)
