"""Structured run tracing.

Long simulations are hard to debug from aggregate metrics alone.  A
:class:`TraceRecorder` captures a bounded, structured log of protocol
events (joins, purges, estimate updates, ...) that tests and notebooks
can filter, and that can be dumped as JSON lines for external tooling.

Defenses call :meth:`TraceRecorder.emit`; recording is off by default
and costs one attribute check per call when disabled.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.resilience import atomic_write_text


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    kind: str
    fields: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"time": self.time, "kind": self.kind}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True)


class TraceRecorder:
    """A bounded in-memory trace of protocol events."""

    def __init__(self, capacity: int = 100_000, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.enabled = bool(enabled)
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0
        self._capacity = capacity

    def emit(self, time: float, kind: str, **fields: float) -> None:
        if not self.enabled:
            return
        if len(self._events) == self._capacity:
            self._dropped += 1
        self._events.append(TraceEvent(time=float(time), kind=kind, fields=fields))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer (oldest-first)."""
        return self._dropped

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self._events if e.kind == kind]

    def between(self, start: float, end: float) -> List[TraceEvent]:
        return [e for e in self._events if start <= e.time <= end]

    def last(self, kind: Optional[str] = None) -> Optional[TraceEvent]:
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self._events)

    def write_jsonl(self, path: str) -> None:
        text = self.to_jsonl()
        atomic_write_text(path, text + "\n" if self._events else text)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a trace written by :meth:`TraceRecorder.write_jsonl`."""
    events: List[TraceEvent] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            time = payload.pop("time")
            kind = payload.pop("kind")
            events.append(TraceEvent(time=time, kind=kind, fields=payload))
    return events
