"""An in-memory span tracer that times calls into a program from outside.

A :class:`Tracer` replaces chosen functions and methods with timed
wrappers (:meth:`Tracer.patch`) and puts the originals back on
:meth:`Tracer.uninstall`.  Each wrapped call is a span.  Spans nest
through a per-thread stack, so a span's *self* time is its duration
minus the time its wrapped children took.  Spans are not kept one by
one: each thread aggregates them in memory, keyed by ``(layer,
parent layer)``, and :meth:`Tracer.report` merges the tables when the
run ends.

The wrapper's own cost is measured once, when the tracer starts
(:meth:`Tracer.calibrate`), and subtracted per call in the calibrated
self times.  Raw self times are kept beside them.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Calls per calibration trial, and trials (the fastest one is kept).
CALIBRATION_CALLS = 20_000
CALIBRATION_TRIALS = 5


def _noop(*args, **kwargs):
    return None


class Tracer:
    """Timed wrappers, per-thread span stacks and aggregate tables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one aggregate table per thread that ever opened a span:
        #: ``(layer, parent) -> [calls, rows, total_s, self_s]``
        self._tables: List[Dict[Tuple[str, Optional[str]], list]] = []
        #: ``(owner, attribute, previous value or None if inherited)``
        self._patches: List[tuple] = []
        #: exact counts reported by wrapped calls (see :meth:`count`)
        self.counters: Dict[str, float] = {}
        self.wrapper_s = 0.0

    # -- span bookkeeping ------------------------------------------------
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def _enter(self, layer: str):
        stack, table = self._thread_state()
        parent = stack[-1][0] if stack else None
        frame = [layer, 0.0, parent, table]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, duration: float, rows: int,
              calls: int = 1) -> None:
        layer, child_s, parent, table = frame
        stack = self._local.state[0]
        stack.pop()
        if stack:
            stack[-1][1] += duration
        agg = table.get((layer, parent))
        if agg is None:
            agg = table[(layer, parent)] = [0, 0, 0.0, 0.0]
        agg[0] += calls
        agg[1] += rows
        agg[2] += duration
        agg[3] += duration - child_s

    def wrap(self, layer: str, fn: Callable,
             rows: Optional[Callable] = None) -> Callable:
        """A timed stand-in for ``fn``; ``rows(args)`` counts its work.

        The bookkeeping of :meth:`_enter` / :meth:`_exit` is inlined:
        this wrapper runs around every membership and ledger call, and
        the fewer calls it makes the less it perturbs what it measures.
        """
        local = self._local
        thread_state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack, table = local.state
            except AttributeError:
                stack, table = thread_state()
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                agg = table.get((layer, parent))
                if agg is None:
                    agg = table[(layer, parent)] = [0, 0, 0.0, 0.0]
                agg[0] += 1
                if rows is not None:
                    agg[1] += rows(args)
                agg[2] += duration
                agg[3] += duration - frame[1]

        return wrapper

    def wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """Time each item a generator function produces (rows = len)."""
        enter, exit_ = self._enter, self._exit

        def timed(gen):
            while True:
                frame = enter(layer)
                t0 = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    # Time spent noticing the end is kept; it is not a
                    # block, so it is not counted as a call.
                    exit_(frame, _clock() - t0, 0, calls=0)
                    return
                except BaseException:
                    exit_(frame, _clock() - t0, 0, calls=0)
                    raise
                exit_(frame, _clock() - t0, len(item))
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    def count(self, key: str, value: float, reduce: str = "sum") -> None:
        """Record an exact count from inside a wrapped call."""
        with self._lock:
            old = self.counters.get(key)
            if old is None:
                self.counters[key] = value
            elif reduce == "max":
                self.counters[key] = max(old, value)
            else:
                self.counters[key] = old + value

    # -- installation ----------------------------------------------------
    def patch(self, owner, name: str, replacement: Callable) -> None:
        """Install ``replacement`` as ``owner.name`` until uninstall."""
        previous = vars(owner).get(name)
        self._patches.append((owner, name, previous))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, previous = self._patches.pop()
            if previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)

    # -- calibration -----------------------------------------------------
    def calibrate(self) -> float:
        """Measure the cost of one empty wrapped call (seconds).

        Times ``CALIBRATION_CALLS`` calls to a bare no-op and to the
        same no-op behind :meth:`wrap`; the difference per call is the
        wrapper's cost, which :meth:`report` subtracts once per span.
        The fastest of ``CALIBRATION_TRIALS`` trials is kept.
        """
        wrapped = self.wrap("__calibration__", _noop, rows=len)
        calls = range(CALIBRATION_CALLS)
        best = float("inf")
        for _ in range(CALIBRATION_TRIALS):
            t0 = _clock()
            for _i in calls:
                _noop(_i)
            bare = _clock() - t0
            t0 = _clock()
            for _i in calls:
                wrapped(_i)
            best = min(best, (_clock() - t0 - bare) / CALIBRATION_CALLS)
        for table in self._tables:
            table.pop(("__calibration__", None), None)
        self.wrapper_s = best
        return self.wrapper_s

    # -- reporting -------------------------------------------------------
    def root_total_s(self) -> float:
        """Summed duration of every top-level span so far."""
        return sum(
            agg[2]
            for table in list(self._tables)
            for (layer, parent), agg in list(table.items())
            if parent is None
        )

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``rows``, ``total_s``, raw and calibrated
        ``self_s``, merged over threads.

        The calibrated time is not clamped: for a hook that does almost
        nothing it reads within the calibration's own error of zero,
        on either side, which is what was measured.
        """
        layers: Dict[str, Dict[str, float]] = {}
        for table in list(self._tables):
            for (layer, parent), agg in list(table.items()):
                entry = layers.setdefault(layer, {
                    "calls": 0, "rows": 0, "total_s": 0.0,
                    "self_raw_s": 0.0, "root_s": 0.0,
                })
                entry["calls"] += agg[0]
                # A layer's inner spans (a batch call falling back to
                # its single-row form) sit inside its outer ones, so only
                # spans entered from another layer add rows and time to
                # the layer's totals.
                if parent != layer:
                    entry["rows"] += agg[1]
                    entry["total_s"] += agg[2]
                entry["self_raw_s"] += agg[3]
                if parent is None:
                    entry["root_s"] += agg[2]
        for entry in layers.values():
            entry["self_s"] = entry["self_raw_s"] - entry["calls"] * self.wrapper_s
        return layers
