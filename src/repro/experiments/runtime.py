"""Fault-tolerant execution runtime for sweeps.

The figure sweeps and the scenario catalog are hours-long Cartesian
products of independent points; before this module, one worker crash
(``BrokenProcessPool``), one hung simulation, or one Ctrl-C lost the
whole run with nothing persisted.  :func:`run_tasks` wraps the
deterministic executor in four recovery layers:

* **Pool rebuild.**  Per-point future submission (never ``pool.map``)
  means a dead worker breaks only the executor, not the bookkeeping:
  the pool is rebuilt and in-flight points are requeued.  A point that
  was in flight across a pool break is charged one attempt (the
  coordinator cannot tell the crasher from its neighbours -- the
  "suspicion" scheme), so a deterministically crashing point exhausts
  its retry budget instead of wedging the sweep forever.
* **Retry with deterministic backoff.**  Failed points retry up to
  ``max_retries`` times with capped exponential backoff whose jitter
  is SHA-256-derived from the point's coordinate digest
  (:func:`repro.resilience.backoff_delay`) -- re-running an injected
  fault schedule reproduces the retry timeline exactly.
* **Per-point wall-clock timeouts.**  With ``point_timeout`` set, an
  attempt that overruns is charged and its worker killed (the whole
  pool is torn down and rebuilt -- ``ProcessPoolExecutor`` cannot kill
  one worker); other in-flight points are requeued *uncharged*, and
  any that finished in the meantime are harvested, so a hang never
  costs a neighbour its result.
* **Checkpoint/resume.**  Every completed row is journaled to a
  per-run checkpoint file, rewritten atomically (temp + rename) so a
  kill at any instant leaves a loadable checkpoint.  ``resume=True``
  skips finished points; because per-point seeds are derived from
  coordinates, a killed-then-resumed sweep produces rows
  byte-identical to an uninterrupted one.  The checkpoint is keyed to
  a fingerprint of the task list, so resuming a *different* sweep
  fails loudly instead of splicing foreign rows.

Determinism: rows are keyed by submission index and reassembled in
submission order, so scheduling, retries, rebuilds, and resumes are
all invisible in the output.  Failures that survive the retry budget
become structured :class:`FailureRow` records (``on_failure="collect"``)
or re-raise the terminal exception (``"raise"``, the library default).

``KeyboardInterrupt`` flushes the checkpoint, cancels outstanding
futures, and surfaces as :class:`SweepInterrupted` (a
``KeyboardInterrupt`` subclass) carrying the checkpoint path, so CLIs
print a resume command instead of a stack trace.

Fault injection (:mod:`repro.faults`) hooks the worker entry point:
every recovery path above is exercised in CI by spec strings such as
``crash@3;hang@2:30``, with zero wall-clock nondeterminism.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import faults
from repro.resilience import BackoffPolicy, atomic_write_text, backoff_delay

#: Pickle protocol pinned for checkpoint rows and task fingerprints
#: (stable across the supported CPython versions).
PICKLE_PROTOCOL = 4

CHECKPOINT_VERSION = 1


class CheckpointMismatch(RuntimeError):
    """A checkpoint written by a different sweep than the one resuming."""


class PointTimeout(RuntimeError):
    """A point's attempt exceeded the configured wall-clock timeout."""


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep, after a graceful shutdown.

    Subclasses ``KeyboardInterrupt`` so callers that do not know about
    the runtime still treat it as an interrupt; CLIs catch it to print
    the resume command (:meth:`summary`) instead of a traceback.
    """

    def __init__(self, checkpoint: Optional[str], done: int, total: int) -> None:
        self.checkpoint = checkpoint
        self.done = done
        self.total = total
        super().__init__(self.summary())

    def summary(self) -> str:
        if self.checkpoint:
            return (
                f"interrupted: {self.done}/{self.total} points checkpointed "
                f"at {self.checkpoint}; re-run the same command with "
                f"--resume to continue"
            )
        return (
            f"interrupted: {self.done}/{self.total} points completed "
            f"(no checkpoint configured; re-run starts from scratch)"
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a sweep behaves under failure.

    The default policy (used whenever a caller passes ``policy=None``)
    retries twice with sub-second backoff, enforces no timeout, writes
    no checkpoint, and re-raises a point's terminal exception --
    library callers see the old executor's semantics plus crash
    resilience.  The CLIs build a policy from ``--resume``,
    ``--max-retries``, ``--point-timeout`` and ``--fault-spec``
    (:func:`cli_policy`) with ``on_failure="collect"`` so a bad point
    becomes a structured failure row instead of aborting the sweep.
    """

    #: retries after the first attempt (total tries = max_retries + 1)
    max_retries: int = 2
    #: per-attempt wall-clock limit in seconds (None = unlimited;
    #: enforced only when worker processes are in play, i.e. jobs > 1)
    point_timeout: Optional[float] = None
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: per-run checkpoint file (None = no journaling)
    checkpoint: Optional[str] = None
    #: load the checkpoint and skip already-completed points
    resume: bool = False
    #: fault spec consulted by workers (None falls back to
    #: ``$REPRO_FAULT_SPEC``); see :mod:`repro.faults`
    fault_spec: Optional[str] = None
    #: "raise": re-raise a point's terminal error (library default);
    #: "collect": record a FailureRow and keep sweeping (CLI default)
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError("point_timeout must be positive seconds")
        if self.on_failure not in ("raise", "collect"):
            raise ValueError("on_failure must be 'raise' or 'collect'")

    def resolved_fault_spec(self) -> Optional[str]:
        spec = self.fault_spec if self.fault_spec else faults.env_fault_spec()
        if spec:
            faults.parse_fault_spec(spec)  # fail fast on the coordinator
        return spec


@dataclass(frozen=True)
class FailureRow:
    """One point that exhausted its retry budget."""

    index: int
    point: str
    attempts: int
    error: str
    duration_s: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "point": self.point,
            "attempts": self.attempts,
            "error": self.error,
            "duration_s": self.duration_s,
        }


@dataclass
class RunReport:
    """Everything :func:`run_tasks` knows when the sweep ends."""

    #: one slot per item, in submission order; ``None`` where a point
    #: failed permanently (only possible with ``on_failure="collect"``)
    rows: List[Any]
    failures: List[FailureRow] = field(default_factory=list)
    #: rows loaded from the checkpoint instead of recomputed
    resumed: int = 0
    #: attempts beyond each point's first (sum over points)
    retries: int = 0
    #: process pools torn down and rebuilt (crash or timeout)
    pool_rebuilds: int = 0
    checkpoint_path: Optional[str] = None
    #: wall-clock seconds spent journaling rows to the checkpoint
    checkpoint_flush_s: float = 0.0

    @property
    def completed(self) -> List[Any]:
        """Rows that exist (failed points dropped, order preserved)."""
        return [row for row in self.rows if row is not None]


# ----------------------------------------------------------------------
# task identity
# ----------------------------------------------------------------------
def _item_digest(item: Any) -> str:
    """A stable coordinate digest for one task item.

    Pickle bytes are the primary identity (stable for the dataclass /
    tuple / scalar items the sweeps use); unpicklable items -- only
    possible on the serial path -- fall back to ``repr``.
    """
    try:
        payload = pickle.dumps(item, protocol=PICKLE_PROTOCOL)
    except Exception:  # lint: allow[broad-except] -- arbitrary __reduce__ can raise anything; repr fallback is always safe
        payload = repr(item).encode("utf-8", "replace")
    return hashlib.sha256(payload).hexdigest()


def _point_label(item: Any, star: bool) -> str:
    """A short human-readable name for a point (failure rows, logs)."""
    # Star-called items are argument tuples; the first argument is the
    # point spec in every sweep here, and the trailing provider/config
    # arguments just repeat per-sweep constants.
    subject = item[0] if star and isinstance(item, tuple) and item else item
    text = repr(subject)
    return text if len(text) <= 120 else text[:117] + "..."


def fingerprint_tasks(fn: Callable, items: Sequence, star: bool,
                      digests: Sequence[str]) -> str:
    """Identity of a task list, for checkpoint compatibility checks."""
    acc = hashlib.sha256()
    acc.update(f"{getattr(fn, '__module__', '?')}."
               f"{getattr(fn, '__qualname__', repr(fn))}".encode())
    acc.update(b"*" if star else b".")
    acc.update(str(len(items)).encode())
    for digest in digests:
        acc.update(digest.encode())
    return acc.hexdigest()


# ----------------------------------------------------------------------
# checkpoint journal
# ----------------------------------------------------------------------
class Checkpoint:
    """An atomically-rewritten journal of completed rows.

    The file is a single JSON document -- header (version, task-list
    fingerprint, total points) plus a ``rows`` map from point index to
    the base64 of the row's pickle -- rewritten through
    :func:`repro.resilience.atomic_write_text` after every harvest, so
    a kill at any instant leaves either the previous or the next
    complete journal, never a torn one.  Pickling the rows (rather
    than JSON-ing them) makes resume loss-free: a resumed row is the
    *same value* the worker returned, so resumed output is
    byte-identical to an uninterrupted run.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str,
                 total: int) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.total = total
        self._encoded: Dict[int, str] = {}
        self._dirty = False
        self.flush_seconds = 0.0

    def load_resume(self) -> Dict[int, Any]:
        """Rows from an existing checkpoint (empty when starting fresh).

        Raises :class:`CheckpointMismatch` when the file belongs to a
        different task list -- resuming must never splice rows from
        another sweep.
        """
        import json

        if not self.path.exists():
            return {}
        with open(self.path) as handle:
            doc = json.load(handle)
        if doc.get("version") != CHECKPOINT_VERSION:
            raise CheckpointMismatch(
                f"checkpoint {self.path} has version {doc.get('version')!r}, "
                f"expected {CHECKPOINT_VERSION}; delete it to start fresh"
            )
        if doc.get("fingerprint") != self.fingerprint or (
            doc.get("total") != self.total
        ):
            raise CheckpointMismatch(
                f"checkpoint {self.path} was written by a different sweep "
                f"(task list changed); delete it or run without --resume"
            )
        rows: Dict[int, Any] = {}
        for key, blob in doc.get("rows", {}).items():
            index = int(key)
            self._encoded[index] = blob
            rows[index] = pickle.loads(base64.b64decode(blob))
        return rows

    def record(self, index: int, row: Any) -> None:
        start = time.perf_counter()
        blob = base64.b64encode(
            pickle.dumps(row, protocol=PICKLE_PROTOCOL)
        ).decode("ascii")
        self._encoded[index] = blob
        self._dirty = True
        self.flush_seconds += time.perf_counter() - start

    def flush(self, force: bool = False) -> None:
        import json

        if not self._dirty and not force:
            return
        start = time.perf_counter()
        doc = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "total": self.total,
            "rows": {str(i): self._encoded[i] for i in sorted(self._encoded)},
        }
        atomic_write_text(self.path, json.dumps(doc))
        self._dirty = False
        self.flush_seconds += time.perf_counter() - start

    def remove(self) -> None:
        self.path.unlink(missing_ok=True)


def checkpoint_dir() -> str:
    """Where checkpoint journals live.

    ``$REPRO_CHECKPOINT_DIR`` when set (mirroring ``$REPRO_TRACE_DIR``
    for the trace cache -- the service points this at its data
    directory so per-job journals never land in the CWD), otherwise
    ``results/checkpoints/``.  Created on demand.
    """
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    if env:
        directory = os.path.abspath(env)
    else:
        from repro.experiments.report import results_path

        directory = os.path.dirname(results_path(
            os.path.join("checkpoints", "_")
        ))
    os.makedirs(directory, exist_ok=True)
    return directory


def default_checkpoint_path(name: str) -> str:
    """``<checkpoint_dir()>/<name>.ckpt`` (the CLI convention)."""
    return os.path.join(checkpoint_dir(), f"{name}.ckpt")


# ----------------------------------------------------------------------
# worker entry
# ----------------------------------------------------------------------
@dataclass
class SnapshotBundle:
    """A worker-side result carrying its point's telemetry snapshots.

    Process-pool workers cannot call the coordinator's ``on_snapshot``
    directly, so they collect snapshots and ship them over the existing
    result channel alongside the row; :meth:`_SweepState.harvest`
    unwraps the bundle, delivering the snapshots *before* the row (a
    row's arrival means the point is done) and journaling only the bare
    row -- checkpoints stay byte-identical to snapshot-free runs.
    """

    row: Any
    snapshots: List[Any] = field(default_factory=list)


def _run_task(fn: Callable, item: Any, star: bool, index: int, attempt: int,
              fault_spec: Optional[str], digest: str,
              snapshots=None):
    """Execute one point in a worker (module-level, so it pickles).

    ``snapshots`` selects the telemetry mode: ``None`` calls ``fn``
    exactly as before; ``"collect"`` (the process-pool mode) passes a
    list-appending ``emit_snapshot`` kwarg and wraps the result in a
    :class:`SnapshotBundle`; a callable (the in-process serial mode) is
    passed through as ``emit_snapshot`` so snapshots reach the
    coordinator live, while the point is still running.
    """
    faults.inject(fault_spec, index, digest, attempt)
    if snapshots is None:
        return fn(*item) if star else fn(item)
    if snapshots == "collect":
        bag: List[Any] = []
        row = (
            fn(*item, emit_snapshot=bag.append) if star
            else fn(item, emit_snapshot=bag.append)
        )
        return SnapshotBundle(row=row, snapshots=bag)
    row = (
        fn(*item, emit_snapshot=snapshots) if star
        else fn(item, emit_snapshot=snapshots)
    )
    return row


# ----------------------------------------------------------------------
# the runtime
# ----------------------------------------------------------------------
class _SweepState:
    """Mutable coordinator bookkeeping shared by the loop helpers."""

    def __init__(self, fn, items, star, policy, jobs, on_row=None,
                 on_snapshot=None):
        self.fn = fn
        self.items = items
        self.star = star
        self.policy = policy
        self.jobs = jobs
        self.on_row = on_row
        self.on_snapshot = on_snapshot
        self.digests = [_item_digest(item) for item in items]
        self.fault_spec = policy.resolved_fault_spec()
        self.report = RunReport(rows=[None] * len(items))
        self.attempts: Dict[int, int] = {}
        #: monotonic time each pending index becomes submittable
        self.eligible: Dict[int, float] = {}
        self.pending: List[int] = []
        self.checkpoint: Optional[Checkpoint] = None

    def tries(self, index: int) -> int:
        """Attempts charged so far, i.e. the next attempt is tries+1."""
        return self.attempts.get(index, 0)

    def harvest(self, index: int, row: Any) -> None:
        if isinstance(row, SnapshotBundle):
            if self.on_snapshot is not None:
                for snap in row.snapshots:
                    self.on_snapshot(index, snap)
            row = row.row
        self.report.rows[index] = row
        if self.checkpoint is not None:
            self.checkpoint.record(index, row)
        if self.on_row is not None:
            self.on_row(index, row)

    def charge(self, index: int, error: BaseException, error_text: str,
               duration: float) -> None:
        """One failed attempt: schedule a retry or fail permanently."""
        self.attempts[index] = self.tries(index) + 1
        if self.attempts[index] > self.policy.max_retries:
            self.fail(index, error, error_text, duration)
            return
        self.report.retries += 1
        delay = backoff_delay(
            self.policy.backoff, self.digests[index], self.attempts[index]
        )
        self.eligible[index] = time.monotonic() + delay
        self.pending.append(index)

    def fail(self, index: int, error: BaseException, error_text: str,
             duration: float) -> None:
        if self.policy.on_failure == "raise":
            raise error
        self.report.failures.append(
            FailureRow(
                index=index,
                point=_point_label(self.items[index], self.star),
                attempts=self.attempts[index],
                error=error_text,
                duration_s=round(duration, 3),
            )
        )

    def requeue(self, index: int) -> None:
        """Put an index back without charging it (lost to a pool kill)."""
        self.eligible[index] = 0.0
        self.pending.append(index)


def _restore_sigterm() -> None:
    """Pool worker initializer: let SIGTERM kill the worker outright.

    A forked worker inherits the coordinator's SIGTERM handler -- the
    CLI's :func:`_sigterm_as_interrupt` or the service's stop handler --
    so :func:`_kill_pool`'s ``terminate`` would print a
    ``KeyboardInterrupt`` traceback from every idle worker, or be
    ignored by a hung one until the SIGKILL escalation.  Workers are
    forked with SIGTERM blocked (:func:`_sigterm_blocked`), so a
    ``terminate`` that lands before this runs stays pending and kills
    the worker once the default action is back.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


@contextmanager
def _sigterm_blocked():
    """Block SIGTERM in this thread; a process forked meanwhile inherits
    the block.  A pool forks its workers inside its first ``submit``."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _new_pool(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=jobs, initializer=_restore_sigterm)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, escalating to SIGKILL for stuck workers."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)


def _drain_in_flight(
    state: _SweepState,
    in_flight: Dict[Future, Tuple[int, float]],
    charged: Set[int],
    error: BaseException,
    error_text: str,
) -> None:
    """Classify every in-flight future after a pool kill/break.

    Futures that actually finished are harvested (a pool break must
    never discard a computed row); indices in ``charged`` are billed an
    attempt; the rest requeue uncharged.
    """
    now = time.monotonic()
    for fut, (index, started) in in_flight.items():
        if fut.done() and not fut.cancelled() and fut.exception() is None:
            state.harvest(index, fut.result())
        elif index in charged:
            state.charge(index, error, error_text, now - started)
        else:
            state.requeue(index)
    in_flight.clear()


def _parallel_loop(state: _SweepState) -> None:
    policy = state.policy
    pool = _new_pool(state.jobs)
    in_flight: Dict[Future, Tuple[int, float]] = {}
    if policy.point_timeout is None:
        tick = 0.25
    else:
        tick = max(0.01, min(0.25, policy.point_timeout / 4.0))
    try:
        while state.pending or in_flight:
            now = time.monotonic()
            # Submit eligible points, lowest index first, one per free
            # worker.  Capping in-flight at ``jobs`` keeps submit time
            # ~= start time, which is what makes the wall-clock timeout
            # measure *execution*, not queueing.
            state.pending.sort()
            rebuilt = False
            for index in list(state.pending):
                if len(in_flight) >= state.jobs:
                    break
                if state.eligible.get(index, 0.0) > now:
                    continue
                try:
                    with _sigterm_blocked():
                        fut = pool.submit(
                            _run_task, state.fn, state.items[index],
                            state.star, index, state.tries(index) + 1,
                            state.fault_spec, state.digests[index],
                            "collect" if state.on_snapshot is not None
                            else None,
                        )
                except BrokenProcessPool as exc:
                    # The pool died between harvests; rebuild and let
                    # the drain below charge the in-flight points.
                    state.report.pool_rebuilds += 1
                    _drain_in_flight(
                        state, in_flight, {i for i, _ in in_flight.values()},
                        exc, "worker crashed (process pool broken)",
                    )
                    _kill_pool(pool)
                    pool = _new_pool(state.jobs)
                    rebuilt = True
                    break
                state.pending.remove(index)
                in_flight[fut] = (index, time.monotonic())
            if rebuilt:
                continue

            if not in_flight:
                # Everyone left is backing off: sleep to the earliest
                # eligibility instead of spinning.
                wake = min(state.eligible[i] for i in state.pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            done, _ = wait(
                list(in_flight), timeout=tick, return_when=FIRST_COMPLETED
            )
            broken: Optional[BaseException] = None
            for fut in done:
                index, started = in_flight.pop(fut)
                try:
                    row = fut.result()
                except BrokenProcessPool as exc:
                    in_flight[fut] = (index, started)  # handle as a unit
                    broken = exc
                    break
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # lint: allow[broad-except] -- worker faults (incl. SystemExit) become structured failure rows
                    state.charge(
                        index, exc, f"{type(exc).__name__}: {exc}",
                        time.monotonic() - started,
                    )
                else:
                    state.harvest(index, row)

            if broken is not None:
                # One dead worker fails *every* in-flight future; the
                # culprit is unknowable, so each unfinished point is
                # charged one attempt (bounded suspicion), finished
                # ones are harvested, and the pool is rebuilt.
                state.report.pool_rebuilds += 1
                _drain_in_flight(
                    state, in_flight, {i for i, _ in in_flight.values()},
                    broken, "worker crashed (process pool broken)",
                )
                _kill_pool(pool)
                pool = _new_pool(state.jobs)
                continue

            if state.checkpoint is not None:
                state.checkpoint.flush()

            if policy.point_timeout is not None:
                now = time.monotonic()
                expired = {
                    index
                    for fut, (index, started) in in_flight.items()
                    if not fut.done() and now - started >= policy.point_timeout
                }
                if expired:
                    # ProcessPoolExecutor cannot kill one worker, so a
                    # stuck point costs the whole pool; unexpired
                    # neighbours requeue uncharged.
                    state.report.pool_rebuilds += 1
                    timeout_exc = PointTimeout(
                        f"point exceeded --point-timeout "
                        f"{policy.point_timeout:g}s"
                    )
                    _drain_in_flight(
                        state, in_flight, expired, timeout_exc,
                        f"timed out after {policy.point_timeout:g}s",
                    )
                    _kill_pool(pool)
                    pool = _new_pool(state.jobs)
    finally:
        _kill_pool(pool)


def _serial_loop(state: _SweepState) -> None:
    policy = state.policy
    on_snapshot = state.on_snapshot
    for index in list(state.pending):
        state.pending.remove(index)
        if on_snapshot is None:
            emit = None
        else:
            # In-process: snapshots reach the coordinator live, while
            # the point is still running (this is what feeds the
            # service's per-job stream and the CLI progress line).
            emit = lambda snap, _i=index: on_snapshot(_i, snap)  # noqa: E731
        while True:
            attempt = state.tries(index) + 1
            started = time.perf_counter()
            try:
                row = _run_task(
                    state.fn, state.items[index], state.star, index, attempt,
                    state.fault_spec, state.digests[index], emit,
                )
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # lint: allow[broad-except] -- injected faults raise SystemExit-grade errors; charge() owns the budget
                duration = time.perf_counter() - started
                before = len(state.report.failures)
                state.charge(
                    index, exc, f"{type(exc).__name__}: {exc}", duration
                )
                if len(state.report.failures) > before:
                    break  # collected a permanent failure; next point
                state.pending.remove(index)  # charge() requeued it
                delay = state.eligible[index] - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            else:
                state.harvest(index, row)
                if state.checkpoint is not None:
                    state.checkpoint.flush()
                break


@contextmanager
def _sigterm_as_interrupt():
    """Treat SIGTERM like Ctrl-C for the duration of a sweep.

    ``kill <pid>`` (and the service's drain path) must never strand a
    half-written checkpoint journal: the handler raises
    ``KeyboardInterrupt``, which the sweep's existing interrupt path
    turns into a flushed journal plus a :class:`SweepInterrupted`
    carrying the ``--resume`` hint.  Signal handlers can only be
    installed from the main thread (the service runs sweeps from
    supervisor worker threads and owns SIGTERM itself), so anywhere
    else this is a no-op.  The previous handler is restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt

    previous = signal.getsignal(signal.SIGTERM)
    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def run_tasks(
    fn: Callable,
    items: Sequence,
    *,
    jobs: int = 1,
    star: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    on_row: Optional[Callable[[int, Any], None]] = None,
    on_snapshot: Optional[Callable[[int, Any], None]] = None,
) -> RunReport:
    """Run every item through ``fn`` under the fault-tolerance policy.

    Returns a :class:`RunReport` whose ``rows`` are in submission
    order regardless of scheduling, retries, pool rebuilds, or resume.
    ``jobs <= 1`` (or a single item) runs serially in-process: retry,
    checkpoint, resume, and fault injection all still apply, but
    ``point_timeout`` needs worker processes and is not enforced (an
    injected ``crash`` there exits the *calling* process -- which is
    exactly what the kill-mid-sweep tests use it for).

    ``on_row(index, row)`` is invoked on the coordinator as each row
    lands -- once per index, including rows restored by ``resume`` --
    so callers (the simulation service's sqlite store, live progress
    reporting) can persist results incrementally instead of waiting
    for the report.

    ``on_snapshot(index, snapshot)`` enables intra-point telemetry.
    When set, ``fn`` must accept an ``emit_snapshot`` keyword (a
    callable it hands to the engine's snapshot hook).  On the serial
    path snapshots are delivered *live*, while the point is running;
    on the process-pool path workers collect them and ship them with
    the row over the result channel, so they arrive -- in emission
    order, before ``on_row`` for that index -- when the point
    completes.  Rows restored by ``resume`` re-deliver no snapshots,
    and journaled rows are byte-identical to a snapshot-free run.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    state = _SweepState(
        fn, list(items), star, policy, max(1, int(jobs)), on_row=on_row,
        on_snapshot=on_snapshot,
    )

    if policy.checkpoint is not None:
        state.checkpoint = Checkpoint(
            policy.checkpoint,
            fingerprint_tasks(fn, state.items, star, state.digests),
            total=len(state.items),
        )
        state.report.checkpoint_path = str(state.checkpoint.path)
        if policy.resume:
            for index, row in state.checkpoint.load_resume().items():
                state.report.rows[index] = row
                state.report.resumed += 1
                if on_row is not None:
                    on_row(index, row)
        else:
            state.checkpoint.remove()  # a fresh run replaces stale journals

    state.pending = [
        i for i in range(len(state.items)) if state.report.rows[i] is None
    ]
    state.eligible = {i: 0.0 for i in state.pending}

    try:
        if state.pending:
            with _sigterm_as_interrupt():
                if state.jobs == 1 or len(state.pending) == 1:
                    _serial_loop(state)
                else:
                    _parallel_loop(state)
    except KeyboardInterrupt:
        if state.checkpoint is not None:
            state.checkpoint.flush()
        done = sum(1 for row in state.report.rows if row is not None)
        raise SweepInterrupted(
            state.report.checkpoint_path, done, len(state.items)
        ) from None
    finally:
        if state.checkpoint is not None:
            state.checkpoint.flush()
            state.report.checkpoint_flush_s = state.checkpoint.flush_seconds

    if state.checkpoint is not None and not state.report.failures:
        # A fully-successful run needs no journal; failures keep it so
        # a --resume re-run retries only the failed points.
        state.checkpoint.remove()
    return state.report


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def cli_policy(
    args: List[str],
    name: str,
    on_failure: str = "collect",
) -> ExecutionPolicy:
    """Build a policy from the shared CLI flags (popped from ``args``).

    Flags: ``--resume``, ``--max-retries N``, ``--point-timeout S``,
    ``--fault-spec SPEC``, ``--no-checkpoint``.  The checkpoint
    defaults to ``results/checkpoints/<name>.ckpt``.
    """
    from repro.cliutil import pop_option

    resume = "--resume" in args
    while "--resume" in args:
        args.remove("--resume")
    no_checkpoint = "--no-checkpoint" in args
    while "--no-checkpoint" in args:
        args.remove("--no-checkpoint")
    max_retries = pop_option(args, "--max-retries")
    point_timeout = pop_option(args, "--point-timeout")
    fault_spec = pop_option(args, "--fault-spec")
    try:
        if fault_spec:
            faults.parse_fault_spec(fault_spec)  # reject typos before running
        return ExecutionPolicy(
            max_retries=int(max_retries) if max_retries is not None else 2,
            point_timeout=(
                float(point_timeout) if point_timeout is not None else None
            ),
            checkpoint=None if no_checkpoint else default_checkpoint_path(name),
            resume=resume,
            fault_spec=fault_spec,
            on_failure=on_failure,
        )
    except (ValueError, faults.FaultSpecError) as exc:
        raise SystemExit(str(exc))


@contextmanager
def exit_on_interrupt():
    """CLI guard: Ctrl-C prints the resume command, not a traceback."""
    try:
        yield
    except SweepInterrupted as exc:
        print(f"\n{exc.summary()}")
        raise SystemExit(130) from None


def render_failures(failures: Sequence[FailureRow]) -> str:
    """The structured failure table the CLIs print (never a traceback)."""
    from repro.analysis.plotting import format_table

    rows = [
        [f.index, f.point, f.attempts, f.error, f.duration_s]
        for f in failures
    ]
    return format_table(
        ["#", "point", "attempts", "error", "last_attempt_s"], rows
    )


def print_failures(report: RunReport) -> bool:
    """Print the failure summary; ``True`` when any point failed (the
    figure mains turn that into exit status 1)."""
    if not report.failures:
        return False
    print(
        f"\n{len(report.failures)} point(s) failed after retries "
        f"(completed rows are kept"
        + (
            f"; checkpoint retained at {report.checkpoint_path} -- "
            f"re-run with --resume to retry only the failures)"
            if report.checkpoint_path
            else ")"
        )
    )
    print(render_failures(report.failures))
    return True
