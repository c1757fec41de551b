"""``python -m repro serve`` -- boot the simulation service.

Usage::

    python -m repro serve [options]

Options:
    --host HOST              bind address (default 127.0.0.1)
    --port N                 TCP port; 0 binds an ephemeral port and
                             prints it (default 8642)
    --data-dir PATH          service state root: ``jobs.sqlite3`` +
                             ``checkpoints/`` (default results/serve)
    --max-workers N          concurrent job executor threads (default 2)
    --max-queued N           bounded queue; a full queue answers 429 +
                             Retry-After (default 16)
    --drain-timeout S        SIGTERM/SIGINT grace: finish in-flight
                             jobs within S seconds, requeue the rest
                             for resume-on-restart, exit 0 (default 30)
    --heartbeat-timeout S    a running job silent this long (and not
                             owned by a live worker) is requeued or
                             failed by the maintenance loop (default 120)
    --maintenance-interval S maintenance loop period (default 2)
    --job-attempts N         whole-job attempt cap across restarts and
                             stale reaps (default 3)
    --verbose                request + debug logging to stderr

Submit work with plain curl::

    curl -s -X POST localhost:8642/jobs \\
      -d '{"scenarios": ["flash-crowd"], "n0_scale": 0.25}'
    curl -s localhost:8642/jobs/<id>
    curl -s localhost:8642/jobs/<id>/rows

and watch it run live (Server-Sent Events; ``curl -N`` disables
buffering) or long-poll the same route where a stream will not do::

    curl -N localhost:8642/jobs/<id>/live
    curl -s 'localhost:8642/jobs/<id>/live?since=-1'

``GET /metrics`` exposes Prometheus text -- service gauges plus
per-running-job spend-rate/bad-fraction gauges from the latest
snapshot (see EXPERIMENTS.md, "Observability").

Durability contract: every completed point's row is already in the
WAL-mode sqlite store and the job's checkpoint journal the moment it
finishes, so ``kill -9`` of the service loses at most in-flight
points; the next start requeues interrupted jobs, resumes them from
their journals, and produces final rows byte-identical to an
uninterrupted run.  Checkpoints live under ``<data-dir>/checkpoints``
via ``$REPRO_CHECKPOINT_DIR`` (exported for this process unless
already set).
"""

from __future__ import annotations

import logging
import os
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.cliutil import pop_number, pop_option
from repro.serve.api import make_server
from repro.serve.store import JobStore
from repro.serve.supervisor import Supervisor

DEFAULT_PORT = 8642


def default_data_dir() -> Path:
    """``results/serve`` next to the other experiment outputs."""
    from repro.experiments.report import results_path

    return Path(results_path("serve"))


def main(argv: Optional[List[str]] = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    if args and args[0] in ("-h", "--help"):
        print(__doc__)
        return 0

    host = pop_option(args, "--host", "127.0.0.1")
    port = pop_number(args, "--port", int, DEFAULT_PORT)
    data_dir = Path(pop_option(args, "--data-dir", str(default_data_dir())))
    max_workers = pop_number(args, "--max-workers", int, 2)
    max_queued = pop_number(args, "--max-queued", int, 16)
    drain_timeout = pop_number(args, "--drain-timeout", float, 30.0)
    heartbeat_timeout = pop_number(args, "--heartbeat-timeout", float, 120.0)
    maintenance_interval = pop_number(args, "--maintenance-interval", float, 2.0)
    job_attempts = pop_number(args, "--job-attempts", int, 3)
    verbose = "--verbose" in args
    args = [a for a in args if a != "--verbose"]
    if args:
        raise SystemExit(f"unknown option(s): {', '.join(args)}")

    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )

    data_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_root = data_dir / "checkpoints"
    checkpoint_root.mkdir(parents=True, exist_ok=True)
    # Nested sweep machinery that derives its own checkpoint paths must
    # land in the data dir too, never the CWD.
    os.environ.setdefault("REPRO_CHECKPOINT_DIR", str(checkpoint_root))

    store = JobStore(data_dir / "jobs.sqlite3")
    supervisor = Supervisor(
        store,
        checkpoint_root,
        max_workers=max_workers,
        max_queued=max_queued,
        heartbeat_timeout=heartbeat_timeout,
        maintenance_interval=maintenance_interval,
        job_attempts=job_attempts,
    )
    supervisor.start()

    server = make_server(supervisor, host=host, port=port)
    bound_port = server.server_address[1]
    print(
        f"repro serve listening on http://{host}:{bound_port} "
        f"(data: {data_dir})",
        flush=True,
    )

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server_thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    server_thread.start()
    try:
        # Short waits keep the main loop responsive to signals even on
        # platforms where a bare Event.wait() is not interruptible.
        while not stop.wait(0.5):
            pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    print(f"draining (timeout {drain_timeout:g}s)...", flush=True)
    server.shutdown()  # stop accepting; in-flight requests finish
    server.server_close()
    clean = supervisor.drain(drain_timeout)
    if clean:
        print("drained cleanly; all in-flight jobs reached a terminal "
              "state", flush=True)
        return 0
    # Jobs still running were requeued (resume=True); their checkpoint
    # journals hold every completed point.  Worker threads (and any
    # process-pool children) are daemonic/orphaned -- a hard exit here
    # is safe *because* all durable state is already on disk, and it is
    # what guarantees exit 0 within --drain-timeout.
    print("drain deadline reached; interrupted jobs requeued for "
          "resume on next start", flush=True)
    sys.stdout.flush()
    store.close()
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
