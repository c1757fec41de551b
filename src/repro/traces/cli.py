"""``python -m repro traces`` -- the trace subsystem CLI.

Usage::

    python -m repro traces list
    python -m repro traces fetch <name> [<name> ...] [--force]
    python -m repro traces stats <ref> [--time-scale X] [--duration D]
    python -m repro traces convert <src> <dst> [--time-scale X]
                                   [--duration D] [--block-size N]

Commands:
    list     registered trace sources (kind, ~events, cached state)
    fetch    materialize sources into the trace cache: downloads URL
             sources (SHA-256 verified), generates synthetic ones
             deterministically -- both idempotent; ``--force`` refreshes
    stats    stream a trace (registry name, fixture, or path; ``.gz``
             ok) and print joins/departures/rates -- bounded memory,
             works on traces of any length
    convert  re-write a trace through the streaming reader: compress or
             decompress (by destination suffix), rebase/rescale times,
             clip at a duration -- never materializes the trace

Refs resolve through the registry first, then the packaged fixtures,
the working directory, and the trace cache (``$REPRO_TRACE_DIR``,
default ``results/traces/``).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.analysis.plotting import format_table
from repro.churn.traces import save_trace_csv, trace_stats
from repro.cliutil import pop_number
from repro.traces.reader import DEFAULT_BLOCK_SIZE, stream_trace_blocks
from repro.traces.source import (
    fetch_trace,
    get_trace_source,
    resolve_trace,
    trace_cache_dir,
    trace_source_names,
)


def _list_sources() -> str:
    rows = []
    for name in trace_source_names():
        source = get_trace_source(name)
        hint = source.events_hint
        if source.kind == "packaged":
            state = "packaged"
        elif source.cached_path().exists():
            state = "cached"
        elif source.kind == "synthetic":
            state = "on-demand"
        else:
            state = "not fetched"
        rows.append(
            [
                name,
                source.kind,
                f"~{hint}" if hint is not None else "?",
                state,
                source.description,
            ]
        )
    table = format_table(["trace", "kind", "events", "state", "description"], rows)
    return f"{table}\n\ntrace cache: {trace_cache_dir()}"


def _cmd_fetch(args: List[str]) -> int:
    force = "--force" in args
    names = [a for a in args if a != "--force"]
    if not names:
        raise SystemExit("fetch requires at least one trace name")
    for name in names:
        path = fetch_trace(name, force=force)
        source = get_trace_source(name)
        sha = f"  sha256={source.sha256[:12]}..." if source.sha256 else ""
        print(f"{name}: {path}{sha}")
    return 0


def _cmd_stats(args: List[str]) -> int:
    time_scale = pop_number(args, "--time-scale", default=1.0)
    duration = pop_number(args, "--duration")
    if len(args) != 1:
        raise SystemExit("stats requires exactly one trace ref")
    path = resolve_trace(args[0])
    stats = trace_stats(
        stream_trace_blocks(path, time_scale=time_scale, duration=duration)
    )
    print(f"trace: {path}")
    print(f"events:        {stats.joins + stats.departures}")
    print(f"joins:         {stats.joins}")
    print(f"departures:    {stats.departures}")
    print(f"span:          [{stats.first_time:.3f}, {stats.last_time:.3f}] s"
          f"  (duration {stats.duration:.3f} s)")
    print(f"join rate:     {stats.join_rate:.4f} /s")
    print(f"peak joins/1s: {stats.peak_joins_1s}")
    if stats.mean_session is not None:
        print(f"mean session:  {stats.mean_session:.3f} s")
    return 0


def _cmd_convert(args: List[str]) -> int:
    time_scale = pop_number(args, "--time-scale", default=1.0)
    duration = pop_number(args, "--duration")
    block_size = pop_number(args, "--block-size", int, DEFAULT_BLOCK_SIZE)
    if len(args) != 2:
        raise SystemExit("convert requires <src> and <dst>")
    src = resolve_trace(args[0])
    dst = args[1]
    blocks = stream_trace_blocks(
        src, block_size=block_size, time_scale=time_scale, duration=duration
    )
    save_trace_csv(dst, blocks)
    print(f"{src} -> {dst}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, args = args[0], args[1:]
    try:
        if command == "list":
            print(_list_sources())
            return 0
        if command == "fetch":
            return _cmd_fetch(args)
        if command == "stats":
            return _cmd_stats(args)
        if command == "convert":
            return _cmd_convert(args)
    except KeyError as exc:
        # Unknown registry name: surface the curated choose-from
        # message, not a traceback.
        raise SystemExit(exc.args[0])
    except (FileNotFoundError, ValueError) as exc:
        # Resolution failures and reader diagnostics (unsorted trace,
        # bad header, malformed row) are user-facing messages.
        raise SystemExit(str(exc))
    print(
        f"unknown traces command {command!r}; "
        "use 'list', 'fetch', 'stats' or 'convert'"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
