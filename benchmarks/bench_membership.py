"""Membership arena microbenchmark: per-op and batch.

The membership layer is the floor under the engine's block fast path
(every good join/departure lands here), so its per-op cost caps
simulation throughput.  This micro measures, for
:class:`~repro.identity.membership.ArenaMembershipSet`:

* ``join``        -- per-row ``add`` (single-row mutations);
* ``join_batch``  -- ``add_batch`` in engine-realistic runs
  (``BATCH`` rows, the block fast path's cost);
* ``remove``      -- ``remove_batch`` over the same runs, against a
  standing population (swap-removal + free-list recycling);
* ``random_good`` -- uniform victim selection (the ABC model's rule).

Results merge into ``BENCH_micro.json`` (run ``make bench-quick``
first; this target updates the membership keys in place) so
``benchmarks/perf_trend.py`` flags regressions in the new floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_membership.py \
        [--n 200000] [--json BENCH_micro.json]

or simply ``make bench-membership``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.identity.membership import ArenaMembershipSet
from repro.resilience import atomic_write_text

#: engine-realistic run length (session departures cut block runs to
#: roughly this size once a crowd's departures start interleaving)
BATCH = 8

#: best-of repetitions (the box's scheduler noise dominates one-shot
#: numbers; the workloads themselves are deterministic)
REPEATS = 3


def _time_ns_per_op(fn: Callable[[], int]) -> float:
    """Best-of-``REPEATS`` wall time of ``fn`` per operation, in ns."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - start
        per_op = elapsed * 1e9 / max(ops, 1)
        if best is None or per_op < best:
            best = per_op
    return round(best, 1)


def bench_arena(n: int) -> Dict[str, float]:
    cls = ArenaMembershipSet
    names = [f"g#{i}" for i in range(n)]
    times = [float(i) * 1e-3 for i in range(n)]

    def join() -> int:
        m = cls()
        add = m.add
        for ident, t in zip(names, times):
            add(ident, True, t)
        return n

    def join_batch() -> int:
        m = cls()
        add_batch = m.add_batch
        for start in range(0, n, BATCH):
            add_batch(
                names[start : start + BATCH],
                True,
                times[start : start + BATCH],
            )
        return n

    def remove() -> int:
        m = cls()
        m.add_batch(names, True, times)
        remove_batch = m.remove_batch
        for start in range(0, n, BATCH):
            remove_batch(names[start : start + BATCH])
        return n

    def random_good() -> int:
        m = cls()
        m.add_batch(names, True, times)
        rng = np.random.default_rng(0)
        draw = m.random_good
        draws = min(n, 100_000)
        for _ in range(draws):
            draw(rng)
        return draws

    return {
        "membership_arena_join_ns": _time_ns_per_op(join),
        "membership_arena_join_batch_ns": _time_ns_per_op(join_batch),
        "membership_arena_remove_ns": _time_ns_per_op(remove),
        "membership_arena_random_good_ns": _time_ns_per_op(random_good),
    }


def main(argv: List[str] = None) -> dict:
    args = list(argv if argv is not None else sys.argv[1:])

    def opt(flag: str, default: str) -> str:
        for i, arg in enumerate(args):
            if arg == flag and i + 1 < len(args):
                return args[i + 1]
            if arg.startswith(flag + "="):
                return arg.split("=", 1)[1]
        return default

    n = int(opt("--n", "200000"))
    json_path = opt("--json", "BENCH_micro.json")

    metrics: Dict[str, float] = {"membership_bench_n": n}
    metrics.update(bench_arena(n))

    # Merge into the existing micro snapshot rather than replacing it:
    # bench-quick owns the engine/sweep keys, this target the
    # membership_* keys.
    snapshot = {}
    if os.path.exists(json_path):
        try:
            with open(json_path) as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError):
            snapshot = {}
    snapshot.update(metrics)
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    atomic_write_text(json_path, text + "\n")
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return metrics


if __name__ == "__main__":
    main()
