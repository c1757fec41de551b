"""CI perf trend report: fresh benchmark snapshots vs the committed ones.

``make bench-quick`` / ``make bench-scale`` overwrite ``BENCH_micro.json``
and ``BENCH_scale.json`` in place, so the baseline is read from git
(``git show HEAD:<file>``) rather than the working tree.  Throughput
metrics (events/sec, speedups) regress when they *drop* by more than the
threshold; wall-time metrics regress when they *grow* by more than the
threshold.  Sub-threshold drift is reported but not flagged.  A few
metrics carry *absolute* budgets instead (``MICRO_LIMITS``, e.g.
checkpoint journaling overhead < 5% of the sweep wall) and are flagged
whenever the fresh value exceeds the budget, baseline or not.

The report is a markdown table printed to stdout and, when running under
GitHub Actions (``GITHUB_STEP_SUMMARY`` set), appended to the workflow
summary so regressions are visible in review without digging through
artifacts.  The exit code is 0 unless ``--strict`` is given (perf on
shared CI runners is noisy; the trend is advisory by default).

Usage::

    python benchmarks/perf_trend.py [--threshold 0.2] [--strict]
        [--micro BENCH_micro.json] [--scale BENCH_scale.json]
        [--baseline-ref HEAD]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: metric name -> (json key, higher_is_better) for the micro snapshot.
MICRO_METRICS = {
    "engine events/sec (fast path)": ("engine_events_per_sec", True),
    "quick sweep wall (s)": ("sweep_serial_s", False),
    # membership floor (bench_membership.py merges these keys in)
    "membership arena join (ns)": ("membership_arena_join_ns", False),
    "membership arena batch join (ns)": ("membership_arena_join_batch_ns", False),
    "membership arena remove (ns)": ("membership_arena_remove_ns", False),
    "membership arena random_good (ns)": ("membership_arena_random_good_ns", False),
    "checkpointed quick sweep wall (s)": ("sweep_checkpoint_s", False),
}

#: metric name -> (json key, absolute ceiling) for the micro snapshot.
#: Unlike the relative trend these need no committed baseline: the
#: fresh value alone is compared to a fixed budget (the checkpoint
#: journaling guard from the fault-tolerant runtime work).
MICRO_LIMITS = {
    "checkpoint journaling overhead (% of sweep wall)": (
        "sweep_checkpoint_overhead_pct",
        5.0,
    ),
    "snapshot emission overhead (% of engine wall)": (
        "snapshot_overhead_pct",
        3.0,
    ),
}

#: Budget for the *disabled* profiler's engine cost: how much fresh
#: fast-path throughput may fall short of the committed snapshot's.
#: The profiler's contract is that run() with ``profile=None`` binds
#: the same callables it always did, so any sustained drop here is
#: instrumentation leaking into the hot loop (or a real engine
#: regression -- either way, look).  Derived from
#: ``engine_events_per_sec``, not measured in-binary: an off-vs-off
#: A/B inside one process is pure scheduler noise.
PROFILER_OFF_BUDGET_PCT = 3.0

#: per-defense metrics from the scale snapshot's ``runs`` rows (the
#: ``runs_xl`` tier reports under a ``scale-xl/`` prefix and the
#: streamed 10^6-event trace-replay tier under ``trace-replay/``).
SCALE_METRICS = {
    "events/sec": ("events_per_sec", True),
    "wall (s)": ("wall_s", False),
    # Span attribution shares (bench_scale's profiled extra run):
    # growth means that bucket is eating a larger slice of the wall.
    "heap span share (%)": ("span_heap_pct", False),
    "defense span share (%)": ("span_defense_pct", False),
    "dispatch span share (%)": ("span_dispatch_pct", False),
}

#: scale-snapshot tiers: (rows key, report prefix).
SCALE_TIERS = (
    ("runs", "scale"),
    ("runs_xl", "scale-xl"),
    ("runs_trace", "trace-replay"),
)


REPO_ROOT = Path(__file__).resolve().parent.parent


def load_baseline(path: str, ref: str) -> Optional[dict]:
    """The committed snapshot at ``ref``, or ``None`` when unavailable.

    The baseline is looked up at the *same repo-relative path* as the
    fresh file (git paths are always repo-rooted); a fresh file outside
    the repository has no committed counterpart and compares to nothing
    rather than to a same-named file somewhere else.
    """
    try:
        rel = Path(path).resolve().relative_to(REPO_ROOT)
    except ValueError:
        return None
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{rel.as_posix()}"],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, OSError, json.JSONDecodeError):
        return None


def load_fresh(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def compare_metric(
    label: str,
    baseline: Optional[float],
    fresh: Optional[float],
    higher_is_better: bool,
    threshold: float,
) -> Optional[dict]:
    """One comparison row; ``None`` when either side is missing/zero."""
    if not isinstance(baseline, (int, float)) or not isinstance(fresh, (int, float)):
        return None
    if baseline == 0:
        return None
    change = (fresh - baseline) / abs(baseline)
    worse = -change if higher_is_better else change
    return {
        "metric": label,
        "baseline": baseline,
        "fresh": fresh,
        "change": change,
        "regressed": worse > threshold,
    }


def collect_rows(
    micro_fresh: Optional[dict],
    micro_base: Optional[dict],
    scale_fresh: Optional[dict],
    scale_base: Optional[dict],
    threshold: float,
) -> List[dict]:
    rows: List[dict] = []
    if micro_fresh and micro_base:
        for label, (key, higher) in MICRO_METRICS.items():
            row = compare_metric(
                f"micro: {label}",
                micro_base.get(key),
                micro_fresh.get(key),
                higher,
                threshold,
            )
            if row:
                rows.append(row)
    if micro_fresh:
        # Absolute budgets: compared against the fixed limit (shown in
        # the "committed" column), not a committed snapshot, so they
        # guard even a first run with no baseline.
        for label, (key, limit) in MICRO_LIMITS.items():
            fresh = micro_fresh.get(key)
            if not isinstance(fresh, (int, float)):
                continue
            rows.append(
                {
                    "metric": f"micro: {label}",
                    "baseline": limit,
                    "fresh": fresh,
                    "change": (fresh - limit) / limit,
                    "regressed": fresh > limit,
                }
            )
    if micro_fresh and micro_base:
        base_eps = micro_base.get("engine_events_per_sec")
        fresh_eps = micro_fresh.get("engine_events_per_sec")
        if (isinstance(base_eps, (int, float))
                and isinstance(fresh_eps, (int, float)) and base_eps > 0):
            overhead_pct = max(0.0, 100.0 * (base_eps - fresh_eps) / base_eps)
            rows.append(
                {
                    "metric": ("micro: profiler-disabled engine overhead "
                               "(% vs committed events/sec)"),
                    "baseline": PROFILER_OFF_BUDGET_PCT,
                    "fresh": round(overhead_pct, 2),
                    "change": (
                        (overhead_pct - PROFILER_OFF_BUDGET_PCT)
                        / PROFILER_OFF_BUDGET_PCT
                    ),
                    "regressed": overhead_pct > PROFILER_OFF_BUDGET_PCT,
                }
            )
    if scale_fresh and scale_base:
        for tier, prefix in SCALE_TIERS:
            base_runs = {
                r.get("defense"): r for r in scale_base.get(tier, [])
            }
            for run in scale_fresh.get(tier, []):
                base = base_runs.get(run.get("defense"))
                if not base:
                    continue
                for label, (key, higher) in SCALE_METRICS.items():
                    row = compare_metric(
                        f"{prefix}/{run['defense']}: {label}",
                        base.get(key),
                        run.get(key),
                        higher,
                        threshold,
                    )
                    if row:
                        rows.append(row)
    return rows


def render_markdown(rows: List[dict], threshold: float, notes: List[str]) -> str:
    lines = ["## Perf trend vs committed snapshots", ""]
    for note in notes:
        lines.append(f"> {note}")
    if notes:
        lines.append("")
    if not rows:
        lines.append("_No comparable metrics found._")
        return "\n".join(lines)
    regressions = [r for r in rows if r["regressed"]]
    if regressions:
        lines.append(
            f"**:warning: {len(regressions)} metric(s) regressed more than "
            f"{threshold:.0%}.**"
        )
    else:
        lines.append(f"No regressions beyond {threshold:.0%}.")
    lines += [
        "",
        "| metric | committed | fresh | change | |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        flag = ":warning: regression" if row["regressed"] else ""
        lines.append(
            f"| {row['metric']} | {row['baseline']:g} | {row['fresh']:g} "
            f"| {row['change']:+.1%} | {flag} |"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])

    def opt(flag: str, default: str) -> str:
        for i, arg in enumerate(args):
            if arg == flag and i + 1 < len(args):
                return args[i + 1]
            if arg.startswith(flag + "="):
                return arg.split("=", 1)[1]
        return default

    threshold = float(opt("--threshold", "0.2"))
    micro_path = opt("--micro", "BENCH_micro.json")
    scale_path = opt("--scale", "BENCH_scale.json")
    ref = opt("--baseline-ref", "HEAD")
    strict = "--strict" in args

    micro_fresh = load_fresh(micro_path)
    scale_fresh = load_fresh(scale_path)
    micro_base = load_baseline(micro_path, ref)
    scale_base = load_baseline(scale_path, ref)

    notes = []
    for label, fresh, base in (
        ("micro", micro_fresh, micro_base),
        ("scale", scale_fresh, scale_base),
    ):
        if fresh is None:
            notes.append(f"{label}: fresh snapshot missing -- run the benchmark first")
        elif base is None:
            notes.append(f"{label}: no committed baseline at {ref} -- skipped")

    rows = collect_rows(micro_fresh, micro_base, scale_fresh, scale_base, threshold)
    text = render_markdown(rows, threshold, notes)
    print(text)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        # GITHUB_STEP_SUMMARY is an append-only contract shared with
        # every other CI step; replacing the file would drop their
        # sections, and a torn tail only costs one advisory report.
        with open(summary_path, "a") as handle:  # lint: allow[atomic-write] -- shared append-only CI summary file
            handle.write(text + "\n")

    if strict and any(row["regressed"] for row in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
