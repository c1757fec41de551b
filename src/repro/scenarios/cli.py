"""``python -m repro scenarios`` -- the scenario subsystem CLI.

Usage::

    python -m repro scenarios list
    python -m repro scenarios run <name> [<name> ...] [options]
    python -m repro scenarios run --all [options]

Options:
    --defense NAME   restrict to one or more defenses (repeatable;
                     default: all of ERGO, CCOM, SybilControl, REMP, Null)
    --seed N         run seed (default 2021); per-point seeds derive from it
    --t-rate T       override every scenario's adversary spend rate
    --n0-scale X     scale initial populations (and everything derived)
    --quick          preset: --n0-scale 0.25 (the CI smoke scale)
    --jobs N         worker processes (default: all cores)
    --json PATH      also write the metrics report to PATH
    --progress       stream live per-point progress lines to stderr
                     (engine snapshots; see EXPERIMENTS.md,
                     "Observability")
    --profile        attribute wall time per engine span: each row
                     carries a per-point breakdown and the report gains
                     a sweep-level span rollup (see EXPERIMENTS.md,
                     "Cost attribution"); metrics stay byte-identical
    --snapshot-interval S
                     simulated seconds between progress snapshots
                     (default 1.0; requires --progress)

Resilience options (see EXPERIMENTS.md, "Resilient execution"):
    --resume             skip points journaled by a previous (killed or
                         failed) run of the same sweep
    --no-checkpoint      disable the per-run checkpoint journal
    --max-retries N      attempts beyond the first per point (default 2)
    --point-timeout S    per-point wall clock limit (parallel runs only)
    --fault-spec SPEC    deterministic fault injection, e.g.
                         "crash@0;hang@3:20;raise@0x5f;slow@*:0.1x2"

The metrics report (per scenario x defense row: spend rates, peak bad
fraction, peak join rate, fast-path fraction, ...) always lands in
``results/scenarios.json`` (written atomically); stdout gets a compact
table.  Points that fail permanently are listed in the report's
``failures`` array and the exit status is 1.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.plotting import format_table
from repro.cliutil import (
    pop_multi as _pop_multi,
    pop_number as _pop_number,
    pop_option as _pop_option,
)
from repro.experiments import runtime
from repro.experiments.parallel import parse_jobs
from repro.experiments.report import results_path
from repro.resilience import atomic_write_text
from repro.scenarios.catalog import CATALOG, get_scenario, scenario_names
from repro.scenarios.run import (
    SCENARIO_DEFENSES,
    report_json,
    resolve_t_rate,
    run_catalog,
)

#: ``--quick`` population scale (the smoke-test miniature).
QUICK_N0_SCALE = 0.25

#: Default simulated seconds between ``--progress`` snapshots.
DEFAULT_SNAPSHOT_INTERVAL = 1.0

#: Minimum wall seconds between ``--progress`` lines (terminal
#: snapshots always print, so every point reports at least once).
PROGRESS_MIN_WALL_S = 0.1


def progress_printer(
    labels: Sequence[Tuple[str, str]],
    stream=None,
    min_wall_s: float = PROGRESS_MIN_WALL_S,
    clock: Callable[[], float] = time.monotonic,  # lint: allow[R001] -- stderr progress throttle; injectable for tests
) -> Callable:
    """An ``on_snapshot(index, snapshot)`` hook that narrates a run.

    ``labels`` maps point index -> ``(scenario, defense)`` in the same
    scenario-major, defense-minor order :func:`~repro.scenarios.run.
    build_points` uses.  Lines are wall-clock throttled so a fast sweep
    does not flood the terminal; terminal (``last=True``) snapshots
    always print.
    """
    stream = stream if stream is not None else sys.stderr
    state = {"next": 0.0}

    def on_snapshot(index: int, snap) -> None:
        now = clock()
        if not snap.last and now < state["next"]:
            return
        state["next"] = now + min_wall_s
        scenario, defense = labels[index]
        tag = "done" if snap.last else f"t={snap.sim_time:.0f}"
        print(
            f"[{scenario}/{defense}] {tag} n={snap.system_size}"
            f" bad={snap.bad_fraction:.3f}"
            f" adv_rate={snap.adversary_spend_rate:.1f}"
            f" ev/s={snap.events_per_sec:.0f}",
            file=stream,
            flush=True,
        )

    return on_snapshot


def _list_catalog() -> str:
    rows = []
    for name in scenario_names():
        spec = CATALOG[name]
        rows.append(
            [
                name,
                spec.n0,
                f"{spec.horizon:.0f}s",
                spec.attack.profile,
                spec.description,
            ]
        )
    return format_table(
        ["scenario", "n0", "horizon", "attack", "description"], rows
    )


def _report_table(report: Dict) -> str:
    rows = []
    for row in report["rows"]:
        rows.append(
            [
                row["scenario"],
                row["defense"],
                row["t_rate"],
                row["good_spend_rate"],
                row["adversary_spend_rate"],
                row["max_bad_fraction"],
                row["peak_join_rate"],
                f"{row['fast_join_fraction']:.1%}",
            ]
        )
    return format_table(
        [
            "scenario",
            "defense",
            "T",
            "A",
            "adv_rate",
            "max_bad",
            "peak_joins/s",
            "fast_joins",
        ],
        rows,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, args = args[0], args[1:]
    if command == "list":
        print(_list_catalog())
        return 0
    if command != "run":
        print(f"unknown scenarios command {command!r}; use 'list' or 'run'")
        return 2
    jobs = parse_jobs(args)
    _pop_option(args, "--jobs")
    policy = runtime.cli_policy(args, name="scenarios")
    run_all = "--all" in args
    args = [a for a in args if a != "--all"]
    quick = "--quick" in args
    args = [a for a in args if a != "--quick"]
    progress = "--progress" in args
    args = [a for a in args if a != "--progress"]
    profile = "--profile" in args
    args = [a for a in args if a != "--profile"]
    snap_interval = _pop_number(args, "--snapshot-interval")
    defenses = _pop_multi(args, "--defense") or list(SCENARIO_DEFENSES)
    unknown_defenses = [d for d in defenses if d not in SCENARIO_DEFENSES]
    if unknown_defenses:
        raise SystemExit(
            f"unknown defense(s): {', '.join(unknown_defenses)}; "
            f"choose from: {', '.join(SCENARIO_DEFENSES)}"
        )
    seed = _pop_number(args, "--seed", int)
    t_rate = _pop_number(args, "--t-rate")
    n0_scale = _pop_number(args, "--n0-scale")
    json_path = _pop_option(args, "--json")
    names = [a for a in args if not a.startswith("--")]
    unknown_flags = [a for a in args if a.startswith("--")]
    if unknown_flags:
        raise SystemExit(f"unknown option(s): {', '.join(unknown_flags)}")
    if n0_scale is not None and n0_scale <= 0:
        raise SystemExit(f"--n0-scale must be > 0, got {n0_scale:g}")
    if snap_interval is not None:
        if not progress:
            raise SystemExit("--snapshot-interval requires --progress")
        if snap_interval <= 0:
            raise SystemExit("--snapshot-interval must be > 0")
    if run_all or not names:
        names = scenario_names()
    for name in names:
        try:
            get_scenario(name)  # fail fast, with the known-names message
        except KeyError as exc:
            raise SystemExit(exc.args[0])
    if n0_scale is None:
        n0_scale = QUICK_N0_SCALE if quick else 1.0
    snapshot_interval = None
    on_snapshot = None
    if progress:
        snapshot_interval = (
            DEFAULT_SNAPSHOT_INTERVAL if snap_interval is None
            else snap_interval
        )
        labels = [(s, d) for s in names for d in defenses]
        on_snapshot = progress_printer(labels)
    with runtime.exit_on_interrupt():
        report = run_catalog(
            scenarios=names,
            defenses=defenses,
            seed=2021 if seed is None else seed,
            t_rate=t_rate,
            n0_scale=n0_scale,
            jobs=jobs,
            policy=policy,
            snapshot_interval=snapshot_interval,
            on_snapshot=on_snapshot,
            profile=profile,
        )
    text = report_json(report)
    out_path = results_path("scenarios.json")
    atomic_write_text(out_path, text + "\n")
    if json_path:
        atomic_write_text(json_path, text + "\n")
    print(_report_table(report))
    warnings = sorted(
        {
            f"{row['scenario']}: {warning}"
            for row in report["rows"]
            for warning in row.get("compile_warnings", ())
        }
    )
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"\nmetrics JSON: {out_path}")
    failures = report.get("failures", [])
    if failures:
        print(f"\n{len(failures)} point(s) failed after retries:")
        print(runtime.render_failures([runtime.FailureRow(**f) for f in failures]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
