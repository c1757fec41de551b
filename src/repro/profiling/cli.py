"""``python -m repro profile`` -- where the time goes, per span.

Usage::

    python -m repro profile <scenario> [options]

Runs one catalog scenario under one defense with span-level cost
attribution enabled (see :mod:`repro.profiling`) and prints a
self-time table: engine dispatch, heap operations, defense hooks,
pricing and membership mutation, each attributed to its call path.

Options:
    --defense NAME   defense to profile (case-insensitive; default ERGO)
    --seed N         run seed (default 2021; per-point derivation
                     matches ``scenarios run``)
    --t-rate T       override the scenario's adversary spend rate
                     (>= 0; 0 runs without an adversary)
    --n0-scale X     scale initial populations (default 1.0)
    --quick          preset: --n0-scale 0.25 (the CI smoke scale)
    --top N          print only the N hottest spans (default: all)
    --json PATH      write the full report (``ProfileReport.as_dict``)
    --speedscope PATH
                     write a flamegraph importable at
                     https://www.speedscope.app (validated after write)
    --check          additionally run the same point *unprofiled* and
                     fail (exit 1) unless the metrics rows are
                     byte-identical -- the profiler's zero-interference
                     contract, checked end to end

Profiling never changes metrics: the profiler shadows the simulation's
seams with timed wrappers before it runs, so the simulated system sees
the exact same calls in the exact same order.  ``--check`` proves it
on the spot.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from repro.cliutil import pop_number as _pop_number, pop_option as _pop_option
from repro.experiments.parallel import derive_seed
from repro.profiling.core import ProfileReport
from repro.profiling.speedscope import to_speedscope, validate_speedscope
from repro.resilience import atomic_write_text
from repro.scenarios.run import (
    SCENARIO_DEFENSES,
    ScenarioPointSpec,
    resolve_t_rate,
    run_spec_point,
)

#: ``--quick`` population scale (mirrors ``scenarios run --quick``).
QUICK_N0_SCALE = 0.25


def resolve_defense(name: str) -> str:
    """Map a case-insensitive defense name to its report spelling."""
    by_fold = {d.lower(): d for d in SCENARIO_DEFENSES}
    try:
        return by_fold[name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown defense {name!r}; "
            f"choose from: {', '.join(SCENARIO_DEFENSES)}"
        )


def profile_point(
    scenario: str,
    defense: str,
    seed: int = 2021,
    t_rate: Optional[float] = None,
    n0_scale: float = 1.0,
) -> dict:
    """Run one profiled (scenario, defense) point; returns the row.

    The row is the same flat metrics dict ``scenarios run`` reports,
    plus a ``"profile"`` breakdown.  Seeds derive exactly like the
    sweep's, so a profiled point reproduces the sweep's numbers.
    """
    from repro.scenarios.catalog import get_scenario

    spec = get_scenario(scenario)
    rate = resolve_t_rate(spec, t_rate)
    point = ScenarioPointSpec(
        scenario=scenario,
        defense=defense,
        seed=derive_seed(seed, scenario, defense, rate),
        t_rate=rate,
        n0_scale=n0_scale,
    )
    return run_spec_point(spec, point, profile=True)


def check_identical(row: dict) -> List[str]:
    """Re-run the point unprofiled; report metric divergences (none
    expected -- the zero-interference contract)."""
    from repro.scenarios.catalog import get_scenario

    spec = get_scenario(row["scenario"])
    point = ScenarioPointSpec(
        scenario=row["scenario"],
        defense=row["defense"],
        seed=row["seed"],
        t_rate=row["t_rate"],
        n0_scale=row["n0_scale"],
    )
    plain = run_spec_point(spec, point)
    profiled = {k: v for k, v in row.items() if k != "profile"}
    problems = []
    if json.dumps(profiled, sort_keys=True) != json.dumps(
        plain, sort_keys=True
    ):
        for key in sorted(set(profiled) | set(plain)):
            if profiled.get(key) != plain.get(key):
                problems.append(
                    f"metric {key!r} diverges under profiling: "
                    f"{profiled.get(key)!r} != {plain.get(key)!r}"
                )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    defense_opt = _pop_option(args, "--defense")
    seed = _pop_number(args, "--seed", int)
    t_rate = _pop_number(args, "--t-rate")
    n0_scale = _pop_number(args, "--n0-scale")
    top = _pop_number(args, "--top", int)
    json_path = _pop_option(args, "--json")
    speedscope_path = _pop_option(args, "--speedscope")
    quick = "--quick" in args
    args = [a for a in args if a != "--quick"]
    check = "--check" in args
    args = [a for a in args if a != "--check"]
    names = [a for a in args if not a.startswith("--")]
    unknown_flags = [a for a in args if a.startswith("--")]
    if unknown_flags:
        raise SystemExit(f"unknown option(s): {', '.join(unknown_flags)}")
    if top is not None and top < 1:
        raise SystemExit(f"--top must be >= 1, got {top}")
    if n0_scale is not None and n0_scale <= 0:
        raise SystemExit(f"--n0-scale must be > 0, got {n0_scale:g}")
    if t_rate is not None and not t_rate >= 0:
        raise SystemExit(f"--t-rate must be >= 0, got {t_rate:g}")
    if len(names) != 1:
        raise SystemExit(
            "profile takes exactly one scenario "
            "(see 'python -m repro scenarios list')"
        )
    from repro.scenarios.catalog import get_scenario

    try:
        get_scenario(names[0])  # fail fast, with the known-names message
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    defense = resolve_defense(defense_opt or "ERGO")
    if n0_scale is None:
        n0_scale = QUICK_N0_SCALE if quick else 1.0
    row = profile_point(
        names[0],
        defense,
        seed=2021 if seed is None else seed,
        t_rate=t_rate,
        n0_scale=n0_scale,
    )
    report = ProfileReport.from_dict(row["profile"])
    if not report.rows:
        print("error: profiled run produced no spans", file=sys.stderr)
        return 1
    print(f"{names[0]} / {defense}  seed={row['seed']}  "
          f"t_rate={row['t_rate']:g}  n0_scale={row['n0_scale']:g}")
    print()
    print(report.table(top=top))
    if json_path:
        atomic_write_text(
            json_path,
            json.dumps(row, indent=2, sort_keys=True) + "\n",
        )
        print(f"\nreport JSON: {json_path}")
    if speedscope_path:
        doc = to_speedscope(report, name=f"{names[0]}/{defense}")
        problems = validate_speedscope(doc)
        if problems:
            for problem in problems:
                print(f"speedscope export invalid: {problem}",
                      file=sys.stderr)
            return 1
        atomic_write_text(
            speedscope_path, json.dumps(doc, sort_keys=True) + "\n"
        )
        print(f"speedscope profile: {speedscope_path} "
              f"(open at https://www.speedscope.app)")
    if check:
        problems = check_identical(row)
        if problems:
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            return 1
        print("\ncheck: metrics byte-identical with profiling off")
    return 0


if __name__ == "__main__":
    sys.exit(main())
