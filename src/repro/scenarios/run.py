"""Run catalog scenarios against the defense suite.

One scenario x defense x seed triple is a :class:`ScenarioPointSpec` --
a frozen, picklable coordinate, like the figure sweeps' ``PointSpec`` --
and :func:`run_scenario_point` is the module-level worker entry, so the
catalog fans out over :func:`repro.experiments.parallel.map_report`
with the same determinism story: per-point seeds derived by SHA-256 from
the run seed and the point coordinates, results collected in submission
order.  Same seed, same machine => byte-identical metrics JSON.

Each run reports a flat metrics row: spend totals and rates, the peak
bad fraction, workload shape (peak join rate, joins/departures) and
path accounting (fraction of good joins applied through the engine's
zero-heap fast path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.adversary.schedule import ScheduledAdversary, periodic_windows
from repro.adversary.strategies import BurstyJoinAdversary, GreedyJoinAdversary
from repro.baselines.ccom import CCom
from repro.baselines.remp import Remp
from repro.baselines.sybilcontrol import SybilControl
from repro.core.ergo import Ergo, ErgoConfig
from repro.core.protocol import Defense
from repro.experiments.config import KAPPA
from repro.experiments.parallel import derive_seed, map_report
from repro.experiments.runner import adversary_for
from repro.profiling import ProfileReport, SpanProfiler
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import AttackSchedule, ScenarioSpec
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.metrics import SnapshotPolicy
from repro.sim.null_defense import NullDefense
from repro.sim.rng import RngRegistry

#: The defense suite every scenario runs against, in report order.
SCENARIO_DEFENSES = ("ERGO", "CCOM", "SybilControl", "REMP", "Null")

#: REMP's provisioning assumption (matches the Figure 8 setup).
REMP_T_MAX = 1.0e7


def build_defense(name: str) -> Defense:
    """Construct one of the five suite defenses by report name."""
    if name == "ERGO":
        return Ergo(ErgoConfig(kappa=KAPPA))
    if name == "CCOM":
        return CCom(ErgoConfig(kappa=KAPPA))
    if name == "SybilControl":
        return SybilControl()
    if name == "REMP":
        return Remp(t_max=REMP_T_MAX, kappa=KAPPA)
    if name == "Null":
        return NullDefense()
    known = ", ".join(SCENARIO_DEFENSES)
    raise KeyError(f"unknown defense {name!r}; choose from: {known}")


def build_adversary(
    schedule: AttackSchedule,
    t_rate: float,
    defense: Defense,
    horizon: float,
) -> Optional[Adversary]:
    """Materialize an attack schedule for one run."""
    if schedule.profile == "off" or t_rate <= 0:
        return None
    start = schedule.start
    end = schedule.end if schedule.end is not None else horizon
    if schedule.profile == "flapping":
        return ScheduledAdversary(
            GreedyJoinAdversary(rate=t_rate),
            periodic_windows(schedule.on, schedule.off, start, end),
            withdraw_on_close=True,
        )
    if schedule.profile == "burst":
        inner: Adversary = BurstyJoinAdversary(
            rate=t_rate, burst_period=schedule.burst_period
        )
    else:  # sustained: the defense-appropriate strongest attack
        inner = adversary_for(defense, t_rate)
        if inner is None:
            return None
    if start > 0 or end < horizon:
        return ScheduledAdversary(inner, [(start, end)])
    return inner


@dataclass(frozen=True)
class ScenarioPointSpec:
    """One picklable (scenario, defense) run coordinate."""

    scenario: str
    defense: str
    seed: int
    t_rate: float
    n0_scale: float = 1.0


def resolve_t_rate(spec: ScenarioSpec, override: Optional[float]) -> float:
    """CLI override > schedule's pinned rate > the spec default."""
    if override is not None:
        return float(override)
    if spec.attack.t_rate is not None:
        return float(spec.attack.t_rate)
    return float(spec.default_t_rate)


def run_spec_point(
    spec: ScenarioSpec,
    point: ScenarioPointSpec,
    snapshot_policy: Optional[SnapshotPolicy] = None,
    on_snapshot: Optional[Callable] = None,
    profile: bool = False,
) -> Dict:
    """Simulate one (spec, defense) coordinate; returns a flat row.

    This is the registry-free core of :func:`run_scenario_point`:
    benchmarks and equivalence tests hand it unregistered specs.  The
    compiled churn is consumed through
    :meth:`~repro.scenarios.compile.CompiledScenario.iter_blocks`, so
    streaming ``TraceReplay`` phases flow to the engine lazily.

    ``snapshot_policy`` + ``on_snapshot`` turn on the engine's
    incremental telemetry; ``profile`` turns on span-level cost
    attribution, delivered as a ``"profile"`` key on the row.  The
    metrics keys of the returned row are byte-identical either way
    (the engine's determinism contract).
    """
    rngs = RngRegistry(seed=point.seed)
    compiled = compile_scenario(
        spec, rngs.stream(f"scenario.{spec.name}"), n0_scale=point.n0_scale
    )
    defense = build_defense(point.defense)
    adversary = build_adversary(
        spec.attack, point.t_rate, defense, compiled.horizon
    )
    sim = Simulation(
        SimulationConfig(
            horizon=compiled.horizon,
            seed=point.seed,
            snapshots=snapshot_policy,
        ),
        defense,
        compiled.iter_blocks(),
        adversary=adversary,
        rngs=rngs,
        initial_members=compiled.initial,
        on_snapshot=on_snapshot,
    )
    for event in compiled.scheduled:
        sim.queue.push(event)
    profiler = SpanProfiler() if profile else None
    if profiler is not None:
        profiler.instrument(sim)
    result = sim.run()
    counters = result.counters
    joins = counters.get("good_join_events", 0)
    fast_joins = counters.get("good_joins_fast", 0)
    shape = compiled.summary()
    row = {
        "scenario": point.scenario,
        "defense": point.defense,
        "seed": point.seed,
        "t_rate": point.t_rate,
        "n0_scale": point.n0_scale,
        "horizon": compiled.horizon,
        "initial_members": shape["initial_members"],
        "good_joins": joins,
        "good_departures": counters.get("good_departure_events", 0),
        "bad_departures": counters.get("bad_departure_events", 0),
        "sybil_withdrawals": counters.get("sybil_withdrawals", 0),
        "peak_join_rate": shape["peak_join_rate"],
        "good_spend": result.good_spend,
        "good_spend_rate": result.good_spend_rate,
        "adversary_spend": result.adversary_spend,
        "adversary_spend_rate": result.adversary_spend_rate,
        "max_bad_fraction": result.max_bad_fraction,
        "final_size": result.final_system_size,
        "fast_join_fraction": fast_joins / joins if joins else 0.0,
        "churn_events_fast": counters.get("churn_events_fast", 0),
        "churn_events_heap": counters.get("churn_events_heap", 0),
        "queue_max_size": counters.get("queue_max_size", 0),
        "compile_warnings": shape["warnings"],
    }
    if profiler is not None:
        # Rides the row itself so the per-point breakdown flows through
        # the same checkpoint/journal/persistence channels as the
        # metrics.  Determinism comparisons pop this key first.
        row["profile"] = profiler.report().as_dict()
    return row


def run_scenario_point(
    point: ScenarioPointSpec,
    snapshot_interval: Optional[float] = None,
    profile: bool = False,
    emit_snapshot: Optional[Callable] = None,
) -> Dict:
    """Simulate one catalog (scenario, defense) coordinate.

    Module-level (hence picklable) worker entry of :func:`run_catalog`.
    ``snapshot_interval`` turns on telemetry: the runtime then passes
    ``emit_snapshot`` wired to its live/collected delivery channel (see
    :func:`repro.experiments.runtime.run_tasks`).  ``profile=True``
    attaches the span breakdown.  The row's metrics keys are
    byte-identical either way.
    """
    policy = None
    if snapshot_interval is not None:
        policy = SnapshotPolicy(sim_interval=float(snapshot_interval))
    return run_spec_point(
        get_scenario(point.scenario),
        point,
        snapshot_policy=policy,
        on_snapshot=emit_snapshot,
        profile=profile,
    )


def build_points(
    scenarios: Sequence[str],
    defenses: Sequence[str],
    seed: int,
    t_rate: Optional[float] = None,
    n0_scale: float = 1.0,
) -> List[ScenarioPointSpec]:
    """The scenario-major, defense-minor grid of run coordinates."""
    points: List[ScenarioPointSpec] = []
    for scenario_name in scenarios:
        spec = get_scenario(scenario_name)
        rate = resolve_t_rate(spec, t_rate)
        for defense in defenses:
            points.append(
                ScenarioPointSpec(
                    scenario=scenario_name,
                    defense=defense,
                    seed=derive_seed(seed, scenario_name, defense, rate),
                    t_rate=rate,
                    n0_scale=n0_scale,
                )
            )
    return points


def run_catalog(
    scenarios: Optional[Sequence[str]] = None,
    defenses: Sequence[str] = SCENARIO_DEFENSES,
    seed: int = 2021,
    t_rate: Optional[float] = None,
    n0_scale: float = 1.0,
    jobs: int = 1,
    policy=None,
    on_row=None,
    snapshot_interval: Optional[float] = None,
    on_snapshot=None,
    profile: bool = False,
) -> Dict:
    """Run scenarios x defenses and collect the metrics report.

    ``policy`` (an :class:`~repro.experiments.runtime.ExecutionPolicy`)
    enables retries, per-point timeouts, checkpoint/resume and fault
    injection.  Points that fail permanently are dropped from ``rows``
    and surface as structured ``failures`` entries instead.

    This is the job-sized entry point the simulation service executes
    (:mod:`repro.serve`): ``on_row(index, row)`` fires on the
    coordinator as each point completes (or is restored by
    ``policy.resume``), so rows can be persisted incrementally instead
    of only in the returned report.

    ``snapshot_interval`` (simulated seconds, > 0) turns on intra-point
    telemetry: each point also streams incremental
    :class:`~repro.sim.metrics.MetricsSnapshot` rows to
    ``on_snapshot(index, snapshot)`` on the coordinator -- live under
    ``jobs=1``, batched per completed point under a process pool.  The
    metrics keys of the report are byte-identical either way.

    ``profile=True`` runs every point with span-level cost
    attribution: each row carries a ``"profile"`` breakdown and the
    report grows a ``"profile"`` rollup summing span totals across
    points.
    """
    names = list(scenarios) if scenarios is not None else scenario_names()
    points = build_points(names, defenses, seed, t_rate, n0_scale)
    report = map_report(
        run_scenario_point,
        [(p, snapshot_interval, profile) for p in points],
        jobs=jobs,
        star=True,
        policy=policy,
        on_row=on_row,
        on_snapshot=on_snapshot if snapshot_interval is not None else None,
    )
    out = {
        "seed": seed,
        "n0_scale": n0_scale,
        "scenarios": names,
        "defenses": list(defenses),
        "rows": report.completed,
        "failures": [f.as_dict() for f in report.failures],
        "resumed": report.resumed,
        "retries": report.retries,
        "pool_rebuilds": report.pool_rebuilds,
    }
    if profile:
        out["profile"] = aggregate_profiles(report.completed)
    return out


def aggregate_profiles(rows: Sequence[Dict]) -> Dict:
    """Sum per-row span breakdowns into one sweep-level rollup."""
    return ProfileReport.merged(
        row["profile"] for row in rows if isinstance(row.get("profile"), dict)
    ).as_dict()


def report_json(report: Dict) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(report, indent=2, sort_keys=True)
