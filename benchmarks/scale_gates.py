"""Scale gates: wall, fast-path and memory budgets at 10^5-10^6 IDs.

ERGO separates from the baselines only asymptotically, so the engine
must keep flash crowds of 10^5-10^6 good IDs and a streamed
10^6-event relay-flap replay reachable.  Each check here is a hard
gate with a fixed threshold; throughput numbers and their trend are
the repository benchmark's job (``python3 perfbench/run.py``).

Run::

    make scale-gates
    # or: PYTHONPATH=src python -m pytest -q benchmarks/scale_gates.py

The file name does not match ``test_*.py``, so the tier-1 suite never
collects it: the gates take minutes, and their wall budgets are only
meaningful on a box that runs nothing else.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.adversary.strategies import GreedyJoinAdversary
from repro.baselines.sybilcontrol import SybilControl
from repro.churn.generators import poisson_join_blocks
from repro.churn.sessions import ExponentialSessions
from repro.core.ergo import Ergo
from repro.experiments import figure8
from repro.experiments.config import Figure8Config
from repro.experiments.runtime import ExecutionPolicy
from repro.scenarios.run import ScenarioPointSpec, run_spec_point
from repro.scenarios.spec import AttackSchedule, ScenarioSpec, SessionSpec, TraceReplay
from repro.sim.blocks import ChurnBlock
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.metrics import SnapshotPolicy
from repro.sim.null_defense import NullDefense
from repro.sim.rng import RngRegistry
from repro.traces.source import fetch_trace, get_trace_source

#: Minimum share of good joins that must ride the zero-heap fast path,
#: which is what makes these scales reachable at all.
MIN_FAST_FRACTION = 0.95

#: Engine floor, recurring-cost baseline, and the paper's defense.
DEFENSES = {"null": NullDefense, "sybilcontrol": SybilControl, "ergo": Ergo}

#: Flash-crowd tiers: Poisson joins over ``burst_s`` with exponential
#: sessions.  The 10^6 tier's long sessions keep ~10^6 IDs standing at
#: the end of the burst.  Budgets are per defense run, sized for CI
#: boxes; a quiet box runs each in a few seconds.
FLASH_TIERS = {
    "1e5": dict(joins=100_000, burst_s=200.0, mean_session_s=600.0,
                horizon_s=1_000.0, budget_s=60.0),
    "1e6": dict(joins=1_000_000, burst_s=200.0, mean_session_s=3_000.0,
                horizon_s=400.0, budget_s=120.0),
}

#: The registry trace for the replay gates: ~10^6 events, 5000 relays.
TRACE_NAME = "synthetic-flap-xl"
MIN_TRACE_EVENTS = 1_000_000
TRACE_BUDGET_S = 180.0

#: Peak tracemalloc budget for one streamed replay.  Materializing the
#: trace costs >300 MB in event objects alone; streaming peaks at
#: single-digit MB, so this fails loudly on any reintroduced
#: materialization while leaving >10x headroom for allocator noise.
TRACE_MEM_BUDGET_MB = 64.0

#: Overhead budgets, as shares of the wall of the run they ride in.
CHECKPOINT_BUDGET_PCT = 5.0
SNAPSHOT_BUDGET_PCT = 3.0


@pytest.mark.parametrize("defense", list(DEFENSES))
@pytest.mark.parametrize("tier", list(FLASH_TIERS))
def test_flash_crowd(tier, defense):
    t = FLASH_TIERS[tier]
    blocks = poisson_join_blocks(
        rate=t["joins"] / t["burst_s"],
        session_dist=ExponentialSessions(t["mean_session_s"]),
        rng=RngRegistry(seed=7).stream("scale.flash"),
        horizon=t["burst_s"],
    )
    sim = Simulation(
        SimulationConfig(horizon=t["horizon_s"], tick_interval=1.0, seed=7),
        DEFENSES[defense](),
        blocks,
    )
    start = time.perf_counter()
    counters = sim.run().counters
    wall_s = time.perf_counter() - start
    assert wall_s <= t["budget_s"]
    assert (counters["good_joins_fast"]
            >= MIN_FAST_FRACTION * counters["good_join_events"])


@pytest.fixture(scope="module")
def flap_trace(tmp_path_factory):
    """Generate the trace into a throwaway cache; yield its duration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_TRACE_DIR", str(tmp_path_factory.mktemp("traces")))
        fetch_trace(TRACE_NAME)
        yield get_trace_source(TRACE_NAME).synthetic.duration


def replay(duration: float, defense: str) -> dict:
    """One streamed replay through the scenario runner, no adversary."""
    spec = ScenarioSpec(
        name="scale-gate-replay",
        description="10^6-event synthetic consensus flap, streamed",
        phases=(TraceReplay(path=TRACE_NAME, duration=duration),),
        n0=2000,
        sessions=SessionSpec(kind="exponential", mean=3_000.0),
        attack=AttackSchedule(profile="off"),
    )
    point = ScenarioPointSpec(
        scenario=spec.name, defense=defense, seed=7, t_rate=0.0
    )
    return run_spec_point(spec, point)


@pytest.mark.parametrize("defense", ["Null", "SybilControl", "ERGO"])
def test_trace_replay(flap_trace, defense):
    start = time.perf_counter()
    row = replay(flap_trace, defense)
    wall_s = time.perf_counter() - start
    assert wall_s <= TRACE_BUDGET_S
    assert row["fast_join_fraction"] >= MIN_FAST_FRACTION
    assert row["good_joins"] + row["good_departures"] >= MIN_TRACE_EVENTS


def test_trace_replay_memory(flap_trace):
    tracemalloc.start()
    try:
        replay(flap_trace, "Null")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= TRACE_MEM_BUDGET_MB


def test_checkpoint_overhead(tmp_path):
    """Journal flush time over the checkpointed quick Figure 8 sweep.

    An internal ratio rather than an on/off wall A/B: on a shared box
    whole-sweep walls swing by more than the budget between trials.
    """
    policy = ExecutionPolicy(checkpoint=str(tmp_path / "sweep.ckpt"))
    start = time.perf_counter()
    report = figure8.run_report(Figure8Config.quick(), jobs=1, policy=policy)
    wall_s = time.perf_counter() - start
    assert 100.0 * report.checkpoint_flush_s / wall_s <= CHECKPOINT_BUDGET_PCT


def test_snapshot_overhead():
    """Snapshot emission cost at a 1 sim-second cadence.

    Also an internal ratio: per-emission cost, timed in short blocks of
    direct ``_emit_snapshot`` calls against the finished run's state
    (emission only reads state), times the emission count, over the
    best snapshotted wall of a dense engine-loop workload (~500 joins
    per simulated second).  The rest of the hook is two float compares
    per loop iteration, below measurement noise by construction.
    """
    n_joins, horizon = 100_000, 200.0
    step = horizon / n_joins
    block = ChurnBlock(
        (np.arange(n_joins) + 1) * step,
        np.zeros(n_joins, dtype=np.uint8),
        sessions=np.full(n_joins, 50.0 * step),
    )
    best_wall = float("inf")
    for _ in range(5):
        snaps = []
        sim = Simulation(
            SimulationConfig(
                horizon=horizon, tick_interval=1.0, seed=1,
                snapshots=SnapshotPolicy(sim_interval=1.0),
            ),
            NullDefense(),
            [block],
            adversary=GreedyJoinAdversary(rate=0.5),
            on_snapshot=snaps.append,
        )
        start = time.perf_counter()
        sim.run()
        best_wall = min(best_wall, time.perf_counter() - start)
    sim.on_snapshot = lambda snap: None
    per_emit = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        for _ in range(100):
            sim._emit_snapshot(horizon, 0, 0, 0)
        per_emit = min(per_emit, (time.perf_counter() - start) / 100)
    assert 100.0 * len(snaps) * per_emit / best_wall <= SNAPSHOT_BUDGET_PCT
