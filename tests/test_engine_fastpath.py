"""The engine's batch fast path against the naive per-event oracle.

The engine applies runs of churn rows through the defense batch hooks
and drains runs of session departures in one call; it must stay
*observably identical* to :class:`tests.reference_sim.ReferenceSimulation`,
which pops one heap entry per event and calls only the per-event hooks:
same spends, same peak bad fraction, same final population, same
protocol counters -- for every defense, including the ones that
override the batch hooks with amortized bookkeeping.  Only the
path-diagnostic counters (queue traffic, ``churn_events_*``) may differ,
because they describe how events were processed.
"""

from typing import Optional

import numpy as np
import pytest

from repro.baselines.ccom import CCom
from repro.baselines.remp import Remp
from repro.baselines.sybilcontrol import SybilControl
from repro.churn.datasets import NETWORKS
from repro.churn.generators import smooth_trace
from repro.core.ergo import Ergo
from repro.core.protocol import Defense
from repro.experiments.runner import adversary_for
from repro.scenarios import run as scenario_run
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.spec import (
    ATTACK_PROFILES,
    AttackSchedule,
    DiurnalCycle,
    FlashCrowd,
    MassExodus,
    PartitionRejoin,
    ScenarioSpec,
    SessionSpec,
    Silence,
    SteadyState,
    SybilExodus,
    TraceReplay,
)
from repro.sim.blocks import ChurnBlock, blocks_from_events
from repro.sim.engine import PATH_COUNTERS, Simulation, SimulationConfig
from repro.sim.events import Callback, GoodDeparture, GoodJoin
from repro.sim.null_defense import NullDefense
from repro.sim.rng import RngRegistry
from tests.reference_sim import ReferenceSimulation, expand_churn

DEFENSES = {
    "ergo": Ergo,
    "ccom": CCom,
    "sybilcontrol": SybilControl,
    "remp": Remp,
    "null": NullDefense,
}


ENGINES = (Simulation, ReferenceSimulation)


def observable(result):
    """The path-independent projection of a SimulationResult."""
    counters = {
        k: v for k, v in result.counters.items() if k not in PATH_COUNTERS
    }
    return (
        result.good_spend,
        result.adversary_spend,
        result.max_bad_fraction,
        result.final_system_size,
        counters,
    )


def run_spec_result(spec, point, engine=Simulation):
    """``run_spec_point`` on ``engine``; returns its SimulationResult."""
    results = []

    class Capture(engine):
        def run(self):
            results.append(super().run())
            return results[-1]

    saved = scenario_run.Simulation
    scenario_run.Simulation = Capture
    try:
        scenario_run.run_spec_point(spec, point)
    finally:
        scenario_run.Simulation = saved
    return results[0]


def run_network_sim(defense_name, engine=Simulation, t_rate=50.0,
                    horizon=150.0, n0=300, seed=11):
    """One gnutella-churn run with a defense-appropriate adversary."""
    registry = RngRegistry(seed=seed)
    scenario = NETWORKS["gnutella"].scenario(
        horizon=horizon, rng=registry.stream("churn"), n0=n0
    )
    defense = DEFENSES[defense_name]()
    adversary = adversary_for(defense, t_rate)
    sim = engine(
        SimulationConfig(horizon=horizon, seed=seed),
        defense,
        scenario.events,
        adversary=adversary,
        rngs=registry,
        initial_members=scenario.initial,
    )
    return sim.run()


class TestNetworkEquivalence:
    """Engine vs oracle on gnutella churn, across all five defenses."""

    @pytest.mark.parametrize("name", list(DEFENSES))
    def test_paths_are_observably_identical(self, name):
        fast = run_network_sim(name)
        heap = run_network_sim(name, engine=ReferenceSimulation)
        assert observable(fast) == observable(heap)

    def test_fast_path_engages_on_blocks(self):
        result = run_network_sim("null")
        assert result.counters["churn_events_fast"] > 0

    def test_event_totals_are_path_independent(self):
        fast = run_network_sim("ergo")
        heap = run_network_sim("ergo", engine=ReferenceSimulation)
        assert heap.counters["churn_events_fast"] == 0
        for key in ("good_join_events", "good_departure_events"):
            assert fast.counters[key] == heap.counters[key]
        total_fast = (
            fast.counters["churn_events_fast"] + fast.counters["churn_events_heap"]
        )
        total_heap = (
            heap.counters["churn_events_fast"] + heap.counters["churn_events_heap"]
        )
        assert total_fast == total_heap


class TestSmoothTraceEquivalence:
    """Mixed join/departure blocks with explicit idents (purge-heavy)."""

    @pytest.mark.parametrize("name", ["ergo", "ccom", "null"])
    def test_paths_match_on_smooth_blocks(self, name):
        rng = np.random.default_rng(3)
        events = smooth_trace(n0=60, epoch_rates=[2.0, 4.0, 1.0], rng=rng)
        blocks = list(blocks_from_events(events, block_size=32))
        results = []
        for engine in ENGINES:
            defense = DEFENSES[name]()
            sim = engine(SimulationConfig(horizon=200.0, seed=5), defense, blocks)
            results.append(sim.run())
        assert observable(results[0]) == observable(results[1])


class RecordingDefense(Defense):
    """Uses only the default (loop-based) batch hooks; records order."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.log = []

    def process_good_join(self, ident: Optional[str] = None) -> Optional[str]:
        unique = self.ids.issue(ident or "g")
        self.population.good_join(unique)
        self.log.append(("join", self.now, ident))
        return unique

    def process_good_departure(self, ident: Optional[str] = None) -> Optional[str]:
        victim = self._select_departing_good(ident)
        if victim is None:
            self.log.append(("noop-depart", self.now, ident))
            return None
        self.population.good_depart(victim)
        self.log.append(("depart", self.now, victim))
        return victim

    def quote_entrance_cost(self) -> float:
        return 1.0

    def process_bad_join_batch(self, budget: float):
        return 0, 0.0

    def on_tick(self, now: float) -> None:
        self.log.append(("tick", now, None))


def run_recording(blocks, engine=Simulation, horizon=20.0, tick=1.0,
                  callbacks=()):
    defense = RecordingDefense()
    sim = engine(
        SimulationConfig(horizon=horizon, tick_interval=tick, seed=1),
        defense,
        blocks,
    )
    for when, label in callbacks:
        sim.queue.push(Callback(time=when, fn=lambda now, l=label: defense.log.append(("cb", now, l))))
    sim.run()
    return defense.log


def recording_logs(blocks, **kwargs):
    """The RecordingDefense logs of (engine, oracle) on one source."""
    return [run_recording(blocks, engine, **kwargs) for engine in ENGINES]


class TestTotalOrderPreserved:
    """The batch boundaries reproduce the per-event total order exactly."""

    def test_joins_departures_ticks_interleave_identically(self):
        # Short sessions force scheduled departures *between* later join
        # rows -- the dep-interleave batch cut must reproduce the exact
        # ABC-model order the oracle produces.
        times = [0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 6.0]
        sessions = [0.6, 3.0, 0.5, float("nan"), 10.0, 0.45, 1.0]
        kinds = [0] * 7
        block = ChurnBlock(times, kinds, sessions=sessions)
        fast_log, heap_log = recording_logs([block])
        assert fast_log == heap_log

    def test_callbacks_win_seq_ties_against_block_rows(self):
        # A callback scheduled before the run at t=2.0 (priority 0) must
        # run before a block row at exactly t=2.0, while the tick at 2.0
        # (priority 10) runs after -- in both paths.
        block = ChurnBlock([1.5, 2.0, 2.0], [0, 0, 0])
        logs = recording_logs([block], callbacks=[(2.0, "x")])
        assert logs[0] == logs[1]
        events_at_2 = [entry for entry in logs[0] if entry[1] == 2.0]
        assert events_at_2[0][0] == "cb"
        assert events_at_2[-1][0] == "tick"

    def test_departure_rows_with_uar_victims_match(self):
        rng = np.random.default_rng(9)
        joins = [GoodJoin(time=0.1 * (i + 1), ident=f"j{i}") for i in range(30)]
        departures = [GoodDeparture(time=4.0 + 0.1 * i) for i in range(10)]
        blocks = list(blocks_from_events(joins + departures, block_size=8))
        fast_log, heap_log = recording_logs(blocks)
        assert fast_log == heap_log

    def test_same_instant_session_departure_ties(self):
        # A zero-length session lands a departure at *exactly* the next
        # row's time.  The per-event pump admits every churn row due at
        # an instant before the first event of that instant dispatches,
        # so both joins precede the departure -- the fast path must
        # reproduce that order, not let the heap entry win the tie.
        block = ChurnBlock(
            [5.0, 5.0], [0, 0], sessions=[0.0, float("nan")]
        )
        fast_log, heap_log = recording_logs([block], tick=0.0)
        assert fast_log == heap_log
        assert [e[0] for e in fast_log] == ["join", "join", "depart"]

    def test_same_instant_ties_across_kind_change(self):
        # join@5 (session 0 -> departure@5) followed by an explicit
        # departure row@5: the kind change cuts the batch, and the
        # leftover row must still beat the same-instant scheduled
        # departure (it was admitted first).
        block = ChurnBlock(
            [5.0, 5.0], [0, 1],
            sessions=[0.0, float("nan")],
            idents=[None, "missing"],
        )
        fast_log, heap_log = recording_logs([block], tick=0.0)
        assert fast_log == heap_log

    def test_departure_landing_on_later_row_time(self):
        # The session is chosen so join@1's departure lands exactly on
        # the fourth row's time.  The pump admits that row only after
        # the departure is already resident (the pull bound shrinks to
        # each pushed row's own time), so the departure wins the tie.
        block = ChurnBlock(
            [1.0, 2.0, 3.0, 4.0],
            [0, 0, 0, 0],
            sessions=[3.0] + [float("nan")] * 3,
        )
        fast_log, heap_log = recording_logs([block], tick=0.0)
        assert fast_log == heap_log
        churn = [(e[0], e[1]) for e in fast_log if e[0] != "tick"]
        assert churn[-2:] == [("depart", 4.0), ("join", 4.0)]

    def test_departure_tie_with_resident_tick(self):
        # Same collision shape but with the recurring tick resident in
        # the heap, so batches form mid-trace: the departure scheduled
        # by the earlier-instant join must still precede the same-time
        # later row.
        block = ChurnBlock(
            [0.1, 0.2, 0.5, 0.8],
            [0, 0, 0, 0],
            sessions=[float("nan"), 0.6, float("nan"), float("nan")],
        )
        fast_log, heap_log = recording_logs([block], tick=1.0, horizon=3.0)
        assert fast_log == heap_log
        churn = [(e[0], e[1]) for e in fast_log if e[0] != "tick"]
        assert churn[-2:] == [("depart", 0.8), ("join", 0.8)]

    def test_departure_run_spanning_instants_yields_to_scheduled_dep(self):
        # join@4 (session 1) schedules a departure for t=5; the explicit
        # departure run starting at t=4 must NOT extend through the t=5
        # rows -- the scheduled departure was pushed during instant 4,
        # before the t=5 rows were pump-admitted, so it goes first.
        block = ChurnBlock(
            [4.0, 4.0, 5.0, 5.0],
            [0, 1, 1, 1],
            sessions=[1.0] + [float("nan")] * 3,
            idents=[None, "a", "b", "c"],
        )
        fast_log, heap_log = recording_logs([block], tick=0.0)
        assert fast_log == heap_log

    def test_mixed_event_and_block_streams(self):
        # The engine packs stray per-event items into one-row blocks;
        # both orderings must match the oracle.
        mixed_event_first = [
            GoodJoin(time=1.0, ident="e0"),
            ChurnBlock([2.0, 3.0], [0, 0], idents=["b0", "b1"]),
            GoodJoin(time=4.0, ident="e1"),
        ]
        mixed_block_first = [
            ChurnBlock([1.0], [0], idents=["b0"]),
            GoodJoin(time=2.0, ident="e0"),
            ChurnBlock([3.0], [0], idents=["b1"]),
        ]
        for source, expected_joins in (
            (mixed_event_first, 4),
            (mixed_block_first, 3),
        ):
            logs = recording_logs(list(source), tick=0.0)
            assert logs[0] == logs[1]
            assert len([e for e in logs[0] if e[0] == "join"]) == expected_joins

    def test_lazy_unbounded_event_generator(self):
        # A per-event generator that never ends: the engine packs each
        # event into a one-row block only when it reaches it, so the run
        # stops at the horizon instead of draining the source.
        def forever():
            t = 0.0
            while True:
                t += 0.7
                yield GoodJoin(time=t, session=1.5)
                yield GoodDeparture(time=t + 0.1)

        logs = [run_recording(forever(), engine) for engine in ENGINES]
        assert logs[0] == logs[1]
        assert logs[0][-1][1] <= 20.0

    def test_good_join_pushed_into_queue_is_rejected(self):
        # Good churn enters through the block loader only; a GoodJoin
        # pushed straight into the heap has no handler.
        sim = Simulation(
            SimulationConfig(horizon=5.0, tick_interval=0.0, seed=1),
            RecordingDefense(),
            [],
        )
        sim.queue.push(GoodJoin(time=1.0))
        with pytest.raises(TypeError, match="unhandled event type: GoodJoin"):
            sim.run()

    def test_cross_block_disorder_fails_loudly(self):
        block_a = ChurnBlock([5.0, 6.0], [0, 0])
        block_b = ChurnBlock([1.0], [0])
        defense = RecordingDefense()
        sim = Simulation(
            SimulationConfig(horizon=10.0, tick_interval=0.0, seed=1),
            defense,
            [block_a, block_b],
        )
        with pytest.raises(ValueError, match="backwards"):
            sim.run()


class TestRandomizedOrderEquivalence:
    """Property-style fuzz: collision-heavy traces, engine vs oracle logs.

    Times are drawn on a coarse grid so exact ties (rows vs scheduled
    session departures, rows vs ticks) occur constantly -- the regime
    where the batch-boundary and tie rules earn their keep.
    """

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_fast_and_heap_logs_match(self, seed, decimals):
        r = np.random.default_rng(seed + 1000 * decimals)
        n = int(r.integers(3, 25))
        times = np.sort(np.round(r.uniform(0, 8, n), decimals))
        kinds = r.integers(0, 2, n).astype(np.uint8)
        sessions = np.where(
            r.random(n) < 0.6, np.round(r.uniform(0, 3, n), decimals), np.nan
        )
        sessions = np.where(kinds == 0, sessions, np.nan)
        idents = [f"x{i}" if r.random() < 0.3 else None for i in range(n)]
        block = ChurnBlock(times, kinds, sessions=sessions, idents=idents)
        blocks = list(
            blocks_from_events(
                list(expand_churn([block])), block_size=int(r.integers(2, 10))
            )
        )
        tick = float(r.choice([0.0, 0.5, 1.0]))
        sample = float(r.choice([1.0, 3.0, 50.0]))
        logs = []
        for engine in ENGINES:
            defense = RecordingDefense()
            sim = engine(
                SimulationConfig(
                    horizon=10.0, tick_interval=tick, seed=1,
                    sample_interval=sample,
                ),
                defense,
                blocks,
            )
            sim.run()
            logs.append(defense.log)
        assert logs[0] == logs[1]


class TestSamplingGrid:
    def test_sampling_grid_is_path_independent(self):
        rng = np.random.default_rng(2)
        events = smooth_trace(n0=40, epoch_rates=[2.0], rng=rng)
        blocks = list(blocks_from_events(events, block_size=16))
        series = []
        for engine in ENGINES:
            sim = engine(
                SimulationConfig(horizon=50.0, sample_interval=3.0, seed=1),
                NullDefense(),
                blocks,
            )
            result = sim.run()
            series.append(
                (
                    result.metrics.system_size.times.tolist(),
                    result.metrics.system_size.values.tolist(),
                )
            )
        assert series[0] == series[1]


class TestCatalogEquivalence:
    def test_every_catalog_point_matches_oracle(self):
        points = scenario_run.build_points(
            scenario_names(), scenario_run.SCENARIO_DEFENSES, seed=2021,
            n0_scale=0.05,
        )
        assert len(points) == 45
        mismatched = []
        for point in points:
            spec = get_scenario(point.scenario)
            fast = run_spec_result(spec, point)
            heap = run_spec_result(spec, point, ReferenceSimulation)
            if observable(fast) != observable(heap):
                mismatched.append((point.scenario, point.defense))
        assert mismatched == []


#: One random instance of each of the eight phase types.
PHASES = (
    lambda r: SteadyState(duration=r.uniform(20, 120),
                          rate_scale=r.uniform(0.2, 2.0)),
    lambda r: FlashCrowd(duration=r.uniform(5, 40),
                         multiplier=r.uniform(0.5, 3.0)),
    lambda r: DiurnalCycle(duration=r.uniform(50, 200),
                           amplitude=r.uniform(0.0, 0.9),
                           period=r.uniform(30, 120)),
    lambda r: MassExodus(duration=r.uniform(1, 20),
                         fraction=r.uniform(0.1, 0.8)),
    lambda r: PartitionRejoin(away=r.uniform(5, 40),
                              fraction=r.uniform(0.1, 0.6),
                              exodus_window=r.uniform(1, 10),
                              rejoin_window=r.uniform(1, 10)),
    lambda r: Silence(duration=r.uniform(5, 50)),
    lambda r: TraceReplay(path="tor_relay_flap.csv",
                          duration=r.uniform(50, 300)),
    lambda r: SybilExodus(duration=r.uniform(0, 20),
                          batches=int(r.integers(1, 4))),
)


def random_spec_point(seed):
    """A seeded random scenario and one (defense, T) coordinate on it."""
    r = np.random.default_rng(seed)
    picks = r.integers(0, len(PHASES), int(r.integers(2, 5)))
    spec = ScenarioSpec(
        name=f"fuzz-{seed}",
        description="differential fuzz",
        phases=tuple(PHASES[i](r) for i in picks),
        n0=int(r.integers(10, 81)),
        sessions=SessionSpec(kind="exponential",
                             mean=float(r.choice([20.0, 200.0, 2000.0]))),
        attack=AttackSchedule(
            profile=str(r.choice(ATTACK_PROFILES)),
            burst_period=r.uniform(10, 60),
            on=r.uniform(10, 60),
            off=r.uniform(10, 60),
        ),
    )
    defenses = scenario_run.SCENARIO_DEFENSES
    point = scenario_run.ScenarioPointSpec(
        scenario=spec.name,
        defense=defenses[seed % len(defenses)],
        seed=seed,
        t_rate=float(r.choice([16.0, 64.0, 256.0])),
    )
    return spec, point


class TestSpecFuzz:
    """Random specs reach wake-ups, scheduled Sybil exoduses and residual
    departures in combinations no fixed test does."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_spec_matches_oracle(self, seed):
        spec, point = random_spec_point(seed)
        fast = run_spec_result(spec, point)
        heap = run_spec_result(spec, point, ReferenceSimulation)
        assert observable(fast) == observable(heap)
