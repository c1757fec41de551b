"""Tests for the event queue and the simulation driver."""

from typing import Optional

import pytest

from repro.core.protocol import Defense
from repro.identity.membership import ArenaMembershipSet
from repro.sim.blocks import DEPART, JOIN, ChurnBlock
from repro.sim.engine import EventQueue, Simulation, SimulationConfig
from repro.sim.events import Callback, GoodDeparture, GoodJoin
from repro.churn.traces import InitialMember


class RecordingDefense(Defense):
    """A minimal defense that records what the engine feeds it."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.joins = []
        self.departures = []
        self.ticks = 0

    def process_good_join(self, ident: Optional[str] = None) -> Optional[int]:
        unique = self.ids.issue()
        self.population.good_join(unique)
        self.joins.append((self.now, unique))
        return unique

    def process_good_departure(self, ident: Optional[int] = None) -> Optional[int]:
        victim = self._select_departing_good(ident)
        if victim is None:
            return None
        self.population.good_depart(victim)
        self.departures.append((self.now, victim))
        return victim

    def quote_entrance_cost(self) -> float:
        return 1.0

    def process_bad_join_batch(self, budget: float):
        return 0, 0.0

    def on_tick(self, now: float) -> None:
        self.ticks += 1


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Callback(time=5.0))
        queue.push(Callback(time=1.0))
        queue.push(Callback(time=3.0))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_ties_broken_by_priority_then_fifo(self):
        queue = EventQueue()
        queue.push(GoodJoin(time=1.0, ident="second"), priority=5)
        queue.push(GoodJoin(time=1.0, ident="first"), priority=0)
        queue.push(GoodJoin(time=1.0, ident="third"), priority=5)
        order = [queue.pop().ident for _ in range(3)]
        assert order == ["first", "second", "third"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(Callback(time=2.0))
        assert queue.peek_time() == 2.0
        assert len(queue) == 1


class TestSimulation:
    def _build(self, events, horizon=10.0, initial=None, tick=0.0):
        defense = RecordingDefense()
        sim = Simulation(
            SimulationConfig(horizon=horizon, tick_interval=tick),
            defense,
            events,
            initial_members=initial,
        )
        return sim, defense

    def test_processes_joins_in_order(self):
        events = [GoodJoin(time=1.0), GoodJoin(time=2.0)]
        sim, defense = self._build(events)
        sim.run()
        assert [t for t, _ in defense.joins] == [1.0, 2.0]

    def test_session_schedules_departure(self):
        events = [GoodJoin(time=1.0, session=3.0)]
        sim, defense = self._build(events)
        sim.run()
        assert len(defense.departures) == 1
        assert defense.departures[0][0] == pytest.approx(4.0)
        # The departed ID is the one that joined.
        assert defense.departures[0][1] == defense.joins[0][1]

    def test_session_past_horizon_not_scheduled(self):
        events = [GoodJoin(time=1.0, session=100.0)]
        sim, defense = self._build(events, horizon=10.0)
        result = sim.run()
        assert defense.departures == []
        assert result.final_system_size == 1

    def test_events_after_horizon_ignored(self):
        events = [GoodJoin(time=1.0), GoodJoin(time=50.0)]
        sim, defense = self._build(events, horizon=10.0)
        sim.run()
        assert len(defense.joins) == 1

    def test_initial_members_bootstrap_and_depart(self):
        initial = [
            InitialMember(ident="a", residual=2.0),
            InitialMember(ident="b", residual=None),
        ]
        sim, defense = self._build([], initial=initial)
        result = sim.run()
        # Bootstrap issues idents in initial-member order: "a" is 1.
        assert [ident for _, ident in defense.departures] == [1]
        assert result.final_system_size == 1
        # Bootstrap charged 1 per initial member.
        assert result.good_spend == 2.0

    def test_ticks_fire(self):
        sim, defense = self._build([], horizon=5.0, tick=1.0)
        sim.run()
        assert defense.ticks == 5

    def test_callbacks_run_at_scheduled_time(self):
        fired = []
        sim, defense = self._build([], horizon=10.0)
        sim.queue.push(Callback(time=4.0, fn=lambda now: fired.append(now)))
        sim.run()
        assert fired == [4.0]

    def test_call_after_helper(self):
        fired = []
        sim, defense = self._build([], horizon=10.0)

        def chain(now):
            fired.append(now)
            if len(fired) < 3:
                sim.call_after(2.0, chain)

        sim.call_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_unsorted_churn_fails_loudly(self):
        # The hot loop keeps Clock.advance_to's invariant: an event
        # behind the clock is a corrupted trace, not a soft skip.
        events = [GoodJoin(time=5.0), GoodJoin(time=9.0), GoodJoin(time=1.0)]
        sim, defense = self._build(events)
        with pytest.raises(ValueError, match="backwards"):
            sim.run()

    def test_departure_of_unknown_id_is_noop(self):
        events = [GoodDeparture(time=1.0, ident="ghost")]
        sim, defense = self._build(events)
        sim.run()
        assert defense.departures == []

    def test_uar_departure_picks_present_member(self):
        initial = [InitialMember(ident=f"m{i}") for i in range(10)]
        events = [GoodDeparture(time=1.0, ident=None)]
        sim, defense = self._build(events, initial=initial)
        result = sim.run()
        assert len(defense.departures) == 1
        assert defense.departures[0][1] in range(1, 11)
        assert result.final_system_size == 9

    def test_block_departure_naming_an_initial_member_removes_it(self):
        initial = [InitialMember(ident="a"), InitialMember(ident="b")]
        block = ChurnBlock([1.0], [DEPART], idents=["b"])
        sim, defense = self._build([block], initial=initial)
        result = sim.run()
        assert defense.departures == [(1.0, 2)]
        assert result.final_system_size == 1

    def test_unaliased_named_departure_is_a_counted_noop(self):
        # "ghost" was never admitted, and "a"'s second departure finds
        # its alias already spent: both resolve to ident 0, which names
        # no member, yet each is still a departure event.
        initial = [InitialMember(ident="a"), InitialMember(ident="b")]
        block = ChurnBlock(
            [1.0, 2.0, 3.0], [DEPART] * 3, idents=["ghost", "a", "a"]
        )
        sim, defense = self._build([block], initial=initial)
        result = sim.run()
        assert defense.departures == [(2.0, 1)]
        assert result.final_system_size == 1
        assert result.counters["good_departure_events"] == 3

    def test_rejoined_name_departs_its_latest_member(self):
        block = ChurnBlock(
            [1.0, 2.0, 3.0, 4.0], [JOIN, DEPART, JOIN, DEPART],
            idents=["x", "x", "x", "x"],
        )
        sim, defense = self._build([block])
        result = sim.run()
        assert [ident for _, ident in defense.joins] == [1, 2]
        assert defense.departures == [(2.0, 1), (4.0, 2)]
        assert result.final_system_size == 0

    def test_result_rates(self):
        events = [GoodJoin(time=1.0)]
        sim, defense = self._build(events, horizon=10.0)
        result = sim.run()
        # 1 join at cost... RecordingDefense charges nothing, bootstrap none.
        assert result.good_spend == 0.0
        assert result.horizon == 10.0
        assert result.counters["good_join_events"] == 1


def test_arena_rejects_an_ident_that_is_not_new():
    # Every join is a new ID (Section 2.1.1): an ident at or below
    # last_serial -- a standing member's or a departed one's -- is refused.
    arena = ArenaMembershipSet()
    arena.add_batch(range(1, 4))
    arena.discard(2)
    for stale in (2, 3, 0):
        with pytest.raises(ValueError, match="duplicate"):
            arena.add(stale)
    assert arena.good_ids() == [1, 3]
    assert arena.last_serial == 3
    arena.add(4)
    assert 4 in arena


class TestLazyTicks:
    """One recurring tick is re-armed instead of pre-scheduling them all."""

    def _run(self, horizon=1000.0, tick=1.0, events=()):
        defense = RecordingDefense()
        sim = Simulation(
            SimulationConfig(horizon=horizon, tick_interval=tick),
            defense,
            list(events),
        )
        return sim.run(), defense

    def test_all_ticks_still_fire(self):
        result, defense = self._run(horizon=1000.0, tick=1.0)
        assert defense.ticks == 1000

    def test_heap_stays_shallow(self):
        # Pre-scheduling would hold ~1000 ticks resident; lazy re-arming
        # keeps the high-water mark near the number of live events.
        result, _ = self._run(horizon=1000.0, tick=1.0)
        assert result.counters["queue_max_size"] < 20

    def test_queue_traffic_counters_exposed(self):
        result, _ = self._run(horizon=100.0, tick=1.0)
        assert result.counters["queue_pops"] == 100  # the ticks
        assert result.counters["queue_pushes"] == 100
        assert result.counters["queue_max_size"] >= 1

    def test_tick_grid_matches_eager_schedule(self):
        # Re-armed ticks land on the same accumulated grid the old
        # pre-scheduler produced (interval, 2*interval, ...).
        fired = []

        class GridDefense(RecordingDefense):
            def on_tick(self, now):
                fired.append(now)

        defense = GridDefense()
        sim = Simulation(
            SimulationConfig(horizon=5.0, tick_interval=1.5),
            defense,
            [],
        )
        sim.run()
        expected = []
        when = 1.5
        while when <= 5.0:
            expected.append(when)
            when += 1.5
        assert fired == expected


class CountingAdversary:
    """Records act() calls and sleeps a fixed delay between wake-ups."""

    name = "counting"

    def __init__(self, delay):
        self.delay = delay
        self.calls = []

    def bind(self, sim, defense):
        defense.register_adversary(self)

    def act(self, now):
        self.calls.append(now)

    def next_wake(self, now):
        return now + self.delay

    def respond_to_purge(self, bad_count, max_keep, now):
        return 0

    def fund_maintenance(self, bad_count, cost_per_id, now):
        return 0


class TestAdversaryWakeups:
    def _run(self, adversary, horizon=10.0, tick=1.0):
        defense = RecordingDefense()
        sim = Simulation(
            SimulationConfig(horizon=horizon, tick_interval=tick),
            defense,
            [],
            adversary=adversary,
        )
        return sim.run()

    def test_sleeping_adversary_skips_events(self):
        adversary = CountingAdversary(delay=3.0)
        self._run(adversary, horizon=10.0, tick=1.0)
        # Ticks at 1..10 plus the horizon call; wakes every >=3s, not 11x.
        assert adversary.calls == [1.0, 4.0, 7.0, 10.0]

    def test_always_awake_adversary_sees_every_event(self):
        adversary = CountingAdversary(delay=0.0)
        self._run(adversary, horizon=5.0, tick=1.0)
        assert adversary.calls == [1.0, 2.0, 3.0, 4.0, 5.0, 5.0]

    def test_never_waking_adversary_called_once(self):
        adversary = CountingAdversary(delay=float("inf"))
        self._run(adversary, horizon=5.0, tick=1.0)
        assert adversary.calls == [1.0]
