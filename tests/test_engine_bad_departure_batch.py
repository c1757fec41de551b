"""Block-form bad-departure schedules (BadDepartureBatch)."""

import pytest

from repro.core.ergo import Ergo, ErgoConfig
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.events import BadDeparture, BadDepartureBatch
from repro.sim.null_defense import NullDefense


def _sim(defense, horizon=50.0):
    return Simulation(
        SimulationConfig(horizon=horizon, tick_interval=0.0, seed=1),
        defense,
        [],
    )


class TestBatchEvent:
    def test_batch_evicts_count(self):
        sim = _sim(NullDefense())
        sim.defense.process_bad_join_batch(50.0)
        assert sim.defense.bad_count() == 50
        sim.queue.push(BadDepartureBatch(time=5.0, count=30))
        result = sim.run()
        assert sim.defense.bad_count() == 20
        assert result.counters["bad_departure_events"] == 30

    def test_batch_capped_by_standing_population(self):
        sim = _sim(NullDefense())
        sim.defense.process_bad_join_batch(10.0)
        sim.queue.push(BadDepartureBatch(time=5.0, count=1_000_000))
        result = sim.run()
        assert sim.defense.bad_count() == 0
        # Only the IDs actually present count as departures.
        assert result.counters["bad_departure_events"] == 10

    def test_batch_matches_per_object_events(self):
        results = []
        for batched in (False, True):
            sim = _sim(NullDefense())
            sim.defense.process_bad_join_batch(40.0)
            if batched:
                sim.queue.push(BadDepartureBatch(time=5.0, count=25))
            else:
                for _ in range(25):
                    sim.queue.push(BadDeparture(time=5.0, ident=""))
            result = sim.run()
            results.append((sim.defense.bad_count(),
                            result.counters["bad_departure_events"],
                            result.counters["queue_pushes"]))
        (per_count, per_events, per_pushes) = results[0]
        (batch_count, batch_events, batch_pushes) = results[1]
        assert batch_count == per_count == 15
        assert batch_events == per_events == 25
        # The whole point: one heap entry instead of 25.
        assert batch_pushes == per_pushes - 24

    def test_batch_count_not_inflated_by_purges(self):
        # Regression: purge evictions tripped by the withdrawal loop
        # must not be attributed to the scheduled batch.
        defense = Ergo(ErgoConfig())
        sim = _sim(defense)
        defense.bootstrap([f"g{i}" for i in range(100)])
        defense.population.bad_join(500)
        sim.queue.push(BadDepartureBatch(time=5.0, count=400))
        result = sim.run()
        assert result.counters["bad_departure_events"] <= 400


class TestDefenseBatchHook:
    def test_base_hook_aggregates(self):
        sim = _sim(NullDefense())
        sim.defense.process_bad_join_batch(20.0)
        removed = sim.defense.process_bad_departure_batch(12)
        assert removed == 12
        assert sim.defense.bad_count() == 8
        assert sim.defense.process_bad_departure_batch(0) == 0

    def test_overridden_per_id_hook_gets_faithful_loop(self):
        # Ergo overrides process_bad_departure (churn bookkeeping), so
        # the batch hook must behave exactly like N per-ID calls.
        batch = Ergo(ErgoConfig())
        loop = Ergo(ErgoConfig())
        _sim(batch)
        _sim(loop)
        for defense in (batch, loop):
            defense.bootstrap([f"g{i}" for i in range(30)])
            # Seed the aggregate Sybil population directly (flooding
            # through pricing would trigger purges and drain it again).
            defense.population.bad_join(8)
        standing = batch.bad_count()
        assert standing == loop.bad_count() == 8
        k = standing - 1
        removed = batch.process_bad_departure_batch(k)
        for _ in range(k):
            loop.process_bad_departure("")
        # ``removed`` counts only delivered withdrawals: if a purge
        # tripped mid-loop drains the rest, the remaining calls find no
        # standing Sybil and are not delivered (nor double-counted).
        assert 0 < removed <= k
        assert batch.bad_count() == loop.bad_count()
        assert batch._event_counter == loop._event_counter
        assert batch.peak_bad_fraction == loop.peak_bad_fraction
        assert batch.population.good_count == loop.population.good_count

    def test_faithful_loop_stops_when_dry(self):
        defense = Ergo(ErgoConfig())
        _sim(defense)
        defense.bootstrap(["a", "b"])
        defense.population.bad_join(3)
        standing = defense.bad_count()
        assert standing > 0
        removed = defense.process_bad_departure_batch(100)
        # Delivered withdrawals stop once the population runs dry (a
        # purge tripped mid-loop may drain it early; those evictions
        # are the purge's, not the schedule's).
        assert 0 < removed <= standing
        assert defense.bad_count() == 0
