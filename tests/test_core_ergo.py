"""Tests for the Ergo defense (Figure 4 semantics)."""

import math

import numpy as np
import pytest

from tests.helpers import run_small_sim
from repro.adversary.strategies import (
    BurstyJoinAdversary,
    GreedyJoinAdversary,
    PurgeSurvivorAdversary,
)
from repro.baselines.ccom import CCom
from repro.churn.traces import InitialMember
from repro.core.ergo import Ergo, ErgoConfig
from repro.core.heuristics import ergo_ch1
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.events import GoodJoin


def build_ergo_sim(n0=44, horizon=100.0, events=(), config=None, adversary=None):
    initial = [InitialMember(ident=f"i{k}") for k in range(n0)]
    defense = Ergo(config)
    sim = Simulation(
        SimulationConfig(horizon=horizon),
        defense,
        list(events),
        adversary=adversary,
        initial_members=initial,
    )
    return sim, defense


class TestConfigValidation:
    def test_defaults_follow_paper(self):
        config = ErgoConfig()
        assert config.kappa == pytest.approx(1 / 18)
        assert config.purge_fraction == pytest.approx(1 / 11)
        assert config.goodjest_threshold == pytest.approx(5 / 12)

    def test_bad_trigger_rejected(self):
        with pytest.raises(ValueError, match="purge trigger"):
            ErgoConfig(purge_trigger="bogus")

    def test_bad_kappa_rejected(self):
        with pytest.raises(ValueError):
            ErgoConfig(kappa=0.0)
        with pytest.raises(ValueError):
            ErgoConfig(kappa=1.5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            ErgoConfig(purge_fraction=0.0)


class TestEntranceCost:
    def test_first_joiner_pays_one(self):
        sim, defense = build_ergo_sim(events=[GoodJoin(time=50.0)])
        sim.run()
        # Initial estimate = n0/1s, so the window is ~1/n0 seconds: the
        # lone joiner sees an empty window and pays the base cost 1.
        assert defense.accountant.good_total == 44 + 1  # init + entrance

    def test_cost_grows_with_window_occupancy(self):
        sim, defense = build_ergo_sim()
        sim.run()
        base = defense.quote_entrance_cost()
        defense._window.record(defense.now, 5)
        assert defense.quote_entrance_cost() == base + 5

    def test_flood_pricing_is_quadratic(self):
        """Section 7.1: x joins in one window cost the adversary ~x²/2."""
        # n0=440 -> purge threshold 40 events, so a 31-join burst fits
        # inside one iteration and the pure window pricing is visible.
        sim, defense = build_ergo_sim(n0=440, horizon=10.0)
        sim.run()
        attempted, cost = defense.process_bad_join_batch(budget=500.0)
        # Sum 1..m <= 500 -> m = 31, total 496.
        assert attempted == 31
        assert cost == pytest.approx(496.0)
        assert defense.purge_count == 0

    def test_max_affordable_never_overspends(self):
        for window in (0, 3, 100):
            for budget in (0.0, 0.5, 1.0, 7.0, 1234.5):
                m = Ergo._max_affordable(window, budget, 1.0)
                cost = m * (1 + window) + m * (m - 1) / 2
                assert cost <= budget + 1e-9
                # And one more would overspend.
                m2 = m + 1
                cost2 = m2 * (1 + window) + m2 * (m2 - 1) / 2
                assert cost2 > budget


class TestPurges:
    def test_purge_fires_after_fraction_of_events(self):
        # n0=44 -> first threshold ceil(44/11) = 4 events; after the
        # purge |S| = 48 so the second threshold is ceil(48/11) = 5.
        events = [GoodJoin(time=float(t)) for t in range(1, 14)]
        sim, defense = build_ergo_sim(events=events, horizon=20.0)
        sim.run()
        assert defense.purge_count == 2  # at join 4 and join 9

    def test_purge_charges_every_good_id_one(self):
        events = [GoodJoin(time=float(t)) for t in range(1, 5)]
        sim, defense = build_ergo_sim(events=events, horizon=10.0)
        result = sim.run()
        by_cat = result.metrics.good.by_category()
        assert by_cat["purge"] == 48.0  # 44 initial + 4 joined

    def test_purge_evicts_unfunded_bad(self):
        sim, defense = build_ergo_sim(horizon=10.0)
        sim.run()
        defense.process_bad_join_batch(budget=10.0)  # joins 4 -> purge at 4
        assert defense.purge_count >= 1
        assert defense.population.bad_count == 0

    def test_departures_count_toward_the_trigger(self):
        sim, defense = build_ergo_sim(horizon=10.0)
        sim.run()
        # The first four initial members, by the idents bootstrap issued.
        for ident in range(1, 5):
            defense.process_good_departure(ident)
        assert defense.purge_count == 1

    def test_iteration_state_resets_after_purge(self):
        events = [GoodJoin(time=float(t)) for t in range(1, 5)]
        sim, defense = build_ergo_sim(events=events, horizon=10.0)
        sim.run()
        assert defense.purge_count == 1
        assert defense._event_counter == 0
        assert defense.iteration_count == 2


class TestBadFractionInvariant:
    """Lemma 9: the bad fraction stays below 3κ <= 1/6."""

    @pytest.mark.parametrize("rate", [50.0, 1000.0, 50_000.0])
    def test_greedy_flood_bounded(self, rate):
        result, defense = run_small_sim(
            Ergo(ErgoConfig(paranoid=True)),
            adversary=GreedyJoinAdversary(rate=rate),
            horizon=150.0,
            n0=600,
        )
        assert result.max_bad_fraction < 1 / 6

    def test_bursty_flood_bounded(self):
        result, defense = run_small_sim(
            Ergo(ErgoConfig(paranoid=True)),
            adversary=BurstyJoinAdversary(rate=5000.0, burst_period=20.0),
            horizon=150.0,
            n0=600,
        )
        assert result.max_bad_fraction < 1 / 6

    def test_purge_survivor_bounded(self):
        """Even paying to keep κN IDs at purges can't break 3κ."""
        result, defense = run_small_sim(
            Ergo(ErgoConfig(paranoid=True)),
            adversary=PurgeSurvivorAdversary(rate=10_000.0),
            horizon=150.0,
            n0=600,
        )
        assert result.max_bad_fraction < 1 / 6
        # The survivor actually kept some IDs through purges.
        assert result.metrics.adversary.by_category().get("purge", 0) > 0


class TestCostAsymmetry:
    def test_ergo_grows_slower_than_ccom(self):
        """The heart of Theorem 1: under the same flood, Ergo's cost
        grows markedly slower than CCom's (O(√(TJ)) vs O(T)).

        n0 is sized so that one purge threshold (n0/11) exceeds the
        per-burst flood √(2T); below that, every flood burst forces a
        purge cycle and both algorithms degenerate to linear cost.
        """
        from repro.baselines.ccom import CCom

        rates = [2_000.0, 32_000.0]  # 16x apart; sqrt(2*32000) = 253 < 4000/11
        growth = {}
        for name, factory in (("ergo", Ergo), ("ccom", CCom)):
            costs = []
            for rate in rates:
                result, _ = run_small_sim(
                    factory(), adversary=GreedyJoinAdversary(rate=rate),
                    horizon=200.0, n0=4000, seed=3,
                )
                costs.append(result.good_spend_rate)
            growth[name] = costs[1] / costs[0]
        assert growth["ergo"] < growth["ccom"] / 2.0

    def test_ergo_beats_ccom_at_scale(self):
        """At a large T, Ergo's absolute cost undercuts CCom's by a lot."""
        from repro.baselines.ccom import CCom

        results = {}
        for name, factory in (("ergo", Ergo), ("ccom", CCom)):
            result, _ = run_small_sim(
                factory(), adversary=GreedyJoinAdversary(rate=100_000.0),
                horizon=200.0, n0=600, seed=3,
            )
            results[name] = result.good_spend_rate
        assert results["ergo"] < results["ccom"] / 10.0

    def test_no_attack_costs_are_join_dominated(self):
        result, defense = run_small_sim(Ergo(), horizon=200.0, n0=600)
        by_cat = result.metrics.good.by_category()
        # Entrance costs are O(1) per good join without an attack.
        joins = result.counters.get("good_join_events", 0)
        assert joins > 0
        assert by_cat.get("entrance", 0.0) <= 3.0 * joins + 5


class TestStats:
    def test_iteration_stats_shape(self):
        result, defense = run_small_sim(Ergo(), horizon=100.0, n0=600)
        stats = defense.iteration_stats()
        assert set(stats) == {
            "iterations",
            "purges",
            "purges_skipped",
            "estimate",
            "intervals",
        }
        assert stats["iterations"] >= 1


class TestWindowWidening:
    """Ergo's window width 1/J̃ is capped at max_window_width."""

    def test_window_constructed_with_max_width(self):
        from repro.churn.generators import smooth_trace
        from repro.sim.blocks import blocks_from_events
        import numpy as np

        rng = np.random.default_rng(1)
        events = smooth_trace(n0=30, epoch_rates=[2.0], rng=rng)
        blocks = list(blocks_from_events(events, block_size=16))
        defense = Ergo()
        sim = Simulation(
            SimulationConfig(horizon=30.0, seed=3), defense, blocks
        )
        sim.run()
        # The operating width never exceeds the cap 1/J̃ is clamped to.
        assert defense._window.width <= defense.config.max_window_width


class TestShortBatchRuns:
    """Runs of 1-5 rows through the chunked batch bodies match the per-ID
    hooks, with purge and GoodJEst trips landing inside the runs.

    One twin takes each run through ``process_good_join_batch`` /
    ``process_good_departure_batch``; the other takes it row by row
    through the per-ID hooks with the clock set at each row.  The
    engine-vs-oracle suite reaches these short-run trips only by
    chance, and never with ERGO-CH1's symdiff trigger and deferred
    estimate.
    """

    N0 = 44
    RUNS = 240

    @staticmethod
    def _twin(factory, n0):
        defense = factory()
        sim = Simulation(
            SimulationConfig(horizon=1.0),
            defense,
            [],
            initial_members=[InitialMember(ident=f"i{k}") for k in range(n0)],
        )
        sim.run()
        return sim, defense

    @staticmethod
    def _state(sim, defense):
        return (
            sim.metrics.good.by_category(),
            defense.population.good.good_ids(),
            defense.purge_count,
            defense.iteration_count,
            defense.goodjest.estimate,
            len(defense.goodjest.intervals),
            defense.goodjest.has_pending_update,
            defense._window.count(sim.clock.now),
            defense._event_counter,
            defense._joins_in_iter,
            defense.peak_bad_fraction,
            sim.clock.now,
        )

    @staticmethod
    def _trips(defense):
        return (
            defense.iteration_count,
            len(defense.goodjest.intervals) + defense.goodjest.has_pending_update,
        )

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "factory", [Ergo, CCom, ergo_ch1], ids=["ergo", "ccom", "ergo-ch1"]
    )
    def test_batch_runs_match_per_id_hooks(self, factory, length):
        batch_sim, batched = self._twin(factory, self.N0)
        row_sim, per_id = self._twin(factory, self.N0)
        rng = np.random.default_rng(1000 + length)
        t = batch_sim.clock.now
        # Trips seen at each row offset of a run: [purge, estimate].
        trips_at = [[0, 0] for _ in range(length)]
        for _ in range(self.RUNS):
            times = []
            for _row in range(length):
                if rng.random() >= 0.2:  # else a same-instant row
                    t += float(rng.exponential(0.01))
                times.append(t)
            good = batched.population.good.good_ids()
            join = len(good) < self.N0 // 2 or rng.random() < 0.5
            if join:
                issued = list(batched.process_good_join_batch(list(times)))
            else:
                # Named victims, sometimes one already gone (ident 0: a no-op).
                victims = [
                    int(good[rng.integers(len(good))])
                    if rng.random() >= 0.1
                    else 0
                    for _row in range(length)
                ]
                batched.process_good_departure_batch(list(times), victims)
            admitted = []
            before = self._trips(per_id)
            for row, when in enumerate(times):
                row_sim.clock._now = when
                if join:
                    admitted.append(per_id.process_good_join(None))
                else:
                    per_id.process_good_departure(victims[row])
                after = self._trips(per_id)
                for k in (0, 1):
                    trips_at[row][k] += after[k] != before[k]
                before = after
            if join:
                assert issued == admitted
            assert self._state(batch_sim, batched) == self._state(
                row_sim, per_id
            )
        # The schedule trips both rules at every row offset, interior
        # rows of multi-row runs included.
        for row in range(length):
            purges, estimates = trips_at[row]
            assert purges >= 3, (row, trips_at)
            assert estimates >= 3, (row, trips_at)
