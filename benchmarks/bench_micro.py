"""Micro-benchmarks for the hot substrate operations.

These are the operations that execute millions of times in the
Figure-8 sweep: membership mutation, window counting, aggregate Sybil
cohort arithmetic, event-queue throughput, entrance-cost quoting, and
(for completeness) an actual proof-of-work solve.
"""

import numpy as np

from repro.adversary.strategies import GreedyJoinAdversary
from repro.churn.traces import InitialMember
from repro.core.ergo import Ergo
from repro.core.population import AggregateBadPopulation
from repro.identity.membership import MembershipSet, SymmetricDifferenceTracker
from repro.rb.pow import PowChallenge, solve_pow, verify_pow
from repro.sim.blocks import ChurnBlock
from repro.sim.engine import EventQueue, Simulation, SimulationConfig
from repro.sim.events import Tick
from repro.sim.metrics import SlidingWindowCounter
from repro.sim.null_defense import NullDefense


def bench_membership_churn(benchmark):
    def run():
        membership = MembershipSet()
        membership.attach_tracker("t", SymmetricDifferenceTracker())
        for i in range(5_000):
            membership.add(f"id{i}", is_good=True, now=float(i))
        for i in range(0, 5_000, 2):
            membership.remove(f"id{i}")
        return membership.sym_diff("t")

    diff = benchmark(run)
    assert diff == 2_500


def bench_random_good_selection(benchmark):
    membership = MembershipSet()
    for i in range(10_000):
        membership.add(f"id{i}", is_good=True, now=0.0)
    rng = np.random.default_rng(0)

    def run():
        return [membership.random_good(rng) for _ in range(1_000)]

    picks = benchmark(run)
    assert len(picks) == 1_000


def bench_aggregate_bad_cohorts(benchmark):
    def run():
        bad = AggregateBadPopulation()
        bad.attach_tracker("t")
        for i in range(2_000):
            bad.join(100, now=float(i))
            bad.evict_oldest(60)
        return bad.total

    total = benchmark(run)
    assert total == 2_000 * 40


def bench_sliding_window(benchmark):
    def run():
        window = SlidingWindowCounter(width=5.0)
        count = 0
        for i in range(20_000):
            window.record(i * 0.1, count=3)
            count = window.count(i * 0.1)
        return count

    final = benchmark(run)
    assert final == 150  # 50 batches of 3 inside a 5s window


def bench_engine_event_loop(benchmark):
    """The full engine loop: block fast path, heap, adversary wake-ups.

    Uses a pass-through defense so the measured cost is the engine's own
    (the number here is the one ``benchmarks/bench_sweep.py`` converts
    to events/sec for the perf trajectory in ``BENCH_micro.json``).  The
    churn is a :class:`~repro.sim.blocks.ChurnBlock`, so joins ride the
    zero-heap fast path while session departures and ticks flow through
    the queue.
    """
    n_joins, horizon = 10_000, 2_500.0
    step = horizon / n_joins
    block = ChurnBlock(
        (np.arange(n_joins) + 1) * step,
        np.zeros(n_joins, dtype=np.uint8),
        sessions=np.full(n_joins, 50.0 * step),
    )

    def run():
        sim = Simulation(
            SimulationConfig(horizon=horizon, tick_interval=1.0, seed=1),
            NullDefense(),
            [block],
            adversary=GreedyJoinAdversary(rate=0.5),
        )
        return sim.run()

    result = benchmark(run)
    # Every join was applied straight from the block (zero heap) ...
    assert result.counters["churn_events_fast"] == n_joins
    # ... departures and ticks still flowed through the queue ...
    assert result.counters["queue_pops"] > horizon / 1.0
    # ... and the lazy tick kept the heap shallow (no pre-scheduled bulk).
    assert result.counters["queue_max_size"] < 100


def bench_event_queue(benchmark):
    def run():
        queue = EventQueue()
        for i in range(10_000):
            queue.push(Tick(time=float(10_000 - i)))
        drained = 0
        while queue:
            queue.pop()
            drained += 1
        return drained

    assert benchmark(run) == 10_000


def bench_entrance_quote_under_congestion(benchmark):
    defense = Ergo()
    sim = Simulation(
        SimulationConfig(horizon=1.0, tick_interval=0.0),
        defense,
        [],
        initial_members=[InitialMember(ident=f"i{k}") for k in range(1_000)],
    )
    sim.run()
    defense._window.record(1.0, 500)

    def run():
        return [defense.quote_entrance_cost() for _ in range(10_000)]

    quotes = benchmark(run)
    assert quotes[0] == 501.0


def bench_pow_solve_and_verify(benchmark):
    challenge = PowChallenge(seed=b"bench", solver="alice", bits=10)

    def run():
        solution = solve_pow(challenge)
        assert verify_pow(challenge, solution)
        return solution

    benchmark(run)


def bench_flood_batch_processing(benchmark):
    """One full purge cycle's worth of Sybil flood arithmetic."""
    defense = Ergo()
    sim = Simulation(
        SimulationConfig(horizon=1.0, tick_interval=0.0),
        defense,
        [],
        initial_members=[InitialMember(ident=f"i{k}") for k in range(5_000)],
    )
    sim.run()
    time_holder = [1.0]

    def run():
        time_holder[0] += 1.0
        sim.clock.advance_to(time_holder[0])
        return defense.process_bad_join_batch(budget=100_000.0)

    attempted, cost = benchmark(run)
    assert attempted > 0
    assert cost <= 100_000.0
