"""Memory budgets for the two per-join stores on the engine's hot path.

At flash-crowd scale (~10^6 standing IDs) the membership arena's
per-member bytes set the simulation's peak RSS, and any per-row state
in the cost ledger grows with every join ever made.  Both are measured
with ``tracemalloc`` around the mutators only: idents, times and
amounts are built before tracing starts, as the engine builds them
outside these layers.
"""

import tracemalloc

from repro.identity.ids import IdentityFactory
from repro.identity.membership import ArenaMembershipSet
from repro.rb.ledger import CostAccountant
from repro.sim.metrics import MetricSet

N = 100_000
#: engine-realistic join run length on a flash crowd
RUN = 32

#: Typed columns measure ~113 B/member on CPython 3.11 (3.10's larger
#: dict entries add ~12 B); the boxed-list layout measured ~218 B.
ARENA_BYTES_PER_MEMBER = 144


def _traced_growth(fn) -> int:
    """Bytes that ``fn()`` allocated and that are still live after it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()  # bound, so the arena is still alive when read
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown


def test_arena_bytes_per_member_within_budget():
    idents = IdentityFactory().issue_batch("g", N)
    times = [i * 1e-3 for i in range(N)]
    runs = [
        (idents[i : i + RUN], times[i : i + RUN]) for i in range(0, N, RUN)
    ]

    def build():
        arena = ArenaMembershipSet()
        for run_idents, run_times in runs:
            arena.add_batch(run_idents, True, run_times)
        assert len(arena) == arena.good_count == N
        return arena

    per_member = _traced_growth(build) / N
    assert per_member <= ARENA_BYTES_PER_MEMBER, per_member


def test_ledger_keeps_no_per_row_state():
    metrics = MetricSet()
    accountant = CostAccountant(metrics)
    amounts = [1.0 + (i % 7) for i in range(N)]
    runs = [amounts[i : i + RUN] for i in range(0, N, RUN)]

    def charge():
        for run in runs:
            accountant.charge_good_batch(run, "entrance")

    per_row = _traced_growth(charge) / N
    assert per_row < 1.0, per_row
    assert metrics.good.total == sum(amounts)
