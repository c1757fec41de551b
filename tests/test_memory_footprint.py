"""Memory budgets for the two per-join stores on the engine's hot path.

At flash-crowd scale (~10^6 standing IDs) the membership table's
per-member bytes set the simulation's peak RSS, and any per-row state
in the cost ledger grows with every join ever made.  Both are measured
with ``tracemalloc`` around the mutators only: idents and amounts are
built before tracing starts, as the engine builds them outside these
layers.  The table's position map is indexed by ident, so it also grows
with every join ever made; the churned-out budget bounds that.
"""

import tracemalloc

from repro.identity.ids import IdentityFactory
from repro.identity.membership import ArenaMembershipSet
from repro.rb.ledger import CostAccountant
from repro.sim.metrics import MetricSet

N = 100_000
#: engine-realistic join run length on a flash crowd
RUN = 32

#: The integer table measures ~17.2 B/member on CPython 3.11: one raw
#: int64 in the member column and one in the position map, each rounded
#: up to a whole 64 KiB page.  The string-keyed table it replaced (a
#: dict entry and boxed position, a list pointer, a raw serial) measured
#: ~87 B, the slot arena before it ~113 B and its boxed-list layout
#: ~218 B.
ARENA_BYTES_PER_MEMBER = 24

#: After N joins and N - 1,000 departures the position map still holds
#: one int64 per join ever made and the member column keeps its peak
#: pages: ~17.2 B per join on CPython 3.11, against ~47 B for the
#: string-keyed table.
CHURNED_BYTES_PER_JOIN = 20


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
    idents = IdentityFactory().issue_batch(N)
    runs = [idents[i : i + RUN] for i in range(0, N, RUN)]

    def build():
        arena = ArenaMembershipSet()
        for run in runs:
            arena.add_batch(run)
        assert len(arena) == N
        return arena

    per_member = _traced_growth(build) / N
    assert per_member <= ARENA_BYTES_PER_MEMBER, per_member


def test_churned_out_arena_bytes_per_join_within_budget():
    idents = IdentityFactory().issue_batch(N)
    runs = [idents[i : i + RUN] for i in range(0, N, RUN)]
    leavers = list(idents[: N - 1_000])
    gone = [leavers[i : i + RUN] for i in range(0, len(leavers), RUN)]

    def churn():
        arena = ArenaMembershipSet()
        for run in runs:
            arena.add_batch(run)
        for run in gone:
            arena.remove_batch(run)
        assert len(arena) == 1_000
        return arena

    per_join = _traced_growth(churn) / N
    assert per_join <= CHURNED_BYTES_PER_JOIN, per_join


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
