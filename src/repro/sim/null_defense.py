"""A minimal pass-through defense for engine benchmarks and tests.

``NullDefense`` admits every good join at cost 0, admits Sybil joins at
the 1-hard floor, and runs no periodic machinery.  It exists so that
engine measurements (perfbench's ``events_per_sec.null``, the scale
gates in ``benchmarks/scale_gates.py``) exercise the *engine loop* --
heap traffic, dispatch, adversary wake-ups, block loading, sampling --
rather than any particular protocol's bookkeeping.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.protocol import Defense


class NullDefense(Defense):
    """Accepts everything; costs nothing beyond the 1-hard Sybil floor."""

    name = "null"

    def process_good_join(self, ident: Optional[str] = None) -> Optional[str]:
        unique = self.ids.issue(ident if ident is not None else "g")
        self.population.good_join(unique)
        return unique

    def process_good_departure(self, ident: Optional[str] = None) -> Optional[str]:
        victim = self._select_departing_good(ident)
        if victim is not None:
            self.population.good_depart(victim)
        return victim

    def process_good_join_batch(self, times, idents=None) -> list:
        """Batched joins: issue-and-admit with no charges at all.

        One ``issue_batch`` + one arena ``add_batch`` per run -- this
        hook is the floor every engine-loop benchmark number sits on.
        """
        if idents is None:
            uniques = self.ids.issue_batch("g", len(times))
        else:
            issue = self.ids.issue
            uniques = [
                issue(ident if ident is not None else "g") for ident in idents
            ]
        self.population.good.add_batch(uniques)
        return uniques

    #: Departures are select + remove with no bookkeeping.
    process_good_departure_batch = Defense._removal_departure_batch

    def quote_entrance_cost(self) -> float:
        return 1.0

    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        joins = int(budget)
        if joins:
            self.population.bad.join(joins, self.now)
            self.accountant.charge_adversary(float(joins), category="entrance")
        return joins, float(joins)
