"""Recurring-challenge defenses: a 1-hard join plus a per-ID fee per cycle.

SybilControl [67] and REMP [99] (Section 10.1) share one mechanism.
Each ID solves a 1-hard RB challenge to join, and every ``period``
seconds every standing ID must solve recurring challenges worth a fee.
Good IDs always pay.  Sybil IDs survive a cycle only if the adversary
funds their fees (:meth:`repro.adversary.base.Adversary.fund_maintenance`);
the unfunded ones are evicted, oldest first.  Nothing is ever purged
globally, so the bad fraction is bounded only by what the adversary can
afford to keep funding.

The two defenses differ only in the fee per ID per cycle, which each
subclass supplies through :meth:`RecurringChallengeDefense.cycle_fee`.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.core.protocol import Defense


class RecurringChallengeDefense(Defense):
    """Join challenge + a recurring per-ID challenge every ``period`` s."""

    #: Label of the scheduled cycle callback (each subclass names its own).
    cycle_label: str

    def __init__(self, period: float) -> None:
        super().__init__()
        self.period = float(period)

    @abc.abstractmethod
    def cycle_fee(self) -> float:
        """The RB cost each standing ID pays per cycle, read at cycle time."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def after_bootstrap(self, count: int) -> None:
        self.sim.call_after(self.period, self._recurring_cycle, label=self.cycle_label)

    # ------------------------------------------------------------------
    # joins and departures
    # ------------------------------------------------------------------
    def quote_entrance_cost(self) -> float:
        return 1.0

    def process_good_join(self, ident: Optional[str] = None) -> Optional[int]:
        unique = self.ids.issue()
        self.accountant.charge_good(1.0, category="entrance")
        self.population.good_join(unique)
        return unique

    def process_good_departure(self, ident: Optional[int] = None) -> Optional[int]:
        victim = self._select_departing_good(ident)
        if victim is None:
            return None
        self.population.good_depart(victim)
        return victim

    def process_good_join_batch(self, times, idents=None) -> range:
        """Batched joins: one issue/charge/admit pass at a flat cost of 1.

        Joins carry no other bookkeeping (the recurring fee is a
        scheduled callback), so each row keeps its own charge while
        idents, charges and membership go through the whole-run batch
        APIs instead of per-row calls.
        """
        k = len(times)
        uniques = self.ids.issue_batch(k)
        self.accountant.charge_good_batch([1.0] * k, "entrance")
        self.population.good.add_batch(uniques)
        return uniques

    #: Departures are select + remove with no bookkeeping.
    process_good_departure_batch = Defense._removal_departure_batch

    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        batch = int(budget)  # flat cost of 1 per join
        if batch <= 0:
            return 0, 0.0
        cost = float(batch)
        self.accountant.charge_adversary(cost, category="entrance")
        self.population.bad_join(batch)
        self._observe_fraction()
        return batch, cost

    # ------------------------------------------------------------------
    # the recurring challenge cycle
    # ------------------------------------------------------------------
    def _recurring_cycle(self, now: float) -> None:
        # The peak bad fraction occurs just before unfunded Sybils are
        # dropped; record it so the harness can apply the 1/6 cutoff.
        self._observe_fraction()
        fee = self.cycle_fee()
        good_n = self.population.good_count
        self.accountant.charge_good_bulk(good_n, fee, category="recurring")
        bad_n = self.population.bad_count
        if bad_n > 0:
            funded = 0
            if self._adversary is not None:
                funded = self._adversary.fund_maintenance(bad_n, fee, now)
                funded = max(0, min(funded, bad_n))
            if funded > 0:
                self.accountant.charge_adversary(funded * fee, category="recurring")
            self.population.bad.evict_oldest(bad_n - funded)
        self.sim.call_after(self.period, self._recurring_cycle, label=self.cycle_label)
