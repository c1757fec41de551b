"""SybilControl: decentralized periodic challenge testing [67].

"Each ID solves an RB challenge to join.  Additionally, each ID tests
its neighbors with an RB challenge every 0.5 seconds, removing from its
list of neighbors those IDs that fail to provide a solution within a
fixed time period.  These tests are not coordinated between IDs."
(Section 10.1.)

Cost model: per test period, each ID must solve ``tests_per_period``
challenges (one aggregate challenge from its neighborhood by default).
Good IDs always pay; Sybil IDs survive only if the adversary funds
their recurring fees (:meth:`repro.adversary.base.Adversary.fund_maintenance`),
so the adversary's spend rate T sustains a standing Sybil population of
about ``T · period / tests_per_period``.

SybilControl never purges globally, so nothing bounds the bad fraction
once T is large relative to the good population: the experiment harness
cuts the curve off when the observed bad fraction reaches 1/6, matching
Figure 8's truncated SybilControl series.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.protocol import Defense


class SybilControl(Defense):
    """Join challenge + uncoordinated periodic neighbor tests."""

    name = "SybilControl"

    def __init__(
        self,
        test_period: float = 0.5,
        tests_per_period: float = 1.0,
    ) -> None:
        super().__init__()
        if test_period <= 0:
            raise ValueError(f"test period must be positive: {test_period}")
        self.test_period = float(test_period)
        self.tests_per_period = float(tests_per_period)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def after_bootstrap(self, count: int) -> None:
        self.sim.call_after(self.test_period, self._test_cycle, label="sc-test")

    def recurring_cost_rate_per_id(self) -> float:
        """Per-second recurring cost each standing ID must burn."""
        return self.tests_per_period / self.test_period

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
        """Batched joins: flat 1-hard charge, no per-row clock traffic.

        Joins carry no iteration machinery here (the test cycle is a
        scheduled callback), so the shared flat-cost loop applies.
        """
        return self._flat_cost_join_batch(times, 1.0)

    #: Departures are select + remove with no bookkeeping.
    process_good_departure_batch = Defense._removal_departure_batch

    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        batch = int(budget)  # flat cost of 1 per join
        if batch <= 0:
            return 0, 0.0
        cost = float(batch)
        self.accountant.charge_adversary(cost, category="entrance")
        self.population.bad_join(batch, self.now)
        self._observe_fraction()
        return batch, cost

    # ------------------------------------------------------------------
    # the periodic test cycle
    # ------------------------------------------------------------------
    def _test_cycle(self, now: float) -> None:
        # The peak bad fraction occurs just before unfunded Sybils are
        # dropped; record it so the harness can apply the 1/6 cutoff.
        self._observe_fraction()
        good_n = self.population.good_count
        self.accountant.charge_good_bulk(
            good_n, self.tests_per_period, category="recurring"
        )
        bad_n = self.population.bad_count
        if bad_n > 0:
            funded = 0
            if self._adversary is not None:
                funded = self._adversary.fund_maintenance(
                    bad_n, self.tests_per_period, now
                )
                funded = max(0, min(funded, bad_n))
            if funded > 0:
                self.accountant.charge_adversary(
                    funded * self.tests_per_period, category="recurring"
                )
            self.population.bad.evict_oldest(bad_n - funded)
        self.sim.call_after(self.test_period, self._test_cycle, label="sc-test")
