"""REMP: recurring challenges sized against a worst-case attacker [99].

"Each ID solves an RB challenge to join.  Additionally, each ID must
solve RB challenges every W seconds.  We use Equation (4) from [99] to
compute the spend rate per ID as L/W = T_max/(κN) ... The total good
spend rate is A_REMP = (1−κ)·T_max/κ to guarantee that the fraction of
bad IDs is less than half." (Section 10.1, Equation 13.)

The defining property -- and weakness -- of REMP is that its cost is
provisioned for the *maximum anticipated* attack T_max, not the actual
attack: its Figure-8 curve is flat at ``(1−κ)T_max/κ ≈ 1.7×10⁸`` for
``T_max = 10⁷, κ = 1/18`` regardless of T.  The guarantee only holds for
attacks up to T_max ("REMP-10⁷ only ensures a minority of bad IDs for up
to T = 10⁷").
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.protocol import Defense


class Remp(Defense):
    """Join challenge + recurring per-ID challenges every W seconds."""

    name = "REMP"

    def __init__(
        self,
        t_max: float = 1.0e7,
        kappa: float = 1.0 / 18.0,
        period: float = 1.0,
    ) -> None:
        super().__init__()
        if t_max <= 0:
            raise ValueError(f"t_max must be positive: {t_max}")
        if not 0 < kappa < 1:
            raise ValueError(f"kappa must be in (0,1): {kappa}")
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self.t_max = float(t_max)
        self.kappa = float(kappa)
        self.period = float(period)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def after_bootstrap(self, count: int) -> None:
        self.sim.call_after(self.period, self._recurring_cycle, label="remp")

    def recurring_cost_rate_per_id(self) -> float:
        """L/W = T_max/(κN) with N the current system size (Eq. 13)."""
        size = max(self.population.size, 1)
        return self.t_max / (self.kappa * size)

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
        """Batched joins: flat 1-hard charge (recurring costs are a
        scheduled callback, so join runs have no other bookkeeping)."""
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
    # the recurring challenge cycle
    # ------------------------------------------------------------------
    def _recurring_cycle(self, now: float) -> None:
        self._observe_fraction()
        per_id = self.recurring_cost_rate_per_id() * self.period
        good_n = self.population.good_count
        self.accountant.charge_good_bulk(good_n, per_id, category="recurring")
        bad_n = self.population.bad_count
        if bad_n > 0:
            funded = 0
            if self._adversary is not None:
                funded = self._adversary.fund_maintenance(bad_n, per_id, now)
                funded = max(0, min(funded, bad_n))
            if funded > 0:
                self.accountant.charge_adversary(funded * per_id, category="recurring")
            self.population.bad.evict_oldest(bad_n - funded)
        self.sim.call_after(self.period, self._recurring_cycle, label="remp")
