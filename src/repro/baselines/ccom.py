"""CCom: purge-based defense with flat entrance costs [98].

"It is the same as Ergo, except the hardness of the RB challenge
assigned to joining IDs is always 1.  Thus, CCom does not need knowledge
of the good join rate and, therefore, has no estimation component like
GoodJEst." (Section 10.1.)

Reusing Ergo's joins, departures and iteration/purge machinery, CCom
overrides the entrance cost to a constant 1 and batches adversarial
joins with flat-cost arithmetic.  Against a flood, every Sybil join
costs the adversary only 1 but still advances the iteration counter, so
purges (each costing all good IDs 1) fire at a rate linear in T -- the
O(T + J) spend rate that Figure 8 shows growing ~100x faster than Ergo
at T = 2^20.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.ergo import Ergo, ErgoConfig


class CCom(Ergo):
    """Ergo minus adaptive pricing: every joiner pays exactly 1."""

    name = "CCOM"

    def __init__(self, config: Optional[ErgoConfig] = None) -> None:
        super().__init__(config)

    def quote_entrance_cost(self) -> float:
        return 1.0

    def _price_run(self, times) -> list:
        """Flat 1-hard joins: the window records the run without quoting it."""
        self._window.record_run(times)
        return [1.0] * len(times)

    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        attempted_total = 0
        cost_total = 0.0
        remaining = float(budget)
        while True:
            affordable = int(remaining)  # flat cost of 1 per join
            batch = min(affordable, self._events_until_purge())
            if batch <= 0:
                break
            cost = float(batch)
            self.accountant.charge_adversary(cost, category="entrance")
            remaining -= cost
            attempted_total += batch
            cost_total += cost
            self.population.bad_join(batch)
            self._note_events(joins=batch)
        return attempted_total, cost_total
