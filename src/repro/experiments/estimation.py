"""The GoodJEst estimation harness (Figure 9's apparatus).

Theorem 2 is about GoodJEst alone: "Assume the fraction of bad IDs is
always less than 1/6" -- purges are not part of the claim.  The harness
therefore runs GoodJEst over a churn trace with

* a *persistent* Sybil population pinned at a chosen fraction (the
  figure's x-axis), maintained by
  :class:`repro.adversary.strategies.PersistentFractionAdversary`
  through the zero-cost :meth:`force_bad_join` hook; and
* optionally, an *attacking* flood throttled by Ergo-style entrance
  pricing, so "a constant rate that can be afforded when T = 10,000"
  (Section 10.2) is meaningful.

After every completed interval it records ``J̃ / (true good join rate
over that interval)`` -- the exact quantity Figure 9 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.goodjest import GoodJEst
from repro.core.protocol import Defense
from repro.sim.metrics import SlidingWindowCounter

#: Cap on the entrance-window width 1/J̃, as Ergo's default.
MAX_WINDOW_WIDTH = 1.0e7


@dataclass(frozen=True)
class RatioSample:
    """One interval's estimate/true ratio."""

    time: float
    estimate: float
    true_rate: float

    @property
    def ratio(self) -> float:
        if self.true_rate <= 0:
            return float("nan")
        return self.estimate / self.true_rate


class EstimationHarness(Defense):
    """GoodJEst + entrance pricing, no purges, no cost accounting."""

    name = "GoodJEst-harness"

    def __init__(self, bad_fraction_cap: Optional[float] = None) -> None:
        super().__init__()
        self.goodjest = GoodJEst(self.population)
        #: Theorem 2's precondition: keep the bad fraction below a cap by
        #: trimming the *newest* Sybil IDs (the persistent base stays).
        self.bad_fraction_cap = bad_fraction_cap
        self._window: Optional[SlidingWindowCounter] = None
        self._good_joins_in_interval = 0
        self.ratios: List[RatioSample] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def after_bootstrap(self, count: int) -> None:
        self.goodjest.initialize(self.now)
        self._window = SlidingWindowCounter(self._window_width())

    def _window_width(self) -> float:
        return min(1.0 / self.goodjest.estimate, MAX_WINDOW_WIDTH)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def quote_entrance_cost(self) -> float:
        return 1.0 + self._window.count(self.now)

    def process_good_join(self, ident: Optional[str] = None) -> Optional[int]:
        unique = self.ids.issue()
        self.population.good_join(unique)
        self._good_joins_in_interval += 1
        self._after_event()
        return unique

    def process_good_departure(self, ident: Optional[int] = None) -> Optional[int]:
        victim = self._select_departing_good(ident)
        if victim is None:
            return None
        self.population.good_depart(victim)
        self._after_event()
        return victim

    def force_bad_join(self, count: int) -> None:
        """Zero-cost Sybil joins for the persistent population."""
        if count <= 0:
            return
        self.population.bad_join(count)
        self._window.record(self.now, count)
        self._after_event()

    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        """Attack joins priced by the entrance window (like Ergo)."""
        from repro.core.ergo import Ergo

        attempted_total = 0
        cost_total = 0.0
        remaining = float(budget)
        while True:
            window_count = self._window.count(self.now)
            batch = Ergo._max_affordable(window_count, remaining, 1.0)
            # Without purges there is no iteration cap, but cap batches
            # near event granularity: in reality joins arrive one at a
            # time and the fraction cap trims continuously, so a burst
            # standing in the system when an interval ends is small.
            batch = min(batch, max(self.population.size // 64, 1))
            if batch <= 0:
                break
            cost = batch * (1.0 + window_count) + batch * (batch - 1) / 2.0
            self.accountant.charge_adversary(cost, category="entrance")
            remaining -= cost
            attempted_total += batch
            cost_total += cost
            self.population.bad_join(batch)
            self._window.record(self.now, batch)
            # The estimator sees the flood at event granularity (an
            # interval can end while the burst is in the system); the
            # persistence cap is enforced only between batches.
            self._after_event()
            self._trim_bad()
        return attempted_total, cost_total

    def _trim_bad(self) -> None:
        """Enforce the bad-fraction cap by evicting the newest Sybils."""
        cap = self.bad_fraction_cap
        if cap is None:
            return
        good = self.population.good_count
        limit = int(cap / (1.0 - cap) * good)
        excess = self.population.bad_count - limit
        if excess > 0:
            self.population.bad.evict_newest(excess)

    # ------------------------------------------------------------------
    # interval-completion hook: record the estimate/true ratio
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        self._observe_fraction()
        if not self.goodjest.on_event(self.now):
            return
        self._window.set_width(self._window_width())
        interval = self.goodjest.intervals[-1]
        duration = max(interval.end - interval.start, 1e-12)
        true_rate = self._good_joins_in_interval / duration
        sample = RatioSample(
            time=interval.end, estimate=interval.estimate, true_rate=true_rate
        )
        self.ratios.append(sample)
        if true_rate > 0:
            self.sim.metrics.estimate_ratio.record(interval.end, sample.ratio)
        self._good_joins_in_interval = 0

    def bootstrap(self, idents) -> range:
        """Initial members join for free (estimation-only harness)."""
        issued = self.ids.issue_batch(len(idents))
        for ident in issued:
            self.population.good_join(ident)
        self.after_bootstrap(len(issued))
        return issued
