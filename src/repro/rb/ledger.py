"""Cost accounting shared by all defenses.

A single :class:`CostAccountant` is the only place costs are recorded,
so every defense books the party-level totals (the paper's ``A`` and
``T``) the same way.  Defenses charge through it; experiments read the
party-level :class:`~repro.sim.metrics.SpendMeter` objects.
"""

from __future__ import annotations

from repro.sim.metrics import MetricSet


class CostAccountant:
    """Charges resource-burning costs to the good party or the adversary.

    Both parties are charged at the party level only, by category.  The
    adversary is a single colluding entity (Section 2), and every bound
    the paper states for good IDs is on their aggregate spend rate, so
    no per-ID balance is kept.  The per-join entrance cost (a good ID
    pays O(1) to join absent an attack -- Section 1.1) is still
    recoverable: the good party's ``"entrance"`` category total divided
    by the good-join count is its mean.
    """

    def __init__(self, metrics: MetricSet) -> None:
        self._metrics = metrics

    def charge_good(self, amount: float, category: str) -> None:
        if amount < 0:
            raise ValueError(f"negative charge: {amount}")
        self._metrics.good.charge(amount, category)

    def charge_good_batch(self, amounts, category: str) -> None:
        """Charge a run of good joins their per-row ``amounts``.

        Float-exact equivalent of per-row :meth:`charge_good` calls: the
        party meter accumulates in sequence order.
        """
        self._metrics.good.charge_seq(amounts, category)

    def charge_good_bulk(self, count: int, amount_each: float, category: str) -> None:
        """Charge ``count`` good IDs ``amount_each`` (one meter update).

        Used for purge sweeps, where charging 10^4 IDs one call at a time
        at 10^3 purges/second would dominate the simulation.
        """
        if count < 0 or amount_each < 0:
            raise ValueError(f"negative bulk charge: {count} x {amount_each}")
        self._metrics.good.charge(count * amount_each, category)

    def charge_adversary(self, amount: float, category: str) -> None:
        if amount < 0:
            raise ValueError(f"negative charge: {amount}")
        self._metrics.adversary.charge(amount, category)

    @property
    def good_total(self) -> float:
        return self._metrics.good.total

    @property
    def adversary_total(self) -> float:
        return self._metrics.adversary.total
