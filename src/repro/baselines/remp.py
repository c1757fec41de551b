"""REMP: recurring challenges sized against a worst-case attacker [99].

"Each ID solves an RB challenge to join.  Additionally, each ID must
solve RB challenges every W seconds.  We use Equation (4) from [99] to
compute the spend rate per ID as L/W = T_max/(κN) ... The total good
spend rate is A_REMP = (1−κ)·T_max/κ to guarantee that the fraction of
bad IDs is less than half." (Section 10.1, Equation 13.)

A recurring-challenge defense
(:class:`~repro.baselines.recurring.RecurringChallengeDefense`) whose
fee per period W is ``L/W · W``, evaluated at each cycle against the
current system size N.  The defining property -- and weakness -- of
REMP is that its cost is provisioned for the *maximum anticipated*
attack T_max, not the actual attack: its Figure-8 curve is flat at
``(1−κ)T_max/κ ≈ 1.7×10⁸`` for ``T_max = 10⁷, κ = 1/18`` regardless of
T.  The guarantee only holds for attacks up to T_max ("REMP-10⁷ only
ensures a minority of bad IDs for up to T = 10⁷").
"""

from __future__ import annotations

from repro.baselines.recurring import RecurringChallengeDefense


class Remp(RecurringChallengeDefense):
    """Join challenge + recurring per-ID challenges every W seconds."""

    name = "REMP"
    cycle_label = "remp"

    def __init__(
        self,
        t_max: float = 1.0e7,
        kappa: float = 1.0 / 18.0,
        period: float = 1.0,
    ) -> None:
        if t_max <= 0:
            raise ValueError(f"t_max must be positive: {t_max}")
        if not 0 < kappa < 1:
            raise ValueError(f"kappa must be in (0,1): {kappa}")
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        super().__init__(period)
        self.t_max = float(t_max)
        self.kappa = float(kappa)

    def recurring_cost_rate_per_id(self) -> float:
        """L/W = T_max/(κN) with N the current system size (Eq. 13)."""
        size = max(self.population.size, 1)
        return self.t_max / (self.kappa * size)

    def cycle_fee(self) -> float:
        return self.recurring_cost_rate_per_id() * self.period
