"""SybilControl: decentralized periodic challenge testing [67].

"Each ID solves an RB challenge to join.  Additionally, each ID tests
its neighbors with an RB challenge every 0.5 seconds, removing from its
list of neighbors those IDs that fail to provide a solution within a
fixed time period.  These tests are not coordinated between IDs."
(Section 10.1.)

Cost model: a recurring-challenge defense
(:class:`~repro.baselines.recurring.RecurringChallengeDefense`) whose
fee per test period is ``tests_per_period`` challenges per ID (one
aggregate challenge from its neighborhood by default).  The adversary's
spend rate T therefore sustains a standing Sybil population of about
``T · period / tests_per_period``.

SybilControl never purges globally, so nothing bounds the bad fraction
once T is large relative to the good population: the experiment harness
cuts the curve off when the observed bad fraction reaches 1/6, matching
Figure 8's truncated SybilControl series.
"""

from __future__ import annotations

from repro.baselines.recurring import RecurringChallengeDefense


class SybilControl(RecurringChallengeDefense):
    """Join challenge + uncoordinated periodic neighbor tests."""

    name = "SybilControl"
    cycle_label = "sc-test"

    def __init__(
        self,
        test_period: float = 0.5,
        tests_per_period: float = 1.0,
    ) -> None:
        if test_period <= 0:
            raise ValueError(f"test period must be positive: {test_period}")
        super().__init__(test_period)
        self.tests_per_period = float(tests_per_period)

    def recurring_cost_rate_per_id(self) -> float:
        """Per-second recurring cost each standing ID must burn."""
        return self.tests_per_period / self.period

    def cycle_fee(self) -> float:
        return self.tests_per_period
