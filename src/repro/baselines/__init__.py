"""Baseline resource-burning Sybil defenses (Section 10.1).

* :class:`~repro.baselines.ccom.CCom` -- Ergo with flat entrance cost 1
  and no estimation component [98].
* :class:`~repro.baselines.recurring.RecurringChallengeDefense` -- a
  1-hard join challenge plus a recurring per-ID challenge every period;
  unfunded Sybils are evicted each cycle.  Two defenses differ only in
  the fee per ID per cycle:

  * :class:`~repro.baselines.sybilcontrol.SybilControl` -- uncoordinated
    periodic neighbor tests every 0.5 s [67];
  * :class:`~repro.baselines.remp.Remp` -- fees sized so that
    ``A = (1−κ)·T_max/κ`` (Equation 4 of [99] / Equation 13 of the
    paper).
"""

from repro.baselines.ccom import CCom
from repro.baselines.recurring import RecurringChallengeDefense
from repro.baselines.remp import Remp
from repro.baselines.sybilcontrol import SybilControl

__all__ = ["CCom", "RecurringChallengeDefense", "Remp", "SybilControl"]
