"""The abstract ``Defense`` interface.

A defense is the server-side protocol of Section 2: it learns about
every join and departure, issues resource-burning challenges, and
maintains the membership set.  The simulation engine calls the
``process_*`` methods for trace events; the adversary calls
``quote_entrance_cost`` / ``process_bad_join_batch`` to inject Sybil
IDs, paying whatever the defense demands.

Implementations: :class:`repro.core.ergo.Ergo` (and its heuristic
variants), :class:`repro.baselines.ccom.CCom`,
:class:`repro.baselines.sybilcontrol.SybilControl`,
:class:`repro.baselines.remp.Remp` (both
:class:`repro.baselines.recurring.RecurringChallengeDefense`), and the
estimation-only harness in :mod:`repro.experiments.estimation`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.core.population import SystemPopulation
from repro.identity.ids import IdentityFactory
from repro.rb.ledger import CostAccountant
from repro.sim.tracing import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.base import Adversary
    from repro.sim.engine import Simulation


class Defense(abc.ABC):
    """Base class wiring a defense into the simulation."""

    #: Human-readable algorithm name (used in reports and RNG streams).
    name = "abstract"

    def __init__(self) -> None:
        self.sim: Optional["Simulation"] = None
        self.population = SystemPopulation()
        self.ids = IdentityFactory()
        self.accountant: Optional[CostAccountant] = None
        self._adversary: Optional["Adversary"] = None
        self._rng = None
        #: Highest bad fraction ever observed (engine samples can miss
        #: instantaneous spikes between joins and evictions).
        self.peak_bad_fraction = 0.0
        #: Structured protocol trace; disabled by default (zero cost
        #: beyond one check per emit).  Enable with ``tracer.enabled``.
        self.tracer = TraceRecorder(enabled=False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, sim: "Simulation") -> None:
        """Attach to a simulation (engine calls this once)."""
        self.sim = sim
        self.accountant = CostAccountant(sim.metrics)
        self._rng = sim.rngs.stream(f"defense.{self.name}")
        self.configure()

    def configure(self) -> None:
        """Subclass hook run at bind time (set up trackers, callbacks)."""

    def register_adversary(self, adversary: "Adversary") -> None:
        self._adversary = adversary

    @property
    def now(self) -> float:
        return self.sim.clock.now

    def bootstrap(self, idents: Sequence[str]) -> range:
        """Initialize membership with IDs that solved a 1-hard challenge.

        "The server initializes system membership with all IDs that
        solve a 1-hard RB challenge." (Section 7.)  Each initial good ID
        named in ``idents`` is issued an ident and charged 1; returns
        the issued idents, in ``idents`` order.
        """
        issued = self.ids.issue_batch(len(idents))
        for ident in issued:
            self.population.good_join(ident)
            self.accountant.charge_good(1.0, category="init")
        self.after_bootstrap(len(issued))
        return issued

    def after_bootstrap(self, count: int) -> None:
        """Subclass hook run after initial membership is in place."""

    # ------------------------------------------------------------------
    # engine-facing event processing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def process_good_join(self, ident: Optional[str] = None) -> Optional[int]:
        """Handle a good ID's join attempt.

        ``ident`` is the name the joiner proposed (``None`` if it chose
        none); it is a label only.  Returns the admitted ID's unique
        ``int`` ident from :attr:`ids`, or ``None`` if the joiner was not
        admitted.
        """

    @abc.abstractmethod
    def process_good_departure(self, ident: Optional[int] = None) -> Optional[int]:
        """Handle a good departure.

        ``ident`` is an issued ``int`` ident (0, never issued, names no
        member); ``ident=None`` means the victim is selected uniformly at
        random from the good IDs (the ABC model's rule).  Returns the ID
        that actually departed, or ``None`` if no such ID was present.
        """

    def process_bad_departure(self, ident: str) -> None:
        """Adversary-scheduled departure of one of its IDs (aggregate)."""
        self.population.bad.evict_newest(1)

    def process_bad_departure_batch(self, count: int) -> int:
        """Withdraw up to ``count`` bad IDs at the current instant.

        The block form of :meth:`process_bad_departure`: a scheduled
        Sybil mass exodus (:class:`repro.sim.events.BadDepartureBatch`)
        or a flapping attack's window-close withdrawal arrives as one
        call instead of ``count`` per-object events.  The default
        aggregates only when the per-ID hook is the base implementation
        (a bare ``evict_newest(1)``, for which one ``evict_newest(count)``
        is exactly equivalent); defenses that override the per-ID hook
        with extra bookkeeping get a faithful per-ID loop unless they
        also override this batch hook with something provably
        equivalent.

        Returns the number of departures the schedule *delivered* (calls
        that found a standing Sybil to withdraw) -- capped by the live
        population, and never counting IDs a defense mechanism (e.g. a
        purge tripped by the departure bookkeeping) evicted as a side
        effect; those are already tallied by the defense's own counters.
        """
        if count <= 0:
            return 0
        if type(self).process_bad_departure is Defense.process_bad_departure:
            return self.population.bad.evict_newest(count)
        delivered = 0
        for _ in range(count):
            if self.population.bad_count == 0:
                break
            self.process_bad_departure("")
            delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # batch hooks (the engine's zero-heap fast path)
    # ------------------------------------------------------------------
    # The engine hands runs of good-churn rows to these hooks instead of
    # dispatching one event at a time.  Contract:
    #
    # * Runs are non-empty (the engine never passes an empty one).
    # * ``times`` is non-decreasing and every row precedes the next heap
    #   event, the adversary's wake time, and the next metrics sample --
    #   nothing else happens "inside" a batch.
    # * The defaults loop over the per-ID hooks, advancing the clock to
    #   each row's time, so overriding is purely an optimization.
    # * An override MUST be observably equivalent to that loop (same
    #   charges, same population mutations in the same order, same
    #   purge/iteration decisions); it may only amortize work whose
    #   per-row result is provably unchanged -- e.g. skipping a
    #   peak-bad-fraction check while the fraction is monotone across
    #   the run, or merging same-time SlidingWindowCounter records.
    #   tests/test_engine_fastpath.py enforces this against a naive
    #   per-event simulator that calls only the per-ID hooks.

    def process_good_join_batch(self, times, idents=None) -> list:
        """Handle a time-sorted run of good join attempts.

        ``idents`` is a parallel sequence of proposed names (``None``
        entries -- or ``idents=None`` for the whole run -- mean the
        joiner proposed none); names are labels the hooks may log but
        never store.  Returns one admitted ``int`` ident (or ``None`` if
        refused) per row; the engine schedules session departures for
        the admitted ones.  An override that admits every row may return
        the ``range`` it issued.
        """
        clock = self.sim.clock
        join = self.process_good_join
        admitted = []
        append = admitted.append
        if idents is None:
            for t in times:
                clock._now = t
                append(join(None))
        else:
            for t, ident in zip(times, idents):
                clock._now = t
                append(join(ident))
        return admitted

    def process_good_departure_batch(self, times, idents=None) -> None:
        """Handle a time-sorted run of good departures.

        ``idents`` holds issued ``int`` idents; entries of ``None`` (or
        ``idents=None``) select the victim uniformly at random, as in the
        per-ID hook.
        """
        clock = self.sim.clock
        depart = self.process_good_departure
        if idents is None:
            for t in times:
                clock._now = t
                depart(None)
        else:
            for t, ident in zip(times, idents):
                clock._now = t
                depart(ident)

    # -- shared override body for select-and-remove departures ----------
    def _removal_departure_batch(self, times, idents=None) -> None:
        """Batched departures by direct membership removal.

        Observably equivalent to the default loop for any defense whose
        ``process_good_departure`` is select-victim + remove with no
        other bookkeeping: a named victim that already left is a no-op
        either way, and unnamed victims fall back to the per-ID hook so
        the uniform random draw order matches the per-ID loop.  Fully
        named runs (the engine's session-departure drains) go through
        ``ArenaMembershipSet.remove_batch`` in one call.
        """
        if idents is None:
            Defense.process_good_departure_batch(self, times, idents)
            return
        if None in idents:
            clock = self.sim.clock
            remove = self.population.good.discard
            depart = self.process_good_departure
            for t, ident in zip(times, idents):
                if ident is None:
                    clock._now = t
                    depart(None)
                else:
                    remove(ident)
            return
        self.population.good.remove_batch(idents)

    def on_tick(self, now: float) -> None:
        """Periodic housekeeping (default: none)."""

    # ------------------------------------------------------------------
    # adversary-facing API
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def quote_entrance_cost(self) -> float:
        """The RB hardness the next joiner must pay right now."""

    @abc.abstractmethod
    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        """Admit as many Sybil joins as ``budget`` affords right now.

        The defense charges the adversary for every join *attempt* (the
        challenge is solved before any admission decision) and handles
        any purges the joins trigger.  Returns ``(attempted, total_cost)``
        so the adversary can decrement its budget; ``attempted`` may
        exceed the number of IDs actually admitted when a classifier
        refuses entries (ERGO-SF).
        """

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def system_size(self) -> int:
        return self.population.size

    def good_count(self) -> int:
        return self.population.good_count

    def bad_count(self) -> int:
        return self.population.bad_count

    def bad_fraction(self) -> float:
        return self.population.bad_fraction()

    def _observe_fraction(self) -> None:
        fraction = self.population.bad_fraction()
        if fraction > self.peak_bad_fraction:
            self.peak_bad_fraction = fraction

    def _select_departing_good(self, ident: Optional[int]) -> Optional[int]:
        """Resolve which good ID departs (u.a.r. when unspecified)."""
        if ident is None:
            return self.population.random_good(self._rng)
        if ident in self.population.good:
            return ident
        # The ID already left (e.g. chosen earlier as a u.a.r. victim);
        # a departure of an absent ID is a no-op, not an error.
        return None
