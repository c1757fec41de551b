"""Ergo — "Entire by Rate of Good" (Figure 4).

    S(0) ← set of IDs that returned a valid solution to a 1-hard
           RB challenge;  J̃ maintained by GoodJEst in parallel.
    For each iteration:
      1. Each joining ID is assigned an RB challenge of hardness
         1 + (number of IDs that joined in the last 1/J̃ seconds of the
         current iteration).
      2. When the number of joining and departing IDs in this iteration
         exceeds |S(τ)|/11, perform a purge: issue all IDs a 1-hard
         challenge and keep exactly those that solve it within 1 round.

The entrance cost approximates the ratio of the total join rate to the
good join rate (Section 7.1): during a flood, the x-th joiner inside one
``1/J̃`` window pays ``x + 1``, so an adversary injecting ``x`` IDs per
window pays Θ(x²) while the good ID arriving in the same window pays
O(x) — the square-root asymmetry behind Theorem 1.

Purging bounds the bad fraction: right after a purge the adversary holds
at most a κ-fraction of the IDs (it can only solve a κ-fraction of the
challenges in one round), and an iteration ends before the fraction can
climb past 3κ ≤ 1/6 (Lemma 9).

This implementation also hosts the Section 10.3 heuristics, switched on
through :class:`ErgoConfig` (see :mod:`repro.core.heuristics` for the
named variants):

* **Heuristic 1** (``align_estimate_with_purge``): GoodJEst updates are
  deferred to just after the purge, when at most a κ-fraction of
  membership is bad.
* **Heuristic 2** (``purge_trigger="symdiff"``): iterations are
  delineated by the symmetric difference ``|S(τ) △ S(τ')| ≥ |S(τ)|/11``
  instead of the raw join+departure count, so an adversary cheaply
  joining and departing the same ID cannot force purges.
* **Heuristic 3** (``purge_gate_c``): when the purge condition trips,
  the purge is skipped if the iteration's total join rate is at most
  ``c`` times the estimate from the prior iteration (joins are in line
  with expectation, so there is no excess of bad IDs to flush).  This
  heuristic can violate correctness when ``c < α`` (Section 10.3).
* **Heuristic 4** (``classifier``): every joining ID is classified
  after paying its challenge; IDs classified bad are refused entry
  (ERGO-SF).  Refused good IDs retry; refused bad IDs cost the
  adversary their entrance fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.goodjest import GoodJEst
from repro.core.protocol import Defense
from repro.sim.metrics import SlidingWindowCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.classifier.base import Classifier


@dataclass
class ErgoConfig:
    """Tunable parameters of Ergo (defaults follow the paper)."""

    #: Adversary's fraction of the RB resource; Theorem 1 needs κ ≤ 1/18.
    kappa: float = 1.0 / 18.0
    #: Iteration ends once joins+departures reach this fraction of |S(τ)|.
    purge_fraction: float = 1.0 / 11.0
    #: GoodJEst interval threshold (Figure 5).
    goodjest_threshold: float = 5.0 / 12.0
    #: Seconds taken by system initialization (one round of challenges).
    initialization_duration: float = 1.0
    #: Cap on the entrance-cost window width 1/J̃ (guards a ~zero estimate).
    max_window_width: float = 1.0e7
    #: "count" (Figure 4) or "symdiff" (Heuristic 2).
    purge_trigger: str = "count"
    #: Heuristic 1: apply GoodJEst updates right after purges.
    align_estimate_with_purge: bool = False
    #: Heuristic 3: skip a purge when join rate ≤ c · (previous estimate).
    purge_gate_c: Optional[float] = None
    #: Heuristic 4: classifier gating entry (ERGO-SF); ``None`` disables.
    classifier: Optional["Classifier"] = None
    #: Retry budget for good joiners refused by the classifier.
    max_good_retries: int = 25
    #: Fail fast if the bad fraction ever reaches 3κ (tests set this).
    paranoid: bool = False

    def __post_init__(self) -> None:
        if self.purge_trigger not in ("count", "symdiff"):
            raise ValueError(f"unknown purge trigger: {self.purge_trigger!r}")
        if not 0 < self.kappa < 1:
            raise ValueError(f"kappa must be in (0, 1): {self.kappa}")
        if not 0 < self.purge_fraction < 1:
            raise ValueError(f"purge fraction must be in (0,1): {self.purge_fraction}")


class Ergo(Defense):
    """The Ergo defense, coordinated by a single server (Section 7).

    Section 12's committee-based deployment wraps this same logic; see
    :mod:`repro.committee.decentralized`.
    """

    name = "ERGO"
    #: Name of the population tracker delineating iterations (Heuristic 2).
    ITER_TRACKER = "iteration"

    def __init__(self, config: Optional[ErgoConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else ErgoConfig()
        self.goodjest = GoodJEst(
            self.population,
            threshold=self.config.goodjest_threshold,
            defer_updates=self.config.align_estimate_with_purge,
        )
        self.population.attach_combined_tracker(self.ITER_TRACKER)
        self._window: Optional[SlidingWindowCounter] = None
        # -- iteration state (valid after bootstrap) --
        self._iter_start_time = 0.0
        self._iter_start_size = 0
        self._iter_threshold = 1
        self._event_counter = 0
        self._joins_in_iter = 0
        self._estimate_at_iter_start = 0.0
        # -- lifetime statistics --
        self.purge_count = 0
        self.purges_skipped = 0
        self.iteration_count = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def after_bootstrap(self, count: int) -> None:
        self.goodjest.initialize(
            self.now, initialization_duration=self.config.initialization_duration
        )
        # max_width bounds how far a later estimate revision can widen
        # the window (1/J̃ is capped at max_window_width), which lets the
        # counter prune batches no representable window can reach while
        # still re-admitting aged batches on widening.
        self._window = SlidingWindowCounter(
            self._window_width(), max_width=self.config.max_window_width
        )
        self._start_iteration(self.now)

    def _window_width(self) -> float:
        estimate = self.goodjest.estimate
        if estimate <= 0:
            return self.config.max_window_width
        return min(1.0 / estimate, self.config.max_window_width)

    def _start_iteration(self, now: float) -> None:
        self._iter_start_time = now
        self._iter_start_size = self.population.size
        self._iter_threshold = max(
            1, math.ceil(self._iter_start_size * self.config.purge_fraction)
        )
        self._event_counter = 0
        self._joins_in_iter = 0
        self._estimate_at_iter_start = self.goodjest.estimate
        self.population.reset_combined_tracker(self.ITER_TRACKER)
        self._window.clear(now)
        self.iteration_count += 1

    # ------------------------------------------------------------------
    # entrance cost (Figure 4, Step 1)
    # ------------------------------------------------------------------
    def quote_entrance_cost(self) -> float:
        return 1.0 + self._window.count(self.now)

    # ------------------------------------------------------------------
    # good events
    # ------------------------------------------------------------------
    def process_good_join(self, ident: Optional[str] = None) -> Optional[str]:
        classifier = self.config.classifier
        proposed = ident if ident is not None else "g"
        for _attempt in range(self.config.max_good_retries):
            cost = self.quote_entrance_cost()
            unique = self.ids.issue(proposed)
            self.accountant.charge_good(cost, category="entrance")
            if classifier is not None and not classifier.classify_good(self._rng):
                # Misclassified: refused entry despite paying; retry as a
                # fresh ID (Section 10.1, ERGO-SF).
                self.sim.metrics.counters.add("good_refused")
                continue
            self.population.good_join(unique)
            self._note_events(joins=1)
            return unique
        self.sim.metrics.counters.add("good_abandoned")
        return None

    def _batch_pricing(self):
        """How the vectorized join batch prices a run.

        ``"window"`` -- Ergo's own quote (``1 +`` sliding-window count),
        vectorized through ``SlidingWindowCounter.quote_record_run``.  A
        float -- a flat per-join cost (CCom overrides this to ``1.0``).
        ``None`` -- the subclass overrode :meth:`quote_entrance_cost`
        with something this class cannot vectorize; the batch hook falls
        back to the per-row loop, which prices through the virtual
        quote.
        """
        if type(self).quote_entrance_cost is Ergo.quote_entrance_cost:
            return "window"
        return None

    def process_good_join_batch(self, times, idents=None) -> list:
        """Batched good joins: whole-run pricing between protocol trips.

        Equivalent to looping :meth:`process_good_join` row by row --
        same charges, window records, GoodJEst updates, and purge
        decisions in the same order -- but executed in *chunks*: a chunk
        never extends past the row where the purge rule or GoodJEst's
        interval rule can trip (both advance by exactly one per join, so
        the trip row is computed in closed form), and inside a chunk the
        entire run is priced in one ``quote_record_run`` pass, named in
        one ``issue_batch``, charged in one float-exact ``charge_seq``,
        and admitted in one arena ``add_batch``.  The per-row checks
        being skipped are provably no-ops: ``on_event`` /
        ``_maybe_purge`` are pure reads until their trip row, and the
        per-row ``_observe_fraction`` is dropped because across a pure
        join run the bad fraction is non-increasing, so the pre-batch
        peak dominates every intermediate value.  Classifier runs
        (ERGO-SF) fall back to the generic loop, which handles retries;
        subclasses with custom quotes fall back to the per-row loop.
        """
        if self.config.classifier is not None:
            return super().process_good_join_batch(times, idents)
        pricing = self._batch_pricing()
        n = len(times)
        if pricing is None or n < 4:
            # Tiny runs (steady-state interleave cuts batches to a row
            # or two): the closed-form trip bounds cost more than the
            # per-row checks they elide.
            return self._join_batch_per_row(times, idents)
        clock = self.sim.clock
        window = self._window
        goodjest = self.goodjest
        accountant = self.accountant
        add_batch = self.population.good.add_batch
        issue = self.ids.issue
        admitted: list = []
        i = 0
        # Rows-to-trip distances survive across chunks (each join consumes
        # exactly one from each), so the closed-form bounds are computed
        # only at entry and after an actual trip -- and the per-row
        # ``on_event`` / ``_maybe_purge`` calls, pure reads before their
        # trip row, are elided entirely rather than replayed per chunk.
        until_purge = self._events_until_purge()
        until_jest = goodjest.joins_until_update()
        while i < n:
            k = n - i
            if until_purge < k:
                k = until_purge
            if until_jest < k:
                k = until_jest
            chunk = times[i : i + k]
            if pricing == "window":
                counts = window.quote_record_run(chunk)
                costs = [1.0 + c for c in counts]
            else:
                window.record_run(chunk)
                costs = [pricing] * k
            if idents is None:
                uniques = self.ids.issue_batch("g", k)
            else:
                uniques = [
                    issue(p if p is not None else "g")
                    for p in idents[i : i + k]
                ]
            accountant.charge_good_batch(costs, "entrance")
            add_batch(uniques)
            admitted += uniques
            self._joins_in_iter += k
            self._event_counter += k
            i += k
            until_purge -= k
            until_jest -= k
            if until_jest == 0 or until_purge == 0:
                last_t = chunk[-1]
                clock._now = last_t
                if until_jest == 0:
                    if goodjest.on_event(last_t):
                        window.set_width(self._window_width())
                        if self.tracer.enabled:
                            self.tracer.emit(
                                last_t,
                                "estimate_update",
                                estimate=goodjest.estimate,
                            )
                    until_jest = goodjest.joins_until_update()
                if until_purge == 0:
                    self._maybe_purge(last_t)
                    # The purge (or gated iteration reset) moved both
                    # the iteration counters and the population.
                    until_purge = self._events_until_purge()
                    until_jest = goodjest.joins_until_update()
        clock._now = times[n - 1]
        return admitted

    def _join_batch_per_row(self, times, idents=None) -> list:
        """The row-by-row batch body (virtual-quote subclasses)."""
        clock = self.sim.clock
        window = self._window
        issue = self.ids.issue
        charge = self.accountant.charge_good
        good_join = self.population.good_join
        goodjest = self.goodjest
        quote = self.quote_entrance_cost
        admitted = []
        append = admitted.append
        for i, t in enumerate(times):
            clock._now = t
            cost = quote()
            proposed = idents[i] if idents is not None else None
            unique = issue(proposed if proposed is not None else "g")
            charge(cost, "entrance")
            good_join(unique)
            window.record(t, 1)
            self._joins_in_iter += 1
            self._event_counter += 1
            if goodjest.on_event(t):
                window.set_width(self._window_width())
                if self.tracer.enabled:
                    self.tracer.emit(
                        t, "estimate_update", estimate=goodjest.estimate
                    )
            self._maybe_purge(t)
            append(unique)
        return admitted

    def process_good_departure_batch(self, times, idents=None) -> None:
        """Batched good departures: whole-run removals between trips.

        Fully named runs (the engine's session-departure drains) are
        removed through the arena's ``remove_batch`` in chunks bounded
        by the purge counter and GoodJEst's conservative departure
        bound, with the per-row machinery collapsed to one pass per
        chunk: the skipped ``on_event`` / ``_maybe_purge`` calls are
        pure reads before their trip row, and the bad fraction is
        non-decreasing across a pure good-departure run, so observing it
        once after the chunk captures the peak the per-row loop would
        have seen.  Runs containing anonymous victims fall back to the
        per-row hook to preserve the uniform random draw order.
        """
        n = len(times)
        if idents is None or n < 4 or None in idents:
            Defense.process_good_departure_batch(self, times, idents)
            return
        clock = self.sim.clock
        goodjest = self.goodjest
        remove_batch = self.population.good.remove_batch
        i = 0
        # Bounds consume one unit per *removal* (absent victims change
        # nothing); the departure bound is conservative, so hitting zero
        # re-checks exactly rather than guaranteeing a trip.
        until_purge = self._events_until_purge()
        until_jest = goodjest.departures_until_update_bound()
        while i < n:
            k = n - i
            if until_purge < k:
                k = until_purge
            if until_jest < k:
                k = until_jest
            removed = remove_batch(idents[i : i + k])
            i += k
            if removed:
                self._event_counter += removed
                self._observe_fraction()
                until_purge -= removed
                until_jest -= removed
                if until_jest == 0 or until_purge == 0:
                    last_t = times[i - 1]
                    clock._now = last_t
                    if until_jest == 0:
                        if goodjest.on_event(last_t):
                            self._window.set_width(self._window_width())
                            if self.tracer.enabled:
                                self.tracer.emit(
                                    last_t,
                                    "estimate_update",
                                    estimate=goodjest.estimate,
                                )
                        until_jest = goodjest.departures_until_update_bound()
                    if until_purge == 0:
                        self._maybe_purge(last_t)
                        until_purge = self._events_until_purge()
                        until_jest = goodjest.departures_until_update_bound()
        clock._now = times[n - 1]

    def process_good_departure(self, ident: Optional[str] = None) -> Optional[str]:
        victim = self._select_departing_good(ident)
        if victim is None:
            return None
        self.population.good_depart(victim)
        self._note_events(joins=0, departures=1)
        return victim

    def process_bad_departure(self, ident: str = "") -> None:
        removed = self.population.bad.evict_newest(1)
        if removed:
            # Even bad departures are detectable (heartbeats, §2.1.1) and
            # count toward the iteration's churn.
            self._note_events(joins=0, departures=removed)

    # ------------------------------------------------------------------
    # adversary joins (batched; see population module docstring)
    # ------------------------------------------------------------------
    def process_bad_join_batch(self, budget: float) -> Tuple[int, float]:
        classifier = self.config.classifier
        attempted_total = 0
        cost_total = 0.0
        remaining = float(budget)
        while True:
            window_count = self._window.count(self.now)
            # Size the batch with worst-case pricing (every attempt
            # admitted and congesting the window) so the realized cost
            # can never exceed the budget, whatever the classifier draws.
            attempts = self._max_affordable(window_count, remaining, 1.0)
            attempts = min(attempts, self._events_until_purge())
            if attempts <= 0:
                break
            if classifier is None:
                admitted = attempts
            else:
                admitted = classifier.admit_bad_batch(attempts, self._rng)
            # Admitted joiners raise the window count for later attempts;
            # with admissions evenly interleaved among the attempts the
            # congestion surcharge is admitted·(m−1)/2, which is at most
            # the worst case m(m−1)/2 used for sizing above.
            increments = admitted * (attempts - 1) / 2.0
            batch_cost = attempts * (1.0 + window_count) + increments
            self.accountant.charge_adversary(batch_cost, category="entrance")
            remaining -= batch_cost
            attempted_total += attempts
            cost_total += batch_cost
            if admitted > 0:
                self.population.bad_join(admitted, self.now)
                self._note_events(joins=admitted)
        return attempted_total, cost_total

    @staticmethod
    def _max_affordable(window_count: int, budget: float, admit_prob: float) -> int:
        """Largest m with m·(1+w) + p·m(m−1)/2 ≤ budget (expected cost)."""
        base = 1.0 + window_count
        if budget < base:
            return 0
        half_p = admit_prob / 2.0
        if half_p <= 0:
            return int(budget // base)
        # Solve half_p·m² + (base − half_p)·m − budget = 0 for m > 0.
        b_coef = base - half_p
        disc = b_coef * b_coef + 4.0 * half_p * budget
        m = int((math.sqrt(disc) - b_coef) / (2.0 * half_p))
        # Guard float slop: never exceed the budget.
        while m > 0 and m * base + half_p * m * (m - 1) > budget:
            m -= 1
        return m

    # ------------------------------------------------------------------
    # iteration bookkeeping and purges (Figure 4, Step 2)
    # ------------------------------------------------------------------
    def _note_events(self, joins: int, departures: int = 0) -> None:
        now = self.now
        if joins:
            self._window.record(now, joins)
            self._joins_in_iter += joins
        self._event_counter += joins + departures
        self._observe_fraction()
        if self.goodjest.on_event(now):
            self._window.set_width(self._window_width())
            if self.tracer.enabled:
                self.tracer.emit(
                    now, "estimate_update", estimate=self.goodjest.estimate
                )
        self._maybe_purge(now)

    def _iteration_progress(self) -> int:
        if self.config.purge_trigger == "count":
            return self._event_counter
        return self.population.combined_sym_diff(self.ITER_TRACKER)

    def _events_until_purge(self) -> int:
        return max(self._iter_threshold - self._iteration_progress(), 0)

    def _maybe_purge(self, now: float) -> bool:
        if self._iteration_progress() < self._iter_threshold:
            return False
        if self._purge_gated(now):
            self.purges_skipped += 1
            self.sim.metrics.counters.add("purges_skipped")
            self._finish_iteration(now)
            return False
        self._execute_purge(now)
        self._finish_iteration(now)
        return True

    def _purge_gated(self, now: float) -> bool:
        """Heuristic 3: skip the purge when joins match expectations.

        The gate only activates once GoodJEst has completed at least one
        interval: the bootstrap estimate (|S(0)| per initialization
        round) overstates the join rate by orders of magnitude, and
        gating against it would skip every purge while a slow Sybil
        drip accumulates past 1/6 -- exactly the correctness failure the
        paper warns about for c < α (Section 10.3).
        """
        c = self.config.purge_gate_c
        if c is None:
            return False
        if not self.goodjest.intervals:
            return False
        elapsed = max(now - self._iter_start_time, 1e-9)
        join_rate = self._joins_in_iter / elapsed
        return join_rate <= c * self._estimate_at_iter_start

    def _execute_purge(self, now: float) -> None:
        good_n = self.population.good_count
        # Every good ID answers the 1-hard challenge within the round.
        self.accountant.charge_good_bulk(good_n, 1.0, category="purge")
        bad_n = self.population.bad_count
        max_keep = int(self.config.kappa * self.population.size)
        kept = 0
        if self._adversary is not None and bad_n > 0 and max_keep > 0:
            kept = self._adversary.respond_to_purge(bad_n, max_keep, now)
            kept = max(0, min(kept, max_keep, bad_n))
        evicted = self.population.bad.evict_oldest(bad_n - kept)
        if kept > 0:
            self.accountant.charge_adversary(float(kept), category="purge")
        self.purge_count += 1
        self.sim.metrics.counters.add("purges")
        self.sim.metrics.counters.add("bad_purged", evicted)
        if self.tracer.enabled:
            self.tracer.emit(
                now,
                "purge",
                good=good_n,
                evicted=evicted,
                kept=kept,
                size=self.population.size,
            )

    def _finish_iteration(self, now: float) -> None:
        if self.goodjest.apply_deferred(now):
            self._window.set_width(self._window_width())
        if self.config.paranoid:
            from repro.core.defid import check_defid

            check_defid(self.population, self.config.kappa, now)
        self._start_iteration(now)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def estimate(self) -> float:
        """Current GoodJEst estimate J̃."""
        return self.goodjest.estimate

    def iteration_stats(self) -> dict:
        return {
            "iterations": self.iteration_count,
            "purges": self.purge_count,
            "purges_skipped": self.purges_skipped,
            "estimate": self.goodjest.estimate,
            "intervals": len(self.goodjest.intervals),
        }
