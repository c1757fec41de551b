"""Deliberately naive references the fast paths are checked against.

:class:`ReferenceSimulation` is the per-event simulation whose order the
engine's block fast path (:meth:`repro.sim.engine.Simulation.run`)
claims to reproduce, written to be obviously correct rather than fast:

* a lazy single-event churn pump admits every pending churn event due at
  or before ``min(heap top, horizon)`` into the heap;
* the loop pops one heap entry per event, lets the adversary act when
  its ``next_wake`` has come, dispatches the entry, and samples;
* every good join and departure -- session departures included -- goes
  through the defense's per-event hooks (``process_good_join`` /
  ``process_good_departure``), never the batch hooks.

Bootstrap, tick arming, the non-churn handlers and the summary are
borrowed from :class:`~repro.sim.engine.Simulation`; the loop is its
own and does no batching.

:class:`NaiveMembership` plays the same role for
:class:`~repro.identity.membership.ArenaMembershipSet`: a dict, a
swap-remove good list, and set snapshots for the symmetric difference
(no serial watermarks).
"""

from repro.sim.blocks import flatten_churn
from repro.sim.engine import Simulation
from repro.sim.events import GoodDeparture, GoodJoin


class ReferenceSimulation(Simulation):
    """One heap pop per event; same constructor and result as the engine."""

    def run(self):
        horizon = self.config.horizon
        queue, clock, adversary = self.queue, self.clock, self.adversary
        self._bootstrap()
        self._arm_tick()
        source = flatten_churn(self._churn)
        pending = next(source, None)
        wake = float("-inf")
        next_sample = 0.0
        while True:
            while pending is not None:
                top = queue.peek_time()
                bound = horizon if top is None else min(top, horizon)
                if pending.time > bound:
                    break
                queue.push(pending)
                pending = next(source, None)
            if not queue or queue.peek_time() > horizon:
                break
            now = queue.peek_time()
            item = queue.pop()
            clock.advance_to(now)
            if adversary is not None and now >= wake:
                adversary.act(now)
                wake = adversary.next_wake(now)
            self._apply(item, now)
            if now >= next_sample:
                self._sample_now()
                next_sample = now + self.config.sample_interval
        clock.advance_to(horizon)
        if adversary is not None and horizon >= wake:
            adversary.act(horizon)
        self._sample_now()
        return self._summarize()

    def _apply(self, item, now):
        defense = self.defense
        aliases, owners = self._trace_aliases, self._alias_owners
        if isinstance(item, GoodJoin):
            self._good_join_events += 1
            uid = defense.process_good_join(item.ident)
            if uid is None:
                return
            if item.ident is not None:
                aliases[item.ident] = uid
            if item.session is not None and now + item.session <= self.config.horizon:
                self.queue.push_departure(now + item.session, uid)
                if item.ident is not None:
                    owners[uid] = item.ident
        elif isinstance(item, GoodDeparture):
            self._good_departure_events += 1
            ident = item.ident
            defense.process_good_departure(
                None if ident is None else aliases.pop(ident, ident)
            )
        elif isinstance(item, str):  # a scheduled session departure
            self._good_departure_events += 1
            defense.process_good_departure(item)
            proposed = owners.pop(item, None)
            if proposed is not None and aliases.get(proposed) == item:
                del aliases[proposed]
        else:
            self._handler_for(type(item))(item, now)


class NaiveMembership:
    """Membership as a dict, a swap-remove good list and set snapshots."""

    def __init__(self):
        self.members = {}  # ident -> (is_good, joined_at, serial)
        self.good = []  # the order random_good indexes into
        self.serial = 0
        self.snapshot = set()

    def add(self, ident, is_good, now):
        assert ident not in self.members
        self.serial += 1
        self.members[ident] = (is_good, now, self.serial)
        if is_good:
            self.good.append(ident)

    def remove(self, ident):
        entry = self.members.pop(ident, None)
        if entry is not None and entry[0]:
            i = self.good.index(ident)
            self.good[i] = self.good[-1]
            self.good.pop()

    def reset(self):
        self.snapshot = set(self.members)

    def observe(self, rng):
        """The projection ``test_membership_backends.observe`` takes."""
        bad = sorted(i for i, entry in self.members.items() if not entry[0])
        return {
            "size": len(self.members),
            "good_count": len(self.good),
            "bad_count": len(bad),
            "last_serial": self.serial,
            "good_ids": list(self.good),
            "all_ids": list(self.members),
            "bad_ids": bad,
            "bad_fraction": len(bad) / len(self.members) if self.members else 0.0,
            "sym_diff": len(self.snapshot ^ set(self.members)),
            "draws": [
                self.good[int(rng.integers(0, len(self.good)))] if self.good else None
                for _ in range(5)
            ],
            "members": sorted((i, *entry) for i, entry in self.members.items()),
        }
