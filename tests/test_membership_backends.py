"""The membership table against a naive reference set.

The table only counts if it is *invisible*: per-row and batched
mutations must leave exactly the state a plain swap-remove list would
hold, including the order that seeded ``random_good`` draws index into,
and the symmetric difference its serial-watermark trackers report.
Randomized and fixed op scripts check this against
:class:`tests.reference_sim.NaiveMembership`; the simulations
built on top are checked against the per-event reference engine in
``test_engine_fastpath.py``.
"""

import numpy as np
import pytest

from repro.identity.membership import (
    ArenaMembershipSet,
    SymmetricDifferenceTracker,
)
from tests.reference_sim import NaiveMembership


def observe(m, rng, universe):
    """The full observable projection of a membership set."""
    return {
        "size": len(m),
        "last_serial": m.last_serial,
        "good_ids": m.good_ids(),
        "present": [ident for ident in universe if ident in m],
        "sym_diff": m.sym_diff("t"),
        "draws": [m.random_good(rng) for _ in range(5)],
    }


def added(script):
    """Every ident the script adds, in order."""
    return [ident for op, payload in script if op == "add" for ident in payload]


def apply_script(script, batched: bool):
    """Run an op script against a fresh table; return observables."""
    m = ArenaMembershipSet()
    m.attach_tracker("t", SymmetricDifferenceTracker())
    for op, payload in script:
        if op == "add":
            if batched:
                m.add_batch(payload)
            else:
                for ident in payload:
                    m.add(ident)
        elif op == "remove":
            if batched:
                m.remove_batch(payload)
            else:
                for ident in payload:
                    m.remove(ident)
        elif op == "reset":
            m.reset_tracker("t")
    return observe(m, np.random.default_rng(42), added(script))


def apply_naive(script):
    """The same op script against the naive reference set."""
    m = NaiveMembership()
    for op, payload in script:
        if op == "add":
            for ident in payload:
                m.add(ident)
        elif op == "remove":
            for ident in payload:
                m.remove(ident)
        elif op == "reset":
            m.reset()
    return m.observe(np.random.default_rng(42), added(script))


def random_script(seed: int):
    """A collision-heavy random op script (adds, removes, resets)."""
    r = np.random.default_rng(seed)
    script = []
    alive = []
    counter = 0
    for _ in range(int(r.integers(3, 12))):
        op = int(r.integers(0, 4))
        if op in (0, 1) or not alive:
            k = int(r.integers(1, 9))
            # A range, as the join hooks pass: the fixed scripts' lists
            # cover the general path.
            idents = range(counter + 1, counter + k + 1)
            counter += k
            script.append(("add", idents))
            alive.extend(idents)
        elif op == 2:
            k = min(int(r.integers(1, 7)), len(alive))
            victims = [
                alive.pop(int(r.integers(0, len(alive)))) for _ in range(k)
            ]
            # Include ident 0, never issued and so absent: a no-op.
            victims.append(0)
            script.append(("remove", victims))
        else:
            script.append(("reset", None))
    return script


#: Swap-remove edges a random script may miss.
FIXED_SCRIPTS = {
    "remove-last-position": [
        ("add", [1, 2, 3]),
        ("remove", [3]),
        ("add", [4, 5]),
        ("reset", None),
        ("remove", [5, 1]),
    ],
    "empty-then-refill": [
        ("add", [1, 2, 3]),
        ("reset", None),
        ("remove", [2, 1, 3]),
        ("add", [4, 5, 6]),
        ("remove", [5]),
    ],
    # Removing 1 moves 5 into position 0; the batch then removes it
    # from there, which moves 4 in.  The reset puts 1 before the
    # watermark and 5 after it, so the tracker sees which one left.
    "remove-member-swapped-into-hole": [
        ("add", [1, 2, 3, 4]),
        ("reset", None),
        ("add", [5]),
        ("remove", [1, 5, 2]),
        ("add", [6, 7]),
        ("remove", [3, 7]),
    ],
    "same-ident-twice-in-batch": [
        ("add", [1, 2, 3]),
        ("reset", None),
        ("remove", [2, 2, 1]),
        ("add", [4]),
    ],
}

SCRIPTS = [pytest.param(random_script(seed), id=str(seed)) for seed in range(20)]
SCRIPTS += [pytest.param(script, id=name) for name, script in FIXED_SCRIPTS.items()]


class TestScriptEquivalence:
    @pytest.mark.parametrize("script", SCRIPTS)
    def test_backends_and_batching_agree(self, script):
        reference = apply_naive(script)
        assert apply_script(script, batched=False) == reference
        assert apply_script(script, batched=True) == reference

    def test_add_batch_rejects_duplicates(self):
        m = ArenaMembershipSet()
        m.add(1)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_batch([2, 1])

    @pytest.mark.parametrize(
        "batch",
        [[3, 4, 2], [3, 4, 3], [2]],
        ids=["clashes-with-member", "repeats-within-run", "single-row-clash"],
    )
    def test_rejected_add_batch_changes_nothing(self, batch):
        m = ArenaMembershipSet()
        m.add_batch([1, 2])
        m.attach_tracker("t", SymmetricDifferenceTracker())
        m.remove(1)

        def state():
            tr = m.tracker("t")
            return (
                len(m),
                m.good_ids(),
                m.last_serial,
                tr.symmetric_difference,
                tr.joined_since_snapshot,
                tr.departed_from_snapshot,
            )

        before = state()
        with pytest.raises(ValueError, match="duplicate"):
            m.add_batch(batch)
        assert state() == before
        # The set is still usable: the rejected idents were not reserved.
        m.add_batch([3, 4])
        assert m.good_ids() == [2, 3, 4]

    def test_gaps_read_as_absent(self):
        # Refused joiners burn idents, so the members need not be
        # contiguous; the skipped idents behave as never added.
        m = ArenaMembershipSet()
        m.attach_tracker("t", SymmetricDifferenceTracker())
        m.add_batch(range(3, 5))
        m.add(8)
        m.add_batch([10, 12])
        assert m.good_ids() == [3, 4, 8, 10, 12]
        assert m.last_serial == 12
        assert [i for i in range(14) if i in m] == [3, 4, 8, 10, 12]
        m.reset_tracker("t")
        assert m.remove_batch([5, 8, 11, 0]) == 1
        assert m.discard(9) is False
        assert m.good_ids() == [3, 4, 12, 10]
        assert m.sym_diff("t") == 1

    def test_remove_batch_returns_removed_count(self):
        m = ArenaMembershipSet()
        m.add_batch([1, 2, 3])
        assert m.remove_batch([1, 99, 3]) == 2
        assert m.good_ids() == [2]

    def test_discard_matches_remove(self):
        m = ArenaMembershipSet()
        m.add(1)
        assert m.discard(1) is True
        assert m.discard(1) is False
        assert m.remove(1) is False
        assert 1 not in m
