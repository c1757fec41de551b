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
            idents = [f"x{counter + i}" for i in range(k)]
            counter += k
            script.append(("add", idents))
            alive.extend(idents)
        elif op == 2:
            k = min(int(r.integers(1, 7)), len(alive))
            victims = [
                alive.pop(int(r.integers(0, len(alive)))) for _ in range(k)
            ]
            # Include an already-absent ident: must be a no-op.
            victims.append("ghost")
            script.append(("remove", victims))
        else:
            script.append(("reset", None))
    return script


#: Swap-remove edges a random script may miss.
FIXED_SCRIPTS = {
    "remove-last-position": [
        ("add", ["a", "b", "c"]),
        ("remove", ["c"]),
        ("add", ["d", "e"]),
        ("reset", None),
        ("remove", ["e", "a"]),
    ],
    "empty-then-refill": [
        ("add", ["a", "b", "c"]),
        ("reset", None),
        ("remove", ["b", "a", "c"]),
        ("add", ["d", "e", "f"]),
        ("remove", ["e"]),
    ],
    # Removing "a" moves "e" into position 0; the batch then removes it
    # from there, which moves "d" in.  The reset puts "a" before the
    # watermark and "e" after it, so the tracker sees which one left.
    "remove-member-swapped-into-hole": [
        ("add", ["a", "b", "c", "d"]),
        ("reset", None),
        ("add", ["e"]),
        ("remove", ["a", "e", "b"]),
        ("add", ["f", "g"]),
        ("remove", ["c", "g"]),
    ],
    "same-ident-twice-in-batch": [
        ("add", ["a", "b", "c"]),
        ("reset", None),
        ("remove", ["b", "b", "a"]),
        ("add", ["d"]),
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

    def test_arena_recycles_slots(self):
        m = ArenaMembershipSet()
        m.add_batch([f"a{i}" for i in range(10)])
        m.remove_batch([f"a{i}" for i in range(10)])
        m.add_batch([f"b{i}" for i in range(10)])
        # Freed positions are reused: the table did not grow past 10.
        assert len(m._idents) == 10
        assert m.size == 10
        assert m.good_ids() == [f"b{i}" for i in range(10)]

    def test_add_batch_rejects_duplicates(self):
        m = ArenaMembershipSet()
        m.add("dup")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_batch(["fresh", "dup"])

    @pytest.mark.parametrize(
        "batch",
        [["a", "b", "x"], ["a", "b", "a"], ["x"]],
        ids=["clashes-with-member", "repeats-within-run", "single-row-clash"],
    )
    def test_rejected_add_batch_changes_nothing(self, batch):
        m = ArenaMembershipSet()
        m.add_batch(["w", "x"])
        m.attach_tracker("t", SymmetricDifferenceTracker())
        m.remove("w")

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
        m.add_batch(["a", "b"])
        assert m.good_ids() == ["x", "a", "b"]

    def test_remove_batch_returns_removed_count(self):
        m = ArenaMembershipSet()
        m.add_batch(["a", "b", "c"])
        assert m.remove_batch(["a", "ghost", "c"]) == 2
        assert m.good_ids() == ["b"]

    def test_discard_matches_remove(self):
        m = ArenaMembershipSet()
        m.add("a")
        assert m.discard("a") is True
        assert m.discard("a") is False
        assert m.remove("a") is False
        assert "a" not in m
