"""The membership arena against a naive reference set.

The arena only counts if it is *invisible*: per-row and batched
mutations must leave exactly the state a plain dict-and-list set would
hold, including the swap-remove order of the good list that seeded
``random_good`` draws index into, and the symmetric difference its
serial-watermark trackers report.  Randomized op scripts check this
against :class:`tests.reference_sim.NaiveMembership`; the simulations
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


def observe(m, rng):
    """The full observable projection of a membership set."""
    return {
        "size": m.size,
        "good_count": m.good_count,
        "bad_count": m.bad_count,
        "last_serial": m.last_serial,
        "good_ids": m.good_ids(),
        "all_ids": m.all_ids(),
        "bad_ids": sorted(m.bad_ids()),
        "bad_fraction": m.bad_fraction(),
        "sym_diff": m.sym_diff("t"),
        "draws": [m.random_good(rng) for _ in range(5)],
        "members": sorted(
            (mm.ident, mm.is_good, mm.joined_at, mm.serial)
            for mm in m.members()
        ),
    }


def apply_script(script, batched: bool):
    """Run an op script against a fresh arena; return observables."""
    m = ArenaMembershipSet()
    m.attach_tracker("t", SymmetricDifferenceTracker())
    for op, payload in script:
        if op == "add":
            idents, times = payload
            if batched:
                m.add_batch(idents, True, times)
            else:
                for ident, t in zip(idents, times):
                    m.add(ident, True, t)
        elif op == "add_bad":
            idents, times = payload
            if batched:
                m.add_batch(idents, False, times)
            else:
                for ident, t in zip(idents, times):
                    m.add(ident, False, t)
        elif op == "remove":
            if batched:
                m.remove_batch(payload)
            else:
                for ident in payload:
                    m.remove(ident)
        elif op == "reset":
            m.reset_tracker("t")
    rng = np.random.default_rng(42)
    return observe(m, rng)


def apply_naive(script):
    """The same op script against the naive reference set."""
    m = NaiveMembership()
    for op, payload in script:
        if op in ("add", "add_bad"):
            for ident, t in zip(*payload):
                m.add(ident, op == "add", t)
        elif op == "remove":
            for ident in payload:
                m.remove(ident)
        elif op == "reset":
            m.reset()
    return m.observe(np.random.default_rng(42))


def random_script(seed: int):
    """A collision-heavy random op script (adds, removes, resets)."""
    r = np.random.default_rng(seed)
    script = []
    alive = []
    counter = 0
    t = 0.0
    for _ in range(int(r.integers(3, 12))):
        op = int(r.integers(0, 4))
        if op in (0, 1) or not alive:
            k = int(r.integers(1, 9))
            idents = [f"x{counter + i}" for i in range(k)]
            counter += k
            times = [t + 0.1 * i for i in range(k)]
            t += 0.1 * k
            kind = "add" if op == 0 or not alive else "add_bad"
            script.append((kind, (idents, times)))
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


class TestScriptEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_backends_and_batching_agree(self, seed):
        script = random_script(seed)
        reference = apply_naive(script)
        assert apply_script(script, batched=False) == reference
        assert apply_script(script, batched=True) == reference

    def test_arena_recycles_slots(self):
        m = ArenaMembershipSet()
        m.add_batch([f"a{i}" for i in range(10)], True, [0.0] * 10)
        m.remove_batch([f"a{i}" for i in range(10)])
        m.add_batch([f"b{i}" for i in range(10)], True, [1.0] * 10)
        # Recycled slots: the backing arrays did not grow past 10.
        assert len(m._idents) == 10
        assert m.size == 10
        assert m.good_ids() == [f"b{i}" for i in range(10)]

    def test_add_batch_rejects_duplicates(self):
        m = ArenaMembershipSet()
        m.add("dup", True, 0.0)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_batch(["fresh", "dup"], True, [1.0, 1.0])

    @pytest.mark.parametrize(
        "batch",
        [["a", "b", "x"], ["a", "b", "a"], ["x"]],
        ids=["clashes-with-member", "repeats-within-run", "single-row-clash"],
    )
    def test_rejected_add_batch_changes_nothing(self, batch):
        m = ArenaMembershipSet()
        m.add_batch(["w", "x"], True, [0.0, 0.5])
        m.attach_tracker("t", SymmetricDifferenceTracker())
        m.remove("w")

        def state():
            tr = m.tracker("t")
            return (
                len(m),
                m.all_ids(),
                m.last_serial,
                tr.symmetric_difference,
                tr.joined_since_snapshot,
                tr.departed_from_snapshot,
            )

        before = state()
        with pytest.raises(ValueError, match="duplicate"):
            m.add_batch(batch, True, [1.0] * len(batch))
        assert state() == before
        # The set is still usable: the rejected idents were not reserved.
        m.add_batch(["a", "b"], True, [2.0, 2.0])
        assert m.all_ids() == ["x", "a", "b"]

    def test_remove_batch_returns_removed_count(self):
        m = ArenaMembershipSet()
        m.add_batch(["a", "b", "c"], True, [0.0, 0.0, 0.0])
        assert m.remove_batch(["a", "ghost", "c"]) == 2
        assert m.good_ids() == ["b"]

    def test_discard_matches_remove(self):
        m = ArenaMembershipSet()
        m.add("a", True, 0.0)
        assert m.discard("a") is True
        assert m.discard("a") is False
        assert "a" not in m
