"""Tests for the membership set and symmetric-difference tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.identity.membership import ArenaMembershipSet, SymmetricDifferenceTracker


def make_set(*idents):
    membership = ArenaMembershipSet()
    for ident in idents:
        membership.add(ident)
    return membership


class TestMembershipBasics:
    def test_add_and_contains(self):
        membership = make_set("a", "b")
        assert "a" in membership
        assert "c" not in membership
        assert membership.size == 2

    def test_duplicate_add_rejected(self):
        membership = make_set("a")
        with pytest.raises(ValueError, match="duplicate"):
            membership.add("a")

    def test_remove_returns_true(self):
        membership = make_set("a")
        assert membership.remove("a") is True
        assert membership.size == 0

    def test_remove_missing_returns_false(self):
        assert make_set().remove("ghost") is False

    def test_id_lists(self):
        membership = make_set("a", "b", "c")
        assert membership.good_ids() == ["a", "b", "c"]
        membership.remove("a")  # swap-remove: the last ID fills the hole
        assert membership.good_ids() == ["c", "b"]


class TestRandomGood:
    def test_empty_returns_none(self):
        rng = np.random.default_rng(0)
        assert ArenaMembershipSet().random_good(rng) is None

    def test_selection_is_roughly_uniform(self):
        rng = np.random.default_rng(0)
        membership = make_set(*[f"g{i}" for i in range(4)])
        counts = {f"g{i}": 0 for i in range(4)}
        for _ in range(4000):
            counts[membership.random_good(rng)] += 1
        for count in counts.values():
            assert 800 < count < 1200  # expected 1000 each

    def test_swap_remove_keeps_selection_valid(self):
        rng = np.random.default_rng(0)
        membership = make_set("a", "b", "c", "d")
        membership.remove("b")
        picks = {membership.random_good(rng) for _ in range(100)}
        assert picks <= {"a", "c", "d"}


class TestSymmetricDifferenceTracker:
    def test_join_then_depart_cancels(self):
        """The Section 8.1 subtlety: quick join+depart moves nothing."""
        membership = make_set("old1", "old2")
        membership.attach_tracker("t", SymmetricDifferenceTracker())
        membership.add("new")
        assert membership.sym_diff("t") == 1
        membership.remove("new")
        assert membership.sym_diff("t") == 0

    def test_departure_of_snapshot_member_counts(self):
        membership = make_set("old1", "old2")
        membership.attach_tracker("t", SymmetricDifferenceTracker())
        membership.remove("old1")
        assert membership.sym_diff("t") == 1

    def test_replacement_counts_twice(self):
        membership = make_set("old1", "old2")
        membership.attach_tracker("t", SymmetricDifferenceTracker())
        membership.add("new")
        membership.remove("old1")
        assert membership.sym_diff("t") == 2

    def test_reset_zeroes_the_difference(self):
        membership = make_set("a", "b")
        membership.attach_tracker("t", SymmetricDifferenceTracker())
        membership.add("c")
        membership.remove("a")
        membership.reset_tracker("t")
        assert membership.sym_diff("t") == 0
        membership.remove("c")  # c is now a snapshot member
        assert membership.sym_diff("t") == 1

    def test_multiple_trackers_are_independent(self):
        membership = make_set("a")
        membership.attach_tracker("t1", SymmetricDifferenceTracker())
        membership.add("b")
        membership.attach_tracker("t2", SymmetricDifferenceTracker())
        membership.add("c")
        assert membership.sym_diff("t1") == 2
        assert membership.sym_diff("t2") == 1

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_set_computation(self, ops):
        """Property: O(1) watermark tracking == set-based |A △ B|.

        op 0 = join a fresh ID; op 1 = remove the oldest present ID;
        op 2 = remove the newest present ID.
        """
        membership = make_set(*[f"init{i}" for i in range(5)])
        membership.attach_tracker("t", SymmetricDifferenceTracker())
        snapshot = set(membership.good_ids())
        present = list(membership.good_ids())
        counter = 0
        for op in ops:
            if op == 0:
                counter += 1
                ident = f"x{counter}"
                membership.add(ident)
                present.append(ident)
            elif present:
                ident = present.pop(0) if op == 1 else present.pop()
                membership.remove(ident)
            expected = len(set(present) ^ snapshot)
            assert membership.sym_diff("t") == expected
