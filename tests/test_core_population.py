"""Tests for the aggregate bad population and the combined view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.population import AggregateBadPopulation, SystemPopulation


class TestAggregateBadPopulation:
    def test_join_and_total(self):
        bad = AggregateBadPopulation()
        bad.join(5)
        bad.join(3)
        assert bad.total == 8

    def test_evict_oldest_order(self):
        bad = AggregateBadPopulation()
        bad.join(5)
        bad.join(5)
        assert bad.evict_oldest(7) == 7
        assert bad.total == 3
        assert bad.cohort_count == 1  # only the newer cohort remains

    def test_evict_newest_order(self):
        bad = AggregateBadPopulation()
        bad.join(5)
        bad.join(5)
        assert bad.evict_newest(7) == 7
        assert bad.total == 3

    def test_evict_more_than_present(self):
        bad = AggregateBadPopulation()
        bad.join(3)
        assert bad.evict_oldest(10) == 3
        assert bad.total == 0

    def test_evict_all(self):
        bad = AggregateBadPopulation()
        bad.join(4)
        assert bad.evict_all() == 4
        assert bad.total == 0

    def test_negative_join_rejected(self):
        with pytest.raises(ValueError):
            AggregateBadPopulation().join(-1)

    def test_sym_diff_new_joins(self):
        bad = AggregateBadPopulation()
        bad.join(2)
        bad.attach_tracker("t")
        bad.join(5)
        assert bad.sym_diff("t") == 5

    def test_sym_diff_join_then_evict_cancels(self):
        """Post-snapshot Sybils that purge out cancel from the diff."""
        bad = AggregateBadPopulation()
        bad.join(2)
        bad.attach_tracker("t")
        bad.join(5)
        bad.evict_newest(5)
        assert bad.sym_diff("t") == 0

    def test_sym_diff_snapshot_member_departs(self):
        bad = AggregateBadPopulation()
        bad.join(4)
        bad.attach_tracker("t")
        bad.evict_oldest(3)
        assert bad.sym_diff("t") == 3

    def test_purge_all_counts_snapshot_members_once(self):
        bad = AggregateBadPopulation()
        bad.join(4)
        bad.attach_tracker("t")
        bad.join(6)
        bad.evict_all()
        # 4 snapshot members departed; the 6 new ones cancel.
        assert bad.sym_diff("t") == 4

    def test_reset_tracker(self):
        bad = AggregateBadPopulation()
        bad.join(4)
        bad.attach_tracker("t")
        bad.join(2)
        bad.reset_tracker("t")
        assert bad.sym_diff("t") == 0
        bad.evict_oldest(1)
        assert bad.sym_diff("t") == 1

    def test_same_instant_join_after_reset_is_new(self):
        """Serial ordering: a join after a reset belongs to the
        post-snapshot era, even at the reset's instant."""
        bad = AggregateBadPopulation()
        bad.join(3)
        bad.attach_tracker("t")
        bad.reset_tracker("t")
        bad.join(2)  # after the reset: a later serial
        assert bad.sym_diff("t") == 2
        bad.evict_newest(2)
        assert bad.sym_diff("t") == 0

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2),
                      st.integers(min_value=1, max_value=9)),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_multiset(self, ops):
        """Property: cohort arithmetic == explicit per-ID simulation.

        op 0 = join k Sybils; op 1 = evict k oldest; op 2 = evict k newest.
        """
        bad = AggregateBadPopulation()
        explicit = []  # list of serial numbers, oldest first
        serial = 0
        # Seed a pre-snapshot population.
        bad.join(5)
        explicit.extend(range(5))
        serial = 5
        bad.attach_tracker("t")
        snapshot = set(explicit)
        step = 0
        for op, k in ops:
            step += 1
            if op == 0:
                bad.join(k)
                explicit.extend(range(serial, serial + k))
                serial += k
            elif op == 1:
                bad.evict_oldest(k)
                del explicit[:k]
            else:
                bad.evict_newest(k)
                if k >= len(explicit):
                    explicit.clear()
                else:
                    del explicit[len(explicit) - k:]
            assert bad.total == len(explicit)
            expected = len(set(explicit) ^ snapshot)
            assert bad.sym_diff("t") == expected


class TestSystemPopulation:
    def test_combined_counts(self):
        population = SystemPopulation()
        population.good_join(1)
        population.bad_join(3)
        assert population.size == 4
        assert population.good_count == 1
        assert population.bad_count == 3
        assert population.bad_fraction() == pytest.approx(0.75)

    def test_empty_fraction(self):
        assert SystemPopulation().bad_fraction() == 0.0

    def test_combined_sym_diff_spans_both_sides(self):
        population = SystemPopulation()
        population.good_join(1)
        population.bad_join(2)
        population.attach_combined_tracker("t")
        population.good_join(2)
        population.bad_join(3)
        population.good_depart(1)
        assert population.combined_sym_diff("t") == 5  # g2 + 3 bad + g1 gone

    def test_reset_combined(self):
        population = SystemPopulation()
        population.good_join(1)
        population.attach_combined_tracker("t")
        population.good_join(2)
        population.bad_join(1)
        population.reset_combined_tracker("t")
        assert population.combined_sym_diff("t") == 0

    def test_random_good_ignores_bad(self):
        population = SystemPopulation()
        population.good_join(1)
        population.bad_join(100)
        rng = np.random.default_rng(1)
        assert population.random_good(rng) == 1

    def test_good_depart_missing(self):
        population = SystemPopulation()
        assert population.good_depart(1) is False
