"""Tests for counters, time series, spend meters, and the join window."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    Counter,
    MetricSet,
    SlidingWindowCounter,
    SpendMeter,
    TimeSeries,
)


class TestCounter:
    def test_defaults_to_zero(self):
        assert Counter().get("missing") == 0

    def test_add_accumulates(self):
        counter = Counter()
        counter.add("joins")
        counter.add("joins", 4)
        assert counter.get("joins") == 5

    def test_as_dict_is_a_copy(self):
        counter = Counter()
        counter.add("x")
        snapshot = counter.as_dict()
        snapshot["x"] = 99
        assert counter.get("x") == 1


class TestTimeSeries:
    def test_record_and_read(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(2.0, 3.0)
        assert series.times.tolist() == [0.0, 2.0]
        assert series.values.tolist() == [1.0, 3.0]
        assert len(series) == 2

    def test_iter_yields_pairs(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(2.0, 3.0)
        assert list(series) == [(0.0, 1.0), (2.0, 3.0)]

    def test_buffer_growth_past_initial_capacity(self):
        series = TimeSeries("s")
        n = TimeSeries.INITIAL_CAPACITY * 4 + 3
        for i in range(n):
            series.record(float(i), float(i * 2))
        assert len(series) == n
        assert series.times.tolist() == [float(i) for i in range(n)]
        assert series.values[-1] == float((n - 1) * 2)
        assert series.max() == float((n - 1) * 2)

    def test_views_are_zero_copy(self):
        series = TimeSeries("s")
        series.record(1.0, 2.0)
        # The exposed views alias the live buffer (no per-read copy).
        assert series.times.base is series._times
        assert series.values.base is series._values

    def test_equal_times_allowed(self):
        series = TimeSeries("s")
        series.record(1.0, 2.0)
        series.record(1.0, 3.0)  # non-decreasing, not strictly increasing
        assert series.last() == 3.0
        assert series.last_time() == 1.0

    def test_rejects_out_of_order(self):
        series = TimeSeries("s")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError, match="time order"):
            series.record(4.0, 1.0)

    def test_min_max_last(self):
        series = TimeSeries("s")
        for t, v in [(0, 5.0), (1, 2.0), (2, 9.0)]:
            series.record(t, v)
        assert series.max() == 9.0
        assert series.min() == 2.0
        assert series.last() == 9.0

    def test_empty_stats_raise(self):
        with pytest.raises(ValueError, match="empty"):
            TimeSeries("s").max()

    def test_value_at_is_step_function(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        assert series.value_at(5.0) == 1.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(99.0) == 2.0

    def test_value_at_before_first_sample_raises(self):
        series = TimeSeries("s")
        series.record(1.0, 1.0)
        with pytest.raises(ValueError):
            series.value_at(0.5)


class TestSpendMeter:
    def test_accumulates_by_category(self):
        meter = SpendMeter("good")
        meter.charge(3.0, "entrance")
        meter.charge(2.0, "purge")
        meter.charge(1.0, "entrance")
        assert meter.total == 6.0
        assert meter.by_category() == {"entrance": 4.0, "purge": 2.0}

    def test_rate(self):
        meter = SpendMeter("good")
        meter.charge(100.0, "x")
        assert meter.rate(50.0) == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SpendMeter("m").charge(-1.0, "x")

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            SpendMeter("m").rate(0.0)


class TestSlidingWindowCounter:
    def test_counts_recent_events(self):
        window = SlidingWindowCounter(width=10.0)
        window.record(1.0)
        window.record(5.0)
        assert window.count(6.0) == 2

    def test_old_events_age_out(self):
        window = SlidingWindowCounter(width=10.0)
        window.record(1.0)
        window.record(5.0)
        assert window.count(11.5) == 1  # the t=1 event has aged out
        assert window.count(20.0) == 0

    def test_event_exactly_at_cutoff_excluded(self):
        window = SlidingWindowCounter(width=10.0)
        window.record(0.0)
        assert window.count(10.0) == 0  # window is (now-width, now]

    def test_batch_record(self):
        window = SlidingWindowCounter(width=5.0)
        window.record(1.0, count=100)
        window.record(2.0, count=50)
        assert window.count(3.0) == 150
        assert window.count(6.5) == 50

    def test_clear_sets_floor(self):
        window = SlidingWindowCounter(width=100.0)
        window.record(1.0)
        window.clear(5.0)
        assert window.count(6.0) == 0
        window.record(5.0)  # same instant as the clear still counts
        assert window.count(6.0) == 1

    def test_record_before_floor_raises(self):
        window = SlidingWindowCounter(width=10.0)
        window.clear(5.0)
        with pytest.raises(ValueError, match="floor"):
            window.record(4.0)

    def test_width_change(self):
        window = SlidingWindowCounter(width=10.0)
        window.record(1.0)
        window.set_width(2.0)
        assert window.count(5.0) == 0

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowCounter(width=0.0)
        window = SlidingWindowCounter(width=1.0)
        with pytest.raises(ValueError):
            window.set_width(-2.0)

    def test_batch_record_merges_same_instant(self):
        """record(now, n) at one instant is one deque batch, n counts."""
        window = SlidingWindowCounter(width=10.0)
        window.record(3.0, count=4)
        window.record(3.0, count=6)
        assert len(window._t) == 1
        assert window.count(3.0) == 10

    def test_batch_ages_out_atomically_at_cutoff(self):
        """A whole burst recorded at one time leaves the window together."""
        window = SlidingWindowCounter(width=10.0)
        window.record(0.0, count=1000)
        window.record(5.0, count=1)
        assert window.count(9.999) == 1001
        # Exactly at now - width the burst is excluded: (now-width, now].
        assert window.count(10.0) == 1
        assert window.count(15.0) == 0

    def test_batch_record_equals_repeated_singles(self):
        """record(now, n) must be indistinguishable from n record(now) calls
        at every window edge -- the batch hooks rely on this."""
        times = [0.0, 0.5, 0.5, 4.9, 5.0, 9.7]
        for probe in [0.0, 4.9, 5.0, 5.4999, 5.5, 9.9, 10.0, 14.7, 20.0]:
            b = SlidingWindowCounter(width=5.0)
            s = SlidingWindowCounter(width=5.0)
            for t in times:
                if t <= probe:
                    b.record(t, count=3)
                    for _ in range(3):
                        s.record(t)
            assert b.count(probe) == s.count(probe), probe

    def test_zero_count_batch_is_noop(self):
        window = SlidingWindowCounter(width=5.0)
        window.record(1.0, count=0)
        assert window.count(1.0) == 0
        assert len(window._t) == 0

    def test_batch_record_interacts_with_floor(self):
        """A clear() mid-stream drops earlier bursts but keeps same-instant
        ones, matching Ergo's iteration-boundary semantics."""
        window = SlidingWindowCounter(width=100.0)
        window.record(1.0, count=50)
        window.clear(5.0)
        window.record(5.0, count=7)
        assert window.count(6.0) == 7
        with pytest.raises(ValueError, match="floor"):
            window.record(4.0, count=2)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.5, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, raw_events, width):
        """Property: the batched counter equals a naive recount."""
        events = sorted(raw_events, key=lambda pair: pair[0])
        window = SlidingWindowCounter(width=width)
        for time, count in events:
            window.record(time, count)
        now = events[-1][0]
        expected = sum(c for t, c in events if now - width < t <= now)
        assert window.count(now) == expected


class TestSlidingWindowWidening:
    """Aged-out events must re-enter when the window widens.

    GoodJEst revising J̃ *downward* grows Ergo's window width 1/J̃; the
    old destructive-eviction counter had already discarded the batches a
    wider window should re-admit, permanently undercounting the
    entrance-cost quote.
    """

    def test_widening_readmits_aged_out_events(self):
        window = SlidingWindowCounter(width=5.0)
        window.record(0.0, count=10)
        window.record(8.0, count=1)
        # t=0 batch has aged out of the 5s window...
        assert window.count(8.0) == 1
        # ...but widening (estimate revised downward) re-admits it.
        window.set_width(10.0)
        assert window.count(8.0) == 11
        window.set_width(5.0)
        assert window.count(8.0) == 1

    def test_widening_after_repeated_counts(self):
        window = SlidingWindowCounter(width=1.0)
        for i in range(20):
            window.record(float(i))
            assert window.count(float(i)) == 1  # only the newest survives
        window.set_width(50.0)
        assert window.count(19.0) == 20

    def test_clear_resets_widened_window(self):
        window = SlidingWindowCounter(width=5.0)
        window.record(0.0, count=7)
        window.clear(10.0)
        window.set_width(100.0)
        assert window.count(10.0) == 0


class TestSlidingWindowBatchQuote:
    """quote_record_run == per-row count()+record() exactly."""

    def per_row(self, window, times):
        quotes = []
        for t in times:
            quotes.append(window.count(t))
            window.record(t)
        return quotes

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n_rows", [1, 5, 40])
    def test_matches_per_row_sequence(self, seed, n_rows):
        r = np.random.default_rng(seed)
        width = float(r.uniform(0.5, 5.0))
        prior = np.sort(r.uniform(0, 10, int(r.integers(0, 8))))
        times = np.sort(np.round(r.uniform(10, 20, n_rows), 1)).tolist()
        batched = SlidingWindowCounter(width=width)
        rowwise = SlidingWindowCounter(width=width)
        for t in prior:
            batched.record(float(t))
            rowwise.record(float(t))
        assert batched.quote_record_run(times) == self.per_row(rowwise, times)
        # Post-run state agrees too: later scalar queries see the run.
        for probe in (20.0, 21.5, 30.0):
            assert batched.count(probe) == rowwise.count(probe)

    def test_vector_and_scalar_paths_agree(self):
        times = [float(t) for t in np.sort(np.random.default_rng(3).uniform(0, 4, 40))]
        small = SlidingWindowCounter(width=1.0)
        large = SlidingWindowCounter(width=1.0)
        # Force the scalar path by feeding rows in sub-threshold chunks.
        quotes_scalar = []
        for i in range(0, 40, 4):
            quotes_scalar.extend(small.quote_record_run(times[i : i + 4]))
        quotes_vector = large.quote_record_run(times)
        assert quotes_scalar == quotes_vector

    def test_record_run_matches_records(self):
        a = SlidingWindowCounter(width=3.0)
        b = SlidingWindowCounter(width=3.0)
        times = [0.0, 1.0, 1.0, 2.5]
        a.record_run(times)
        for t in times:
            b.record(t)
        for probe in (2.5, 3.9, 4.0, 10.0):
            assert a.count(probe) == b.count(probe)

    def test_floor_enforced_on_runs(self):
        window = SlidingWindowCounter(width=3.0)
        window.clear(5.0)
        with pytest.raises(ValueError, match="floor"):
            window.quote_record_run([4.0, 6.0])
        with pytest.raises(ValueError, match="floor"):
            window.record_run([4.0, 6.0])


class TestTimeSeriesViewStaleness:
    """Resizes reallocate the buffers; held views must not be trusted."""

    def test_views_go_stale_after_resize(self):
        series = TimeSeries("s")
        n = TimeSeries.INITIAL_CAPACITY
        for i in range(n):
            series.record(float(i), float(i))
        held = series.values
        series.record(float(n), 999.0)  # triggers the doubling resize
        # The held view still aliases the *old* buffer: it cannot see
        # the new sample, which is why consumers must re-fetch.
        assert held.shape[0] == n
        assert series.values.shape[0] == n + 1
        assert held.base is not series._values

    def test_arrays_snapshot_is_stable(self):
        series = TimeSeries("s")
        for i in range(5):
            series.record(float(i), float(i * 2))
        times, values = series.arrays()
        for i in range(5, 200):
            series.record(float(i), float(i * 2))
        assert times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert values.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]
        # Snapshots are copies: mutating them cannot corrupt the series.
        values[:] = -1.0
        assert series.values[0] == 0.0

    def test_refetched_views_are_current(self):
        series = TimeSeries("s")
        for i in range(100):
            series.record(float(i), float(i))
        assert series.times.tolist() == [float(i) for i in range(100)]


class TestMetricSet:
    def test_rates(self):
        metrics = MetricSet()
        metrics.good.charge(10.0, "x")
        metrics.adversary.charge(40.0, "x")
        assert metrics.good_spend_rate(10.0) == 1.0
        assert metrics.adversary_spend_rate(10.0) == 4.0
