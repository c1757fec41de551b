"""Tests for churn event generators."""

import numpy as np
import pytest

from repro.churn.generators import (
    diurnal_rate,
    modulated_join_blocks,
    poisson_join_blocks,
    smooth_trace,
)
from repro.churn.sessions import ExponentialSessions
from repro.sim.events import GoodDeparture, GoodJoin
from tests.reference_sim import expand_churn


def poisson_join_events(*args, **kwargs):
    return expand_churn(poisson_join_blocks(*args, **kwargs))


def modulated_join_events(*args, **kwargs):
    return expand_churn(modulated_join_blocks(*args, **kwargs))


class TestPoissonStream:
    def test_rate_is_respected(self, rng):
        events = list(
            poisson_join_events(2.0, ExponentialSessions(10.0), rng, horizon=5000.0)
        )
        assert len(events) == pytest.approx(10_000, rel=0.1)

    def test_events_in_time_order_with_sessions(self, rng):
        events = list(
            poisson_join_events(1.0, ExponentialSessions(10.0), rng, horizon=200.0)
        )
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(isinstance(e, GoodJoin) and e.session is not None for e in events)

    def test_zero_rate_yields_nothing(self, rng):
        assert list(
            poisson_join_events(0.0, ExponentialSessions(10.0), rng, horizon=100.0)
        ) == []

    def test_horizon_respected(self, rng):
        events = list(
            poisson_join_events(5.0, ExponentialSessions(10.0), rng, horizon=50.0)
        )
        assert all(e.time <= 50.0 for e in events)


class TestModulatedStream:
    def test_diurnal_modulation_shifts_density(self, rng):
        period = 1000.0
        rate_fn = diurnal_rate(base_rate=2.0, amplitude=0.8, period=period)
        events = list(
            modulated_join_events(
                rate_fn, max_rate=4.0, session_dist=ExponentialSessions(10.0),
                rng=rng, horizon=period,
            )
        )
        first_half = sum(1 for e in events if e.time < period / 2)
        second_half = len(events) - first_half
        # sin > 0 on the first half-period: more arrivals there.
        assert first_half > second_half * 1.5

    def test_rate_above_max_rejected(self, rng):
        def bad_rate(_t):
            return 100.0

        stream = modulated_join_events(
            bad_rate, max_rate=1.0, session_dist=ExponentialSessions(10.0),
            rng=rng, horizon=100.0,
        )
        with pytest.raises(ValueError, match="outside"):
            list(stream)

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            diurnal_rate(1.0, amplitude=1.5)


class TestSmoothTrace:
    def test_events_sorted_and_balanced(self, rng):
        events = smooth_trace(n0=40, epoch_rates=[2.0, 4.0], rng=rng)
        times = [e.time for e in events]
        assert times == sorted(times)
        joins = sum(1 for e in events if isinstance(e, GoodJoin))
        departures = sum(1 for e in events if isinstance(e, GoodDeparture))
        assert joins == departures  # size kept constant

    def test_rate_doubles_between_epochs(self, rng):
        events = smooth_trace(n0=400, epoch_rates=[1.0, 2.0], rng=rng)
        joins = [e for e in events if isinstance(e, GoodJoin)]
        half = len(joins) // 2
        first_span = joins[half - 1].time - joins[0].time
        second_span = joins[-1].time - joins[half].time
        assert first_span / second_span == pytest.approx(2.0, rel=0.1)

    def test_beta_one_is_evenly_spaced(self, rng):
        events = smooth_trace(n0=40, epoch_rates=[1.0], rng=rng, beta=1.0)
        joins = [e.time for e in events if isinstance(e, GoodJoin)]
        gaps = np.diff(joins)
        assert np.allclose(gaps, 1.0)

    def test_beta_two_allows_jitter(self, rng):
        events = smooth_trace(n0=400, epoch_rates=[1.0], rng=rng, beta=2.0)
        joins = [e.time for e in events if isinstance(e, GoodJoin)]
        gaps = np.diff(joins)
        assert gaps.std() > 0.01  # not perfectly even

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            smooth_trace(n0=2, epoch_rates=[1.0], rng=rng)
        with pytest.raises(ValueError):
            smooth_trace(n0=40, epoch_rates=[0.0], rng=rng)
        with pytest.raises(ValueError):
            smooth_trace(n0=40, epoch_rates=[1.0], rng=rng, beta=0.5)
