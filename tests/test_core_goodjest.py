"""Tests for the GoodJEst estimator (Figure 5 semantics)."""

import pytest

from repro.core.goodjest import INTERVAL_THRESHOLD, GoodJEst
from repro.core.population import SystemPopulation


def make_population(n0=24):
    """``n0`` initial good IDs, idents 1..n0."""
    population = SystemPopulation()
    for ident in range(1, n0 + 1):
        population.good_join(ident)
    return population


def join_new(population):
    """Join one good ID under the next unissued ident."""
    population.good_join(population.good.last_serial + 1)


def test_threshold_constant_is_five_twelfths():
    assert INTERVAL_THRESHOLD == pytest.approx(5.0 / 12.0)


def test_initial_estimate_is_size_over_init_duration():
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0, initialization_duration=2.0)
    assert estimator.estimate == pytest.approx(12.0)


def test_uninitialized_access_raises():
    estimator = GoodJEst(make_population())
    with pytest.raises(RuntimeError, match="initialize"):
        _ = estimator.estimate
    with pytest.raises(RuntimeError, match="initialize"):
        estimator.on_event(1.0)


def test_invalid_init_duration():
    estimator = GoodJEst(make_population())
    with pytest.raises(ValueError):
        estimator.initialize(now=0.0, initialization_duration=0.0)


def test_no_update_below_threshold():
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    # 9 joins on 24+9=33: sym diff 9 < (5/12)*33 = 13.75.
    for i in range(9):
        join_new(population)
        assert estimator.on_event(1.0 + i) is False
    assert estimator.intervals == []


def test_update_fires_at_threshold():
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    updated_at = None
    for i in range(40):
        now = 1.0 + i
        join_new(population)
        if estimator.on_event(now):
            updated_at = now
            break
    assert updated_at is not None
    # With joins only, the first i where (i+1) >= (5/12)(24+i+1):
    # i+1 = 18 -> 18 >= (5/12)*42 = 17.5.  So 18 joins.
    assert updated_at == pytest.approx(18.0)
    # J-tilde = |S(t')| / (t'-t) = 42 / 18.
    assert estimator.estimate == pytest.approx(42.0 / 18.0)


def test_interval_records_accumulate():
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    for i in range(200):
        now = 1.0 + i
        join_new(population)
        estimator.on_event(now)
    assert len(estimator.intervals) >= 2
    # Intervals tile time: each starts where the previous ended.
    for prev, cur in zip(estimator.intervals, estimator.intervals[1:]):
        assert cur.start == pytest.approx(prev.end)


def test_departures_count_toward_interval():
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    # Departures shrink |S(t')|, so the threshold falls as the diff grows.
    updated = False
    for i in range(24):
        now = 1.0 + i
        population.good_depart(i + 1)
        if estimator.on_event(now):
            updated = True
            break
    assert updated
    # d departures: d >= (5/12)(24-d)  ->  d >= 7.06 -> d = 8.
    assert population.good_count == 24 - 8


def test_bad_joins_move_the_interval_too():
    """GoodJEst watches ALL of S(t), good and bad alike."""
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    population.bad_join(18)
    assert estimator.on_event(1.0) is True


def test_purged_bad_ids_cancel_out():
    """A flood that gets purged does not end intervals on its own."""
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    population.bad_join(17)  # 17 < (5/12)*41 = 17.08: no update
    assert estimator.on_event(1.0) is False
    population.bad.evict_all()
    assert estimator.on_event(1.5) is False
    # The symmetric difference is back to zero; more headroom now.
    population.bad_join(10)
    assert estimator.on_event(2.0) is False


def test_deferred_mode_waits_for_apply(rng=None):
    population = make_population(n0=24)
    estimator = GoodJEst(population, defer_updates=True)
    estimator.initialize(now=0.0)
    old = estimator.estimate
    population.bad_join(18)
    assert estimator.on_event(1.0) is True  # pending
    assert estimator.has_pending_update
    assert estimator.estimate == old  # not yet applied
    # Purge happens; bad IDs leave; then the update is applied.
    population.bad.evict_all()
    assert estimator.apply_deferred(2.0) is True
    assert estimator.estimate == pytest.approx(24.0 / 2.0)
    assert not estimator.has_pending_update


def test_apply_deferred_without_pending_is_noop():
    estimator = GoodJEst(make_population(), defer_updates=True)
    estimator.initialize(now=0.0)
    assert estimator.apply_deferred(1.0) is False


def test_zero_length_interval_guarded():
    population = make_population(n0=24)
    estimator = GoodJEst(population)
    estimator.initialize(now=0.0)
    population.bad_join(18)  # same instant as initialization
    estimator.on_event(0.0)
    assert estimator.estimate > 0
    assert estimator.estimate < float("inf")


#: The ablations' GoodJEst thresholds, plus 1.0, where no run of joins
#: can ever trip.
THRESHOLDS = [1.0 / 4.0, 5.0 / 12.0, 1.0 / 2.0, 1.0]


def started_interval(threshold, n0):
    """A fresh interval whose symmetric difference is already nonzero."""
    population = make_population(n0=n0)
    estimator = GoodJEst(population, threshold=threshold)
    estimator.initialize(now=0.0)
    population.bad_join(int(threshold * n0 / 2))
    assert estimator.on_event(0.5) is False
    return population, estimator


class TestTripDistances:
    """Closed-form trip bounds drive Ergo's chunked batch hooks."""

    @pytest.mark.parametrize("n0", [12, 40, 97])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_joins_trip_exactly_at_bound(self, threshold, n0):
        population, estimator = started_interval(threshold, n0)
        for round_no in range(3):
            now = float(round_no + 1)
            k = estimator.joins_until_update()
            if threshold >= 1.0:
                assert k > 1 << 60
                for _ in range(3 * n0):
                    join_new(population)
                    assert estimator.on_event(now) is False
                return
            for _ in range(k - 1):
                join_new(population)
                assert estimator.on_event(now) is False
            join_new(population)
            assert estimator.on_event(now) is True

    @pytest.mark.parametrize("n0", [12, 40, 97])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_departure_bound_is_tight(self, threshold, n0):
        """A snapshot member leaving is the worst case the bound assumes
        (difference +1, size -1), so such a run trips exactly at it."""
        population, estimator = started_interval(threshold, n0)
        bound = estimator.departures_until_update_bound()
        victims = population.good.good_ids()
        assert bound <= len(victims)
        for ident in victims[: bound - 1]:
            population.good_depart(ident)
            assert estimator.on_event(1.0) is False
        population.good_depart(victims[bound - 1])
        assert estimator.on_event(1.0) is True

    def test_joins_until_update_is_exact(self):
        population = make_population(n0=24)
        estimator = GoodJEst(population)
        estimator.initialize(now=0.0)
        k = estimator.joins_until_update()
        # The k-th join trips; the (k-1)-th must not.
        for i in range(k - 1):
            join_new(population)
            assert estimator.on_event(1.0) is False
        join_new(population)
        assert estimator.on_event(1.0) is True

    def test_joins_until_update_recomputes_after_trip(self):
        population = make_population(n0=12)
        estimator = GoodJEst(population)
        estimator.initialize(now=0.0)
        for round_no in range(3):
            k = estimator.joins_until_update()
            for i in range(k - 1):
                join_new(population)
                assert not estimator.on_event(float(round_no + 1))
            join_new(population)
            assert estimator.on_event(float(round_no + 1))

    def test_pending_update_means_no_trip(self):
        population = make_population(n0=12)
        estimator = GoodJEst(population, defer_updates=True)
        estimator.initialize(now=0.0)
        population.bad_join(10)
        estimator.on_event(0.5)  # becomes pending
        assert estimator.has_pending_update
        assert estimator.joins_until_update() > 1 << 60

    def test_departures_bound_is_safe(self):
        population = make_population(n0=40)
        estimator = GoodJEst(population)
        estimator.initialize(now=0.0)
        bound = estimator.departures_until_update_bound()
        victims = population.good.good_ids()
        # Strictly fewer departures than the bound can never trip.
        for ident in victims[: bound - 1]:
            population.good_depart(ident)
            assert estimator.on_event(1.0) is False
