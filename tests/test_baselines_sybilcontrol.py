"""Tests for the SybilControl baseline."""

import pytest

from tests.helpers import run_small_sim
from repro.adversary.strategies import MaintenanceAdversary
from repro.baselines.sybilcontrol import SybilControl


def test_recurring_cost_rate():
    defense = SybilControl(test_period=0.5, tests_per_period=1.0)
    assert defense.recurring_cost_rate_per_id() == pytest.approx(2.0)


def test_invalid_period():
    with pytest.raises(ValueError):
        SybilControl(test_period=0.0)


def test_good_ids_pay_recurring_tests():
    result, defense = run_small_sim(SybilControl(), horizon=100.0, n0=600)
    by_cat = result.metrics.good.by_category()
    # ~2 challenges per second per good ID.
    assert by_cat["recurring"] == pytest.approx(600 * 2.0 * 100.0, rel=0.1)


def test_cost_independent_of_attack():
    quiet, _ = run_small_sim(SybilControl(), horizon=100.0, n0=600, seed=5)
    attacked, _ = run_small_sim(
        SybilControl(), adversary=MaintenanceAdversary(rate=200.0),
        horizon=100.0, n0=600, seed=5,
    )
    assert attacked.good_spend_rate == pytest.approx(quiet.good_spend_rate, rel=0.05)


def test_unfunded_sybils_evicted_each_cycle():
    result, defense = run_small_sim(
        SybilControl(), adversary=None, horizon=50.0, n0=600
    )
    defense.process_bad_join_batch(budget=100.0)
    assert defense.population.bad_count == 100
    defense._recurring_cycle(defense.now)  # no adversary to fund them
    assert defense.population.bad_count == 0


def test_loses_defid_when_attack_scales():
    """T large vs the good population: standing Sybils exceed 1/6 --
    the Figure 8 cutoff condition."""
    result, _ = run_small_sim(
        SybilControl(), adversary=MaintenanceAdversary(rate=2_000.0),
        horizon=100.0, n0=600,
    )
    # Sustainable Sybils = 2000/2 = 1000 > 600/5.
    assert result.max_bad_fraction >= 1 / 6


def test_keeps_defid_when_attack_small():
    result, _ = run_small_sim(
        SybilControl(), adversary=MaintenanceAdversary(rate=100.0),
        horizon=100.0, n0=600,
    )
    assert result.max_bad_fraction < 1 / 6
