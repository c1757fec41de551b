"""Tests for the REMP baseline."""

import pytest

from tests.helpers import run_small_sim
from repro.adversary.strategies import MaintenanceAdversary
from repro.baselines.remp import Remp


def test_parameter_validation():
    with pytest.raises(ValueError):
        Remp(t_max=0.0)
    with pytest.raises(ValueError):
        Remp(kappa=0.0)
    with pytest.raises(ValueError):
        Remp(period=0.0)


def test_recurring_rate_formula():
    """L/W = T_max/(κN) -- Equation 13's per-ID rate."""
    defense = Remp(t_max=1.0e6, kappa=1 / 18)
    defense.population.good_join(1)
    defense.population.bad_join(1)
    assert defense.recurring_cost_rate_per_id() == pytest.approx(1.0e6 * 18 / 2)


def test_flat_spend_rate_matches_equation_13():
    """A ≈ T_max/κ · (good fraction), independent of the actual T."""
    t_max, kappa, n0 = 1.0e5, 1 / 18, 300
    expected = t_max / kappa  # with ~no bad IDs, good fraction ~1
    for rate in (0.0, 1_000.0):
        adversary = MaintenanceAdversary(rate=rate) if rate else None
        result, _ = run_small_sim(
            Remp(t_max=t_max, kappa=kappa), adversary=adversary,
            horizon=50.0, n0=n0, seed=9,
        )
        assert result.good_spend_rate == pytest.approx(expected, rel=0.1)


def test_recurring_cost_prices_out_sybils():
    """With per-ID rate T_max/(κN) >> T/N, the adversary cannot sustain
    a meaningful standing population -- REMP's design goal."""
    result, defense = run_small_sim(
        Remp(t_max=1.0e6), adversary=MaintenanceAdversary(rate=10_000.0),
        horizon=50.0, n0=300,
    )
    assert result.max_bad_fraction < 0.01


def test_join_costs_one():
    result, defense = run_small_sim(Remp(t_max=1e5), horizon=20.0, n0=300)
    assert defense.quote_entrance_cost() == 1.0
    before = defense.accountant.good_total
    defense.process_good_join()
    assert defense.accountant.good_total == before + 1.0
