"""Tests for the DefID invariant checker."""

import pytest

from repro.core.defid import BAD_FRACTION_BOUND, DefIDViolation, check_defid
from repro.core.population import SystemPopulation


def make_population(good: int, bad: int) -> SystemPopulation:
    population = SystemPopulation()
    for ident in range(1, good + 1):
        population.good_join(ident)
    population.bad_join(bad)
    return population


def test_bound_is_one_sixth():
    assert BAD_FRACTION_BOUND == pytest.approx(1 / 6)


def test_clean_population_passes():
    check_defid(make_population(good=100, bad=5), kappa=1 / 18, now=0.0)


def test_fraction_at_bound_violates():
    population = make_population(good=5, bad=1)  # exactly 1/6
    with pytest.raises(DefIDViolation, match="DefID violated"):
        check_defid(population, kappa=1 / 18, now=3.0)


def test_fraction_above_bound_violates():
    population = make_population(good=1, bad=5)
    with pytest.raises(DefIDViolation):
        check_defid(population, kappa=1 / 18, now=0.0)


def test_empty_population_passes():
    check_defid(SystemPopulation(), kappa=1 / 18, now=0.0)


def test_custom_multiplier():
    population = make_population(good=9, bad=1)  # 10% bad
    check_defid(population, kappa=1 / 18, now=0.0)  # bound 1/6: fine
    with pytest.raises(DefIDViolation):
        check_defid(population, kappa=1 / 18, now=0.0, bound_multiplier=1.0)


def test_message_carries_diagnostics():
    population = make_population(good=1, bad=5)
    with pytest.raises(DefIDViolation, match="bad=5, total=6"):
        check_defid(population, kappa=1 / 18, now=1.25)
