"""Tests for the cost accountant."""

import pytest

from repro.rb.ledger import CostAccountant
from repro.sim.metrics import MetricSet


@pytest.fixture
def setup():
    metrics = MetricSet()
    return metrics, CostAccountant(metrics)


def test_good_charges_hit_party(setup):
    metrics, accountant = setup
    accountant.charge_good(3.0, "entrance")
    accountant.charge_good(1.0, "purge")
    accountant.charge_good(2.0, "entrance")
    assert metrics.good.total == 6.0
    assert metrics.good.by_category() == {"entrance": 5.0, "purge": 1.0}


def test_bulk_charge_hits_party_only(setup):
    metrics, accountant = setup
    accountant.charge_good_bulk(100, 1.0, "purge")
    assert metrics.good.total == 100.0
    assert metrics.good.by_category()["purge"] == 100.0


def test_adversary_charges(setup):
    metrics, accountant = setup
    accountant.charge_adversary(50.0, "entrance")
    assert metrics.adversary.total == 50.0
    assert accountant.adversary_total == 50.0


def test_totals_always_consistent(setup):
    metrics, accountant = setup
    accountant.charge_good(1.0, "x")
    accountant.charge_good_bulk(5, 2.0, "y")
    assert accountant.good_total == metrics.good.total == 11.0


def test_negative_charges_rejected(setup):
    _, accountant = setup
    with pytest.raises(ValueError):
        accountant.charge_good(-1.0, "x")
    with pytest.raises(ValueError):
        accountant.charge_adversary(-1.0, "x")
    with pytest.raises(ValueError):
        accountant.charge_good_bulk(-1, 1.0, "x")
