"""Tests for the four evaluation network models."""

import pytest

from repro.churn.datasets import NETWORKS, bitcoin, bittorrent, ethereum, gnutella
from repro.sim.events import GoodJoin
from repro.sim.rng import RngRegistry
from tests.reference_sim import expand_churn


def test_all_four_networks_present():
    assert set(NETWORKS) == {"bitcoin", "bittorrent", "gnutella", "ethereum"}


def test_paper_parameters():
    assert bitcoin().n0 == 9212  # Neudecker et al. initial population
    assert bittorrent().sessions.shape == pytest.approx(0.59)
    assert bittorrent().sessions.scale == pytest.approx(41.0 * 60.0)
    assert ethereum().sessions.shape == pytest.approx(0.52)
    assert ethereum().sessions.scale == pytest.approx(9.8 * 3600.0)
    assert gnutella().arrival_rate == pytest.approx(1.0)
    assert gnutella().sessions.mean() == pytest.approx(2.3 * 3600.0)


def test_churn_ordering():
    """BitTorrent and Gnutella churn much faster than Bitcoin/Ethereum
    (Section 10.3 attributes their higher purge costs to this)."""
    rates = {
        name: NETWORKS[name].steady_state_rate() / NETWORKS[name].n0
        for name in NETWORKS
    }
    assert rates["bittorrent"] > rates["gnutella"]
    assert rates["gnutella"] > rates["bitcoin"]
    assert rates["bitcoin"] > rates["ethereum"]


def test_steady_state_rate_default():
    network = bittorrent()
    assert network.steady_state_rate() == pytest.approx(
        network.n0 / network.sessions.mean()
    )


def test_scenario_structure():
    rngs = RngRegistry(seed=1)
    scenario = gnutella().scenario(horizon=100.0, rng=rngs.stream("c"), n0=50)
    assert len(scenario.initial) == 50
    assert all(m.residual is not None and m.residual >= 0 for m in scenario.initial)
    events = list(expand_churn(scenario.events))
    assert all(isinstance(e, GoodJoin) for e in events)
    assert all(e.time <= 100.0 for e in events)


def test_scenario_population_roughly_stable():
    """Equilibrium initialization keeps the population near n0."""
    from tests.helpers import run_small_sim
    from repro.baselines.ccom import CCom

    result, defense = run_small_sim(
        CCom(), network="bittorrent", horizon=400.0, n0=500
    )
    assert 350 < result.final_system_size < 700


def test_fresh_scenario_draws_full_sessions():
    rngs = RngRegistry(seed=1)
    fresh = gnutella().scenario(
        horizon=10.0, rng=rngs.stream("f"), n0=2000, equilibrium=False
    )
    rngs2 = RngRegistry(seed=1)
    equil = gnutella().scenario(
        horizon=10.0, rng=rngs2.stream("f"), n0=2000, equilibrium=True
    )
    # For exponential sessions both modes have the same distribution
    # (memorylessness); check means are in the same ballpark.
    fresh_mean = sum(m.residual for m in fresh.initial) / len(fresh.initial)
    equil_mean = sum(m.residual for m in equil.initial) / len(equil.initial)
    assert fresh_mean == pytest.approx(equil_mean, rel=0.25)


def test_unique_initial_idents():
    rngs = RngRegistry(seed=1)
    scenario = bitcoin().scenario(horizon=10.0, rng=rngs.stream("c"), n0=100)
    idents = [m.ident for m in scenario.initial]
    assert len(set(idents)) == 100
