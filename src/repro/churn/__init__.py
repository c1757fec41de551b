"""Churn substrate: the ABC model and the evaluation networks.

* :mod:`repro.churn.abc_model` -- Definition 1 (α- and β-smoothness)
  and the model's parameter bounds (n₀, ε, γ).
* :mod:`repro.churn.epochs` -- epoch detection via the symmetric
  difference of good-ID sets (Section 2.1.2).
* :mod:`repro.churn.sessions` -- session-time distributions (Weibull,
  exponential, log-normal) with equilibrium residual sampling for
  steady-state initial populations.
* :mod:`repro.churn.generators` -- Poisson and inhomogeneous-Poisson
  join processes as churn blocks, plus exactly α,β-smooth synthetic
  traces.
* :mod:`repro.churn.datasets` -- the four evaluation networks (Bitcoin,
  BitTorrent, Ethereum, Gnutella) from Section 10.
* :mod:`repro.churn.traces` -- churn scenarios, block-stream statistics
  and CSV output.
"""

from repro.churn.abc_model import AbcParameters, minimum_n0
from repro.churn.datasets import (
    NETWORKS,
    NetworkModel,
    bitcoin,
    bittorrent,
    ethereum,
    gnutella,
)
from repro.churn.epochs import Epoch, EpochTracker, find_epochs
from repro.churn.generators import (
    modulated_join_blocks,
    poisson_join_blocks,
    smooth_trace,
)
from repro.sim.blocks import ChurnBlock, blocks_from_events
from repro.churn.sessions import (
    EquilibriumResidualSampler,
    ExponentialSessions,
    LogNormalSessions,
    WeibullSessions,
)
from repro.churn.traces import ChurnScenario, InitialMember, TraceStats, trace_stats

__all__ = [
    "AbcParameters",
    "ChurnBlock",
    "ChurnScenario",
    "Epoch",
    "EpochTracker",
    "EquilibriumResidualSampler",
    "ExponentialSessions",
    "InitialMember",
    "LogNormalSessions",
    "NETWORKS",
    "NetworkModel",
    "TraceStats",
    "WeibullSessions",
    "bitcoin",
    "bittorrent",
    "blocks_from_events",
    "ethereum",
    "find_epochs",
    "gnutella",
    "minimum_n0",
    "modulated_join_blocks",
    "poisson_join_blocks",
    "smooth_trace",
    "trace_stats",
]
