"""The four evaluation networks (Section 10).

The paper draws churn from:

* **Bitcoin** -- a real event trace (Neudecker et al. [95, 100]; 9212
  initial IDs, ~7 days).  That dataset is unavailable offline, so we
  substitute a synthetic trace with Weibull sessions (shape 0.5, mean
  ≈ 5 h, consistent with the Weibull fits of Imtiaz et al. [53]) at the
  steady-state arrival rate.  See DESIGN.md §3 for why this preserves
  the relevant behaviour (Ergo sees only rates and burstiness).
* **BitTorrent** -- Weibull sessions, shape 0.59, scale 41.0 minutes
  (Stutzbach & Rejaie [12]); the paper itself simulates from this fit.
* **Ethereum** -- Weibull sessions, shape 0.52, scale 9.8 hours (Kim et
  al. [96]).
* **Gnutella** -- exponential sessions with mean 2.3 hours and Poisson
  arrivals at 1 ID/second (Rowaihy et al. [97]).

Arrival rates default to the M/G/∞ steady state ``λ = n₀ / E[session]``
so the population hovers around its initial size; Gnutella pins λ = 1/s
per the paper.  Initial members receive equilibrium residual lifetimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.churn.generators import DEFAULT_BLOCK_SIZE, poisson_join_blocks
from repro.churn.sessions import (
    EquilibriumResidualSampler,
    ExponentialSessions,
    SessionDistribution,
    WeibullSessions,
)
from repro.churn.traces import ChurnScenario, InitialMember

MINUTES = 60.0
HOURS = 3600.0


@dataclass
class NetworkModel:
    """A named churn model for one evaluation network."""

    name: str
    n0: int
    sessions: SessionDistribution
    description: str
    arrival_rate: Optional[float] = None  # None = steady-state rate

    def steady_state_rate(self) -> float:
        if self.arrival_rate is not None:
            return self.arrival_rate
        return self.n0 / self.sessions.mean()

    def scenario(
        self,
        horizon: float,
        rng: np.random.Generator,
        n0: Optional[int] = None,
        equilibrium: bool = True,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> ChurnScenario:
        """Build a runnable scenario: initial population + join stream.

        ``equilibrium=True`` draws initial members' remaining lifetimes
        from the equilibrium residual distribution (the population is
        already in steady state); ``equilibrium=False`` gives everyone a
        fresh full session at t = 0, matching the paper's simulation
        setup of "initializing with 10,000 IDs" (Section 10.2) -- with
        heavy-tailed sessions this front-loads departures.

        The join stream is a list of struct-of-arrays
        :class:`~repro.sim.blocks.ChurnBlock` batches of ``block_size``
        rows, which the engine applies through its zero-heap fast path.
        """
        size = n0 if n0 is not None else self.n0
        if equilibrium:
            residuals = EquilibriumResidualSampler(self.sessions)
            draw = residuals.sample
        else:
            draw = self.sessions.sample
        initial = [
            InitialMember(ident=f"{self.name}-init-{i}", residual=draw(rng))
            for i in range(size)
        ]
        # Scale the arrival rate with the (possibly overridden) initial
        # population so the system stays near its starting size; the
        # paper's rates are tied to its n0.
        rate = self.steady_state_rate() * (size / self.n0)
        events = poisson_join_blocks(
            rate=rate,
            session_dist=self.sessions,
            rng=rng,
            horizon=horizon,
            block_size=block_size,
        )
        return ChurnScenario(
            name=self.name,
            initial=initial,
            events=events,
            description=self.description,
        )


def bitcoin() -> NetworkModel:
    """Synthetic Bitcoin-like churn (substitute for the real trace)."""
    return NetworkModel(
        name="bitcoin",
        n0=9212,
        sessions=WeibullSessions(shape=0.50, scale_seconds=2.5 * HOURS),
        description=(
            "Synthetic stand-in for the Neudecker et al. event trace: "
            "Weibull(0.50) sessions with mean ~5h, 9212 initial IDs."
        ),
    )


def bittorrent() -> NetworkModel:
    """BitTorrent churn: Weibull(0.59, 41 min) sessions [12]."""
    return NetworkModel(
        name="bittorrent",
        n0=10_000,
        sessions=WeibullSessions(shape=0.59, scale_seconds=41.0 * MINUTES),
        description="Weibull(shape=0.59, scale=41min) sessions per [12].",
    )


def ethereum() -> NetworkModel:
    """Ethereum churn: Weibull(0.52, 9.8 h) sessions [96]."""
    return NetworkModel(
        name="ethereum",
        n0=10_000,
        sessions=WeibullSessions(shape=0.52, scale_seconds=9.8 * HOURS),
        description="Weibull(shape=0.52, scale=9.8h) sessions per [96].",
    )


def gnutella() -> NetworkModel:
    """Gnutella churn: exponential (2.3 h) sessions, 1 join/s [97]."""
    return NetworkModel(
        name="gnutella",
        n0=10_000,
        sessions=ExponentialSessions(mean_seconds=2.3 * HOURS),
        description="Exponential sessions (mean 2.3h), Poisson 1 ID/s per [97].",
        arrival_rate=1.0,
    )


#: All four evaluation networks, keyed by name (iteration order matches
#: the order the figures present them).
NETWORKS: Dict[str, NetworkModel] = {
    "bitcoin": bitcoin(),
    "bittorrent": bittorrent(),
    "gnutella": gnutella(),
    "ethereum": ethereum(),
}
