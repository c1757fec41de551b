"""Experiment configurations.

Full-scale defaults reproduce the paper's setups; every config has a
``quick()`` preset used by ``--quick`` runs, smoke tests and the scale
gates (same code paths, smaller sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: κ = 1/18 throughout the evaluation (Section 10.1).
KAPPA = 1.0 / 18.0

#: All four networks, in the order the figures present them.
ALL_NETWORKS = ["bitcoin", "bittorrent", "gnutella", "ethereum"]


@dataclass
class Figure8Config:
    """A vs T for ERGO, CCOM, SybilControl, REMP, ERGO-SF (Figure 8)."""

    networks: List[str] = field(default_factory=lambda: list(ALL_NETWORKS))
    #: T = 2^e for each exponent ("T ranges over [2^0, 2^20]").
    t_exponents: List[int] = field(default_factory=lambda: list(range(0, 21, 2)))
    horizon: float = 10_000.0
    seed: int = 2021
    kappa: float = KAPPA
    remp_t_max: float = 1.0e7
    sf_accuracy: float = 0.98
    #: Scale initial populations (1.0 = the paper's n0).
    n0_scale: float = 1.0

    @classmethod
    def quick(cls) -> "Figure8Config":
        return cls(
            networks=["gnutella"],
            t_exponents=[0, 6, 12, 18],
            horizon=600.0,
            n0_scale=0.25,
        )


@dataclass
class Figure9Config:
    """GoodJEst estimate/true ratio vs bad fraction (Figure 9)."""

    networks: List[str] = field(default_factory=lambda: list(ALL_NETWORKS))
    #: The figure's x-axis fractions.
    bad_fractions: List[float] = field(
        default_factory=lambda: [1 / 1536, 1 / 384, 1 / 96, 1 / 24, 1 / 6]
    )
    #: T = 0 (no attack) and T = 10,000 (Section 10.2).
    attack_rates: List[float] = field(default_factory=lambda: [0.0, 10_000.0])
    horizon: float = 100_000.0
    seed: int = 2021
    n0_scale: float = 1.0

    @classmethod
    def quick(cls) -> "Figure9Config":
        return cls(
            networks=["gnutella"],
            bad_fractions=[1 / 96, 1 / 6],
            horizon=20_000.0,
            n0_scale=0.25,
        )


@dataclass
class Figure10Config:
    """Heuristic comparison: ERGO vs CH1/CH2/SF(92)/SF(98) (Figure 10)."""

    networks: List[str] = field(default_factory=lambda: list(ALL_NETWORKS))
    t_exponents: List[int] = field(default_factory=lambda: list(range(0, 21, 2)))
    horizon: float = 10_000.0
    seed: int = 2021
    kappa: float = KAPPA
    n0_scale: float = 1.0

    @classmethod
    def quick(cls) -> "Figure10Config":
        return cls(
            networks=["gnutella"],
            t_exponents=[0, 8, 16],
            horizon=600.0,
            n0_scale=0.25,
        )


@dataclass
class LowerBoundConfig:
    """Theorem 3 validation: measured spend vs Ω(√(TJ)+J)."""

    network: str = "gnutella"
    t_exponents: List[int] = field(default_factory=lambda: list(range(4, 21, 4)))
    horizon: float = 4_000.0
    seed: int = 2021
    #: Ω(·) constant used in the check (loose on purpose).
    omega_constant: float = 1.0 / 64.0
    n0_scale: float = 1.0

    @classmethod
    def quick(cls) -> "LowerBoundConfig":
        return cls(t_exponents=[8, 16], horizon=600.0, n0_scale=0.25)


@dataclass
class CommitteeConfig:
    """Lemma 18 / Theorem 4 committee invariants."""

    network: str = "gnutella"
    attack_rate: float = 10_000.0
    horizon: float = 5_000.0
    seed: int = 2021
    committee_constant: float = 12.0
    n0_scale: float = 1.0

    @classmethod
    def quick(cls) -> "CommitteeConfig":
        return cls(horizon=800.0, n0_scale=0.25)


def scaled_n0(base_n0: int, scale: float) -> Optional[int]:
    """Apply an n0 scale factor (None means 'use the network default')."""
    if scale == 1.0:
        return None
    return max(200, int(base_n0 * scale))
