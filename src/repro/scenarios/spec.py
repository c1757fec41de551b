"""Declarative scenario specifications.

A :class:`ScenarioSpec` is pure data: a timeline of **phases** (steady
state, flash crowd, diurnal cycle, mass exodus, partition-and-rejoin,
trace replay, silence, Sybil exodus) plus an :class:`AttackSchedule`
describing when and how the adversary spends.  Specs are frozen
dataclasses -- picklable, hashable, comparable -- so sweep workers can
rebuild a scenario from its spec and a seed with no closures involved.

The semantics live in :mod:`repro.scenarios.compile`, which turns a spec
into struct-of-arrays :class:`~repro.sim.blocks.ChurnBlock` batches and
lazily read trace segments (so every scenario rides the engine's
zero-heap fast path) plus scheduled
:class:`~repro.sim.events.BadDepartureBatch` events for adversarial
exoduses.  Named, ready-made specs live in
:mod:`repro.scenarios.catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.churn.sessions import (
    ExponentialSessions,
    LogNormalSessions,
    SessionDistribution,
    WeibullSessions,
)

#: Attack profiles an :class:`AttackSchedule` understands.
ATTACK_PROFILES = ("off", "sustained", "burst", "flapping")


@dataclass(frozen=True)
class SessionSpec:
    """A picklable description of a session-time distribution.

    ``kind`` selects the family; ``mean`` is the mean session length in
    seconds.  For ``weibull`` the ``shape`` parameter is honored (scale
    is solved from the mean); ``lognormal`` uses ``sigma``.
    """

    kind: str = "exponential"
    mean: float = 600.0
    shape: float = 0.6
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "weibull", "lognormal"):
            raise ValueError(f"unknown session kind: {self.kind!r}")
        if self.mean <= 0:
            raise ValueError(f"mean session must be positive: {self.mean}")

    def build(self) -> SessionDistribution:
        if self.kind == "weibull":
            import math

            scale = self.mean / math.gamma(1.0 + 1.0 / self.shape)
            return WeibullSessions(shape=self.shape, scale_seconds=scale)
        if self.kind == "lognormal":
            import math

            mu = math.log(self.mean) - self.sigma**2 / 2.0
            return LogNormalSessions(mu=mu, sigma=self.sigma)
        return ExponentialSessions(mean_seconds=self.mean)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SteadyState:
    """Poisson joins at a steady rate with sessions from the spec.

    ``rate=None`` resolves to the M/G/∞ equilibrium rate for the
    compiler's current population estimate (``pop / E[session]``), so
    the system hovers around its size; ``rate_scale`` then scales that
    (0.2 = a calm stretch at one fifth of equilibrium churn).
    """

    duration: float
    rate: Optional[float] = None
    rate_scale: float = 1.0


@dataclass(frozen=True)
class FlashCrowd:
    """A coordinated mass join: ``joins`` arrivals in ``duration`` seconds.

    ``joins=None`` resolves to ``multiplier ×`` the compiler's current
    population estimate, so catalog entries scale with ``n0_scale``.
    Arrivals are Poisson at the implied burst rate; every joiner carries
    a session, so the crowd drains naturally afterwards.
    """

    duration: float
    joins: Optional[int] = None
    multiplier: float = 3.0


@dataclass(frozen=True)
class DiurnalCycle:
    """Day/night modulated joins: ``base·(1 + amplitude·sin(2πt/period))``.

    ``base_rate=None`` resolves to the equilibrium rate, like
    :class:`SteadyState`.  The period defaults to a *simulation-scaled*
    day (600 s) rather than 86,400 s so short scenario runs still sweep
    full cycles; pass ``period=86_400.0`` for wall-clock days.
    """

    duration: float
    amplitude: float = 0.8
    period: float = 600.0
    base_rate: Optional[float] = None

    def __post_init__(self) -> None:
        # diurnal_rate's own bound, surfaced at spec construction so an
        # invalid amplitude fails here, not mid-compile.
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1): {self.amplitude}")
        if self.period <= 0:
            raise ValueError(f"period must be positive: {self.period}")


@dataclass(frozen=True)
class MassExodus:
    """A synchronized collapse: departures of present good IDs.

    ``count=None`` resolves to ``fraction ×`` the compiler's population
    estimate.  Departure instants are uniform over the window (sorted);
    victims are anonymous, i.e. chosen uniformly at random by the
    defense, per the ABC model's departure rule.
    """

    duration: float
    fraction: float = 0.5
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {self.fraction}")


@dataclass(frozen=True)
class PartitionRejoin:
    """A network partition: a cohort drops out, stays away, rejoins.

    Compiles to a :class:`MassExodus`-shaped departure burst over
    ``exodus_window``, ``away`` seconds of silence, then the same number
    of joins (with fresh sessions) over ``rejoin_window``.
    """

    away: float
    fraction: float = 0.5
    exodus_window: float = 10.0
    rejoin_window: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {self.fraction}")

    @property
    def duration(self) -> float:
        return self.exodus_window + self.away + self.rejoin_window


@dataclass(frozen=True)
class Silence:
    """No good churn at all for ``duration`` seconds (quiet stretch)."""

    duration: float


@dataclass(frozen=True)
class TraceReplay:
    """Replay a ``save_trace_csv``-format trace as one phase.

    ``path`` is a **trace ref** resolved through the
    :mod:`repro.traces` registry: a registered source name (packaged
    fixture, cached URL, or on-demand synthetic trace), a filename in
    the packaged scenario data directory, or a filesystem path
    (``.gz`` compressed traces included).

    Event times are interpreted relative to the trace's first event,
    scaled by ``time_scale`` and shifted to the phase start; events past
    ``duration`` are dropped (a shorter trace simply ends early, leaving
    the rest of the window quiet).

    The compiler hands the engine a lazy
    :class:`~repro.traces.reader.TraceBlockStream`: blocks are parsed on
    demand in bounded memory, so multi-million-event consensus traces
    replay without ever materializing per-event objects.  The trace's
    rows must be time-sorted; an unsorted file fails with the first
    offending line.
    """

    path: str
    duration: float
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {self.time_scale}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")


@dataclass(frozen=True)
class SybilExodus:
    """A scheduled adversarial mass withdrawal, in block form.

    Compiles to :class:`~repro.sim.events.BadDepartureBatch` events --
    ``batches`` of them spread over the window -- rather than per-object
    heap events.  ``count=None`` withdraws everything standing (the
    batch is capped by the live Sybil population at fire time).
    """

    duration: float = 0.0
    count: Optional[int] = None
    batches: int = 1

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise ValueError(f"need at least one batch: {self.batches}")


#: Everything a spec timeline may contain.
Phase = Union[
    SteadyState,
    FlashCrowd,
    DiurnalCycle,
    MassExodus,
    PartitionRejoin,
    Silence,
    TraceReplay,
    SybilExodus,
]


# ----------------------------------------------------------------------
# attack schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttackSchedule:
    """When and how the adversary spends its rate-``T`` budget.

    Profiles:

    * ``off`` -- no adversary at all;
    * ``sustained`` -- the defense-appropriate always-on attack (greedy
      flooder, or the maintenance adversary against recurring-cost
      defenses), optionally windowed to ``[start, end)``;
    * ``burst`` -- saves budget and floods every ``burst_period``
      seconds (stresses window pricing);
    * ``flapping`` -- ``on`` seconds attacking / ``off`` seconds dark,
      withdrawing the whole standing Sybil population at every window
      close (the relay-flapping workload).

    ``t_rate=None`` defers to the runner's ``--t-rate`` (or the spec's
    ``default_t_rate``).  ``end=None`` means the scenario horizon.
    """

    profile: str = "off"
    t_rate: Optional[float] = None
    burst_period: float = 60.0
    on: float = 60.0
    off: float = 60.0
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.profile not in ATTACK_PROFILES:
            raise ValueError(
                f"unknown attack profile {self.profile!r}; "
                f"choose from {ATTACK_PROFILES}"
            )


# ----------------------------------------------------------------------
# the spec itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative workload: population + phases + attack."""

    name: str
    description: str
    phases: Tuple[Phase, ...]
    n0: int = 1000
    sessions: SessionSpec = field(default_factory=SessionSpec)
    attack: AttackSchedule = field(default_factory=AttackSchedule)
    #: T used when neither the schedule nor the runner pins one.
    default_t_rate: float = 64.0
    #: initial members get equilibrium residual lifetimes (steady state)
    equilibrium: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.n0 < 1:
            raise ValueError(f"n0 must be at least 1: {self.n0}")
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} has no phases")
        for phase in self.phases:
            if not isinstance(phase, Phase.__args__):
                raise TypeError(
                    f"scenario {self.name!r}: {type(phase).__name__} is not a phase"
                )

    @property
    def horizon(self) -> float:
        """Total simulated time implied by the phase durations."""
        return float(sum(phase.duration for phase in self.phases))
