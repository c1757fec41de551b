"""Discrete-event simulation substrate.

This package provides the building blocks that every other layer of the
reproduction sits on:

* :mod:`repro.sim.clock` -- the simulation clock (float seconds; one
  "round" in the paper's terminology is one second, the time to solve a
  1-hard resource-burning challenge).
* :mod:`repro.sim.rng` -- named, deterministically seeded random streams.
* :mod:`repro.sim.events` -- the event vocabulary shared by churn traces,
  adversaries, and defenses.
* :mod:`repro.sim.engine` -- the event queue and the simulation driver.
* :mod:`repro.sim.metrics` -- counters, time series, spend meters, and the
  sliding-window counter used for Ergo's entrance cost.
"""

from repro.sim.clock import Clock
from repro.sim.engine import EventQueue, Simulation, SimulationConfig
from repro.sim.events import Event, GoodDeparture, GoodJoin
from repro.sim.metrics import (
    Counter,
    MetricSet,
    MetricsSnapshot,
    SlidingWindowCounter,
    SnapshotPolicy,
    SpendMeter,
    TimeSeries,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "Clock",
    "Counter",
    "Event",
    "EventQueue",
    "GoodDeparture",
    "GoodJoin",
    "MetricSet",
    "MetricsSnapshot",
    "RngRegistry",
    "Simulation",
    "SimulationConfig",
    "SlidingWindowCounter",
    "SnapshotPolicy",
    "SpendMeter",
    "TimeSeries",
]
