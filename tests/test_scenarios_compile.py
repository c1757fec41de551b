"""Scenario-compiler sizing: fraction phases under small ``--n0-scale``.

``int(round(fraction * pop))`` reaches 0 when the scaled population
estimate is small, silently compiling mass-exodus / partition-rejoin
phases into no-ops -- exactly the phases those scenarios exist to
exercise.  The compiler now clamps positive fractions of non-empty
populations to at least one member and reports the clamp through the
compile warnings.
"""

import numpy as np
import pytest

from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import (
    MassExodus,
    PartitionRejoin,
    ScenarioSpec,
    SessionSpec,
    SteadyState,
)
from repro.sim.blocks import DEPART


def tiny_spec(phase):
    return ScenarioSpec(
        name="tiny",
        description="clamp regression",
        phases=(SteadyState(duration=10.0), phase),
        n0=8,
        sessions=SessionSpec(kind="exponential", mean=500.0),
    )


def departures_in(compiled):
    return sum(
        int(np.count_nonzero(block.kinds == DEPART))
        for block in compiled.blocks
    )


class TestFractionClamp:
    def test_mass_exodus_scaled_down_still_departs(self):
        # n0=8 at n0_scale=0.25 -> pop estimate 2; 10% of 2 rounds to 0.
        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.1))
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        assert departures_in(compiled) >= 1
        assert any("MassExodus" in w for w in compiled.warnings)
        assert compiled.summary()["warnings"] == compiled.warnings

    def test_partition_rejoin_scaled_down_still_cycles(self):
        spec = tiny_spec(
            PartitionRejoin(
                fraction=0.1, away=5.0,
                exodus_window=2.0, rejoin_window=2.0,
            )
        )
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        assert departures_in(compiled) >= 1
        assert any("PartitionRejoin" in w for w in compiled.warnings)

    def test_unscaled_fractions_do_not_warn(self):
        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.5))
        compiled = compile_scenario(spec, np.random.default_rng(0))
        assert compiled.warnings == []
        assert departures_in(compiled) >= 1

    def test_explicit_count_bypasses_clamp(self):
        spec = tiny_spec(MassExodus(duration=5.0, count=0))
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        # A literal count of 0 is the author's choice, not a rounding
        # artifact: no clamp, no warning.
        assert compiled.warnings == []

    def test_zero_fraction_is_a_legitimate_noop(self):
        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.0))
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        assert compiled.warnings == []

    def test_warnings_reach_the_metrics_row(self):
        from repro.scenarios import catalog as catalog_mod
        from repro.scenarios.run import ScenarioPointSpec, run_scenario_point

        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.1))
        registered = catalog_mod.CATALOG.setdefault(spec.name, spec)
        try:
            row = run_scenario_point(
                ScenarioPointSpec(
                    scenario=spec.name,
                    defense="Null",
                    seed=7,
                    t_rate=0.0,
                    n0_scale=0.25,
                )
            )
            assert any("MassExodus" in w for w in row["compile_warnings"])
        finally:
            if registered is spec:
                del catalog_mod.CATALOG[spec.name]


class TestSybilExodusStaging:
    """count=None exoduses must stage, not collapse into batch one."""

    def test_drain_fractions_stage_a_full_exodus(self):
        from repro.scenarios.spec import SybilExodus

        spec = ScenarioSpec(
            name="staged",
            description="staged exodus",
            phases=(SybilExodus(duration=30.0, batches=4),),
            n0=8,
            sessions=SessionSpec(kind="exponential", mean=500.0),
        )
        compiled = compile_scenario(spec, np.random.default_rng(0))
        fractions = [e.drain_fraction for e in compiled.scheduled]
        assert fractions == [1.0 / 4, 1.0 / 3, 1.0 / 2, 1.0]

    def test_explicit_count_still_splits_evenly(self):
        from repro.scenarios.spec import SybilExodus

        spec = ScenarioSpec(
            name="counted",
            description="counted exodus",
            phases=(SybilExodus(duration=20.0, count=400, batches=4),),
            n0=8,
            sessions=SessionSpec(kind="exponential", mean=500.0),
        )
        compiled = compile_scenario(spec, np.random.default_rng(0))
        assert [e.count for e in compiled.scheduled] == [100] * 4
        assert all(e.drain_fraction is None for e in compiled.scheduled)

    def test_engine_withdraws_in_equal_stages(self):
        from repro.sim.engine import Simulation, SimulationConfig
        from repro.sim.events import BadDepartureBatch, Callback
        from repro.sim.null_defense import NullDefense

        defense = NullDefense()
        sim = Simulation(
            SimulationConfig(horizon=10.0, tick_interval=0.0, seed=1),
            defense,
            [],
        )
        defense.population.bad_join(100)
        remaining = []
        for i, t in enumerate((1.0, 2.0, 3.0, 4.0)):
            sim.queue.push(
                BadDepartureBatch(
                    time=t, count=0, drain_fraction=1.0 / (4 - i)
                )
            )
            sim.queue.push(
                Callback(
                    time=t + 0.5,
                    fn=lambda now: remaining.append(defense.bad_count()),
                )
            )
        result = sim.run()
        # Equal 25-ID stages, fully drained by the last batch.
        assert remaining == [75, 50, 25, 0]
        assert result.counters["bad_departure_events"] == 100
