"""Catalog integrity and end-to-end scenario runs."""

import numpy as np
import pytest

from repro.scenarios.catalog import CATALOG, get_scenario, register, scenario_names
from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import (
    SCENARIO_DEFENSES,
    build_defense,
    build_points,
    report_json,
    run_catalog,
    run_scenario_point,
)
from repro.scenarios.spec import ScenarioSpec, SteadyState
from repro.sim.rng import RngRegistry

#: The catalog shapes the ISSUE names; the catalog may grow beyond them.
EXPECTED_NAMES = {
    "flash-crowd",
    "diurnal",
    "mass-exodus",
    "flapping-sybils",
    "tor-relay-replay",
    "calm-then-storm",
}


class TestCatalog:
    def test_catalog_has_at_least_six_scenarios(self):
        assert len(CATALOG) >= 6
        assert EXPECTED_NAMES <= set(scenario_names())

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="flash-crowd"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("flash-crowd")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)
        assert register(spec, replace=True) is spec

    def test_every_catalog_scenario_compiles(self):
        for name in scenario_names():
            spec = get_scenario(name)
            compiled = compile_scenario(
                spec, np.random.default_rng(1), n0_scale=0.1
            )
            assert compiled.horizon == pytest.approx(spec.horizon)
            assert len(compiled.initial) >= 1
            # Every scenario but pure-silence ones carries some churn.
            assert compiled.blocks or compiled.scheduled


class TestRuns:
    def test_defense_suite_builds(self):
        for name in SCENARIO_DEFENSES:
            assert build_defense(name).name
        with pytest.raises(KeyError, match="ERGO"):
            build_defense("nope")

    def test_flash_crowd_rides_the_fast_path(self):
        # Acceptance: >= 90% of good joins on the zero-heap fast path,
        # for every defense in the suite.
        report = run_catalog(
            scenarios=["flash-crowd"], seed=11, n0_scale=0.1, jobs=1
        )
        assert len(report["rows"]) == len(SCENARIO_DEFENSES)
        for row in report["rows"]:
            assert row["good_joins"] > 0
            assert row["fast_join_fraction"] >= 0.9, row["defense"]

    def test_catalog_runs_are_deterministic(self):
        kwargs = dict(
            scenarios=["mass-exodus", "flapping-sybils"],
            seed=5,
            n0_scale=0.1,
        )
        a = run_catalog(jobs=1, **kwargs)
        b = run_catalog(jobs=1, **kwargs)
        assert report_json(a) == report_json(b)

    def test_parallel_matches_serial(self):
        kwargs = dict(scenarios=["calm-then-storm"], seed=9, n0_scale=0.1)
        serial = run_catalog(jobs=1, **kwargs)
        parallel = run_catalog(jobs=2, **kwargs)
        assert report_json(serial) == report_json(parallel)

    def test_flapping_withdraws_standing_sybils(self):
        report = run_catalog(
            scenarios=["flapping-sybils"], defenses=["Null"],
            seed=3, n0_scale=0.1,
        )
        (row,) = report["rows"]
        assert row["sybil_withdrawals"] > 0

    def test_sybil_collapse_uses_block_departures(self):
        report = run_catalog(
            scenarios=["sybil-collapse"], defenses=["Null"],
            seed=3, n0_scale=0.1,
        )
        (row,) = report["rows"]
        # The scheduled exodus drains the flooded Sybil population in
        # four heap entries, not one per ID.
        assert row["bad_departures"] > 100

    def test_row_workload_shape_matches_compiled_summary(self):
        # The row folds its shape from the engine's own pass over the
        # churn; a separate summary pass must read the same numbers.
        points = build_points(scenario_names(), ["Null"], seed=6, n0_scale=0.25)
        assert len(points) == len(CATALOG)
        for point in points:
            row = run_scenario_point(point)
            spec = get_scenario(point.scenario)
            compiled = compile_scenario(
                spec,
                RngRegistry(seed=point.seed).stream(f"scenario.{spec.name}"),
                n0_scale=point.n0_scale,
            )
            summary = compiled.summary()
            assert row["peak_join_rate"] == summary["peak_join_rate"], spec.name
            assert row["initial_members"] == summary["initial_members"]
            assert row["compile_warnings"] == summary["warnings"]

    def test_custom_registered_scenario_runs(self):
        spec = ScenarioSpec(
            name="custom-steady",
            description="registry extension point",
            phases=(SteadyState(duration=30.0),),
            n0=50,
        )
        register(spec)
        try:
            from repro.scenarios.run import ScenarioPointSpec

            row = run_scenario_point(
                ScenarioPointSpec(
                    scenario="custom-steady", defense="Null", seed=1,
                    t_rate=0.0,
                )
            )
            assert row["horizon"] == 30.0
        finally:
            del CATALOG["custom-steady"]
