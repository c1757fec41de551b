"""Engine snapshot hook: emission invariants and byte-identity.

The hook's contract (:class:`repro.sim.metrics.SnapshotPolicy`):
emission is purely observational.  The engine samples existing counters
and spend totals at batch boundaries it would have taken anyway, draws
no RNG, and records nothing into the run's metrics -- so the final
metrics row is byte-identical with snapshots on or off, checked here
for three defenses.
"""

import json

import pytest

from repro.scenarios.catalog import get_scenario
from repro.scenarios.run import (
    ScenarioPointSpec,
    build_points,
    resolve_t_rate,
    run_catalog,
    run_scenario_point_live,
    run_spec_point,
)
from repro.sim.metrics import MetricsSnapshot, SnapshotPolicy

SCENARIO = "flash-crowd"
N0_SCALE = 0.05


def make_point(defense: str, seed: int = 11):
    spec = get_scenario(SCENARIO)
    point = ScenarioPointSpec(
        scenario=SCENARIO,
        defense=defense,
        seed=seed,
        t_rate=resolve_t_rate(spec, None),
        n0_scale=N0_SCALE,
    )
    return spec, point


def run_with_snapshots(defense="Null", policy=None):
    spec, point = make_point(defense)
    if policy is None:
        policy = SnapshotPolicy(sim_interval=5.0)
    snaps = []
    row = run_spec_point(
        spec,
        point,
        snapshot_policy=policy,
        on_snapshot=snaps.append,
    )
    return row, snaps


class TestSnapshotPolicy:
    def test_needs_at_least_one_knob(self):
        with pytest.raises(TypeError, match="sim_interval"):
            SnapshotPolicy()

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_sim_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError, match="sim_interval"):
            SnapshotPolicy(sim_interval=interval)


class TestEmissionInvariants:
    def test_seqs_are_dense_and_times_monotone(self):
        row, snaps = run_with_snapshots()
        assert len(snaps) >= 2
        assert [s.seq for s in snaps] == list(range(len(snaps)))
        times = [s.sim_time for s in snaps]
        assert times == sorted(times)
        events = [s.events for s in snaps]
        assert events == sorted(events)

    def test_terminal_snapshot_matches_final_row(self):
        row, snaps = run_with_snapshots()
        assert [s.last for s in snaps].count(True) == 1
        terminal = snaps[-1]
        assert terminal.last
        assert terminal.sim_time == row["horizon"]
        # The terminal snapshot is emitted after the horizon-time
        # adversary act: cumulative spend equals the row exactly.
        assert terminal.good_spend == row["good_spend"]
        assert terminal.adversary_spend == row["adversary_spend"]
        assert terminal.system_size == row["final_size"]

    def test_as_dict_round_trips_every_field(self):
        _, snaps = run_with_snapshots()
        doc = snaps[0].as_dict()
        assert set(doc) == set(MetricsSnapshot._fields)
        assert MetricsSnapshot(**doc) == snaps[0]
        json.dumps(doc)  # service persistence requires JSON-able rows

    def test_wall_fields_are_present_and_sane(self):
        _, snaps = run_with_snapshots()
        for snap in snaps:
            assert snap.wall_time_s >= 0.0
            assert snap.events_per_sec >= 0.0

    def test_no_policy_means_no_emissions(self):
        spec, point = make_point("Null")
        snaps = []
        run_spec_point(spec, point, on_snapshot=snaps.append)
        assert snaps == []


class TestByteIdentityMatrix:
    """Snapshots on vs off: the row must not change by a single byte."""

    @pytest.mark.parametrize("defense", ["Null", "ERGO", "SybilControl"])
    def test_row_identical_with_and_without_snapshots(self, defense):
        spec, point = make_point(defense)
        base = run_spec_point(spec, point)
        snaps = []
        live = run_spec_point(
            spec,
            point,
            snapshot_policy=SnapshotPolicy(sim_interval=0.5),
            on_snapshot=snaps.append,
        )
        assert json.dumps(live, sort_keys=True) == json.dumps(
            base, sort_keys=True
        )
        assert snaps and snaps[-1].last


class TestTracerMirror:
    """An enabled defense tracer mirrors snapshots, listener or not."""

    SNAPSHOT_FIELDS = {
        "seq", "events", "system_size", "bad_fraction",
        "good_spend", "adversary_spend",
        "good_spend_rate", "adversary_spend_rate",
    }

    def _run_ergo(self, snapshots=None):
        from repro.churn.datasets import NETWORKS
        from repro.core.ergo import Ergo
        from repro.sim.engine import Simulation, SimulationConfig
        from repro.sim.rng import RngRegistry

        defense = Ergo()
        defense.tracer.enabled = True
        registry = RngRegistry(seed=7)
        scenario = NETWORKS["gnutella"].scenario(
            horizon=100.0, rng=registry.stream("churn"), n0=300,
            equilibrium=True,
        )
        sim = Simulation(
            SimulationConfig(horizon=100.0, seed=7, snapshots=snapshots),
            defense,
            scenario.events,
            rngs=registry,
            initial_members=scenario.initial,
        )
        sim.run()
        return defense

    def test_snapshots_reach_tracer_without_on_snapshot(self):
        defense = self._run_ergo(SnapshotPolicy(sim_interval=10.0))
        events = defense.tracer.of_kind("snapshot")
        assert events
        assert [e.fields["seq"] for e in events] == list(range(len(events)))
        for event in events:
            assert set(event.fields) == self.SNAPSHOT_FIELDS
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_no_policy_means_no_tracer_snapshots(self):
        defense = self._run_ergo(snapshots=None)
        assert defense.tracer.of_kind("snapshot") == []


class TestRuntimeDelivery:
    """run_tasks delivery: live under jobs=1, bundled under a pool."""

    def _points(self):
        return build_points(
            [SCENARIO], ["Null", "ERGO"], seed=11, n0_scale=N0_SCALE
        )

    def _run(self, jobs):
        from repro.experiments.runtime import run_tasks

        log = []
        report = run_tasks(
            run_scenario_point_live,
            [(p, 20.0) for p in self._points()],
            jobs=jobs,
            star=True,
            on_row=lambda i, row: log.append(("row", i, row)),
            on_snapshot=lambda i, snap: log.append(("snap", i, snap)),
        )
        return report, log

    def _check_delivery(self, report, log):
        assert not report.failures
        assert all(row is not None for row in report.rows)
        for index in range(2):
            entries = [(kind, x) for kind, i, x in log if i == index]
            kinds = [kind for kind, _ in entries]
            # All of an index's snapshots land before its row: a row's
            # arrival means the point (and its telemetry) is complete.
            assert kinds[-1] == "row"
            assert set(kinds[:-1]) == {"snap"}
            snaps = [x for kind, x in entries if kind == "snap"]
            assert [s.seq for s in snaps] == list(range(len(snaps)))
            assert snaps[-1].last
            row = entries[-1][1]
            assert snaps[-1].good_spend == row["good_spend"]

    def test_serial_delivery_is_live_and_ordered(self):
        report, log = self._run(jobs=1)
        self._check_delivery(report, log)

    def test_pool_bundles_arrive_in_emission_order(self):
        report, log = self._run(jobs=2)
        self._check_delivery(report, log)
        serial_report, _ = self._run(jobs=1)
        assert json.dumps(report.rows, sort_keys=True) == json.dumps(
            serial_report.rows, sort_keys=True
        )

    def test_catalog_report_identical_with_snapshot_interval(self):
        base = run_catalog([SCENARIO], ["Null"], seed=11, n0_scale=N0_SCALE)
        snaps = []
        live = run_catalog(
            [SCENARIO], ["Null"], seed=11, n0_scale=N0_SCALE,
            snapshot_interval=20.0,
            on_snapshot=lambda i, snap: snaps.append((i, snap)),
        )
        assert json.dumps(live, sort_keys=True) == json.dumps(
            base, sort_keys=True
        )
        assert snaps and snaps[-1][1].last
