"""Spec validation and phase compilation for the scenario subsystem."""

import numpy as np
import pytest

from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import (
    AttackSchedule,
    DiurnalCycle,
    FlashCrowd,
    MassExodus,
    PartitionRejoin,
    ScenarioSpec,
    SessionSpec,
    Silence,
    SteadyState,
    SybilExodus,
    TraceReplay,
)
from repro.sim.blocks import DEPART, JOIN
from repro.sim.events import BadDepartureBatch


def _spec(phases, **kwargs):
    defaults = dict(
        name="t",
        description="test spec",
        phases=tuple(phases),
        n0=200,
        sessions=SessionSpec(kind="exponential", mean=300.0),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def _rng(seed=7):
    return np.random.default_rng(seed)


class TestSpecValidation:
    def test_horizon_sums_phase_durations(self):
        spec = _spec([SteadyState(duration=100.0), Silence(duration=50.0)])
        assert spec.horizon == 150.0

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError, match="no phases"):
            _spec([])

    def test_non_phase_rejected(self):
        with pytest.raises(TypeError, match="not a phase"):
            _spec(["steady"])

    def test_bad_n0_rejected(self):
        with pytest.raises(ValueError, match="n0"):
            _spec([Silence(duration=1.0)], n0=0)

    def test_bad_attack_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            AttackSchedule(profile="tsunami")

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            MassExodus(duration=1.0, fraction=1.5)
        with pytest.raises(ValueError, match="fraction"):
            PartitionRejoin(away=1.0, fraction=-0.1)

    def test_bad_diurnal_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalCycle(duration=100.0, amplitude=1.5)
        with pytest.raises(ValueError, match="period"):
            DiurnalCycle(duration=100.0, amplitude=0.5, period=0.0)

    def test_session_spec_kinds(self):
        for kind in ("exponential", "weibull", "lognormal"):
            dist = SessionSpec(kind=kind, mean=120.0).build()
            assert dist.mean() == pytest.approx(120.0, rel=1e-6)
        with pytest.raises(ValueError, match="session kind"):
            SessionSpec(kind="uniform")


class TestCompile:
    def test_compile_is_deterministic(self):
        spec = _spec(
            [
                SteadyState(duration=100.0),
                FlashCrowd(duration=20.0, multiplier=1.0),
                MassExodus(duration=10.0, fraction=0.3),
            ]
        )
        a = compile_scenario(spec, _rng(3))
        b = compile_scenario(spec, _rng(3))
        assert len(a.blocks) == len(b.blocks)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.times, bb.times)
            assert np.array_equal(ba.kinds, bb.kinds)
        assert [m.ident for m in a.initial] == [m.ident for m in b.initial]
        assert [m.residual for m in a.initial] == [m.residual for m in b.initial]

    def test_blocks_chain_in_time_order(self):
        spec = _spec(
            [
                SteadyState(duration=60.0),
                MassExodus(duration=5.0, fraction=0.5),
                DiurnalCycle(duration=120.0, amplitude=0.5, period=60.0),
                PartitionRejoin(away=30.0, fraction=0.4),
                SteadyState(duration=60.0),
            ]
        )
        compiled = compile_scenario(spec, _rng())
        last = float("-inf")
        for block in compiled.blocks:
            assert block.times[0] >= last
            assert np.all(np.diff(block.times) >= 0)
            last = float(block.times[-1])
        assert compiled.horizon == spec.horizon

    def test_n0_scale_shrinks_everything(self):
        spec = _spec([FlashCrowd(duration=10.0, multiplier=2.0)])
        full = compile_scenario(spec, _rng())
        quarter = compile_scenario(spec, _rng(), n0_scale=0.25)
        assert len(quarter.initial) == 50
        full_joins = sum(len(b) for b in full.blocks)
        quarter_joins = sum(len(b) for b in quarter.blocks)
        # Poisson noise aside, the crowd scales with the population.
        assert quarter_joins < full_joins / 2

    def test_mass_exodus_emits_depart_rows(self):
        spec = _spec([MassExodus(duration=5.0, fraction=0.5)], n0=100)
        compiled = compile_scenario(spec, _rng())
        rows = sum(len(b) for b in compiled.blocks)
        assert rows == 50
        for block in compiled.blocks:
            assert np.all(block.kinds == DEPART)
            assert block.idents is None  # anonymous: uniform random victims

    def test_partition_rejoin_balances(self):
        spec = _spec(
            [PartitionRejoin(away=50.0, fraction=0.5, exodus_window=5.0,
                             rejoin_window=5.0)],
            n0=100,
        )
        compiled = compile_scenario(spec, _rng())
        departs = sum(
            int(np.count_nonzero(b.kinds == DEPART)) for b in compiled.blocks
        )
        joins = sum(
            int(np.count_nonzero(b.kinds == JOIN)) for b in compiled.blocks
        )
        assert departs == joins == 50
        # Rejoins carry sessions; the exodus happens before the rejoin.
        join_blocks = [b for b in compiled.blocks if b.kinds[0] == JOIN]
        depart_blocks = [b for b in compiled.blocks if b.kinds[0] == DEPART]
        assert join_blocks and depart_blocks
        assert join_blocks[0].sessions is not None
        assert depart_blocks[0].times[-1] <= 5.0
        assert join_blocks[0].times[0] >= 55.0

    def test_silence_emits_nothing(self):
        compiled = compile_scenario(_spec([Silence(duration=42.0)]), _rng())
        assert compiled.blocks == []
        assert compiled.horizon == 42.0

    def test_sybil_exodus_schedules_batches(self):
        spec = _spec(
            [
                SteadyState(duration=30.0),
                SybilExodus(duration=20.0, count=400, batches=4),
            ]
        )
        compiled = compile_scenario(spec, _rng())
        assert len(compiled.scheduled) == 4
        times = [e.time for e in compiled.scheduled]
        assert times == sorted(times)
        assert times[0] == 30.0
        assert all(isinstance(e, BadDepartureBatch) for e in compiled.scheduled)
        assert sum(e.count for e in compiled.scheduled) == 400

    def test_trace_replay_resolves_packaged_data(self):
        spec = _spec(
            [TraceReplay(path="tor_relay_flap.csv", duration=500.0)], n0=20
        )
        compiled = compile_scenario(spec, _rng())
        blocks = list(compiled.iter_blocks())
        rows = sum(len(b) for b in blocks)
        assert rows == 183  # the packaged trace's event count
        # Replay is shifted to phase start 0 and clipped at duration.
        assert blocks[0].times[0] == 0.0
        assert blocks[-1].times[-1] <= 500.0

    def test_trace_replay_streams_lazily_by_default(self):
        from repro.sim.blocks import ChurnBlock
        from repro.traces.reader import TraceBlockStream

        spec = _spec(
            [TraceReplay(path="tor_relay_flap.csv", duration=500.0)], n0=20
        )
        compiled = compile_scenario(spec, _rng())
        (part,) = compiled.blocks
        assert isinstance(part, TraceBlockStream)
        assert not isinstance(part, ChurnBlock)
        # The stream is re-iterable: two passes see the same rows.
        first = [b.times.tolist() for b in compiled.iter_blocks()]
        second = [b.times.tolist() for b in compiled.iter_blocks()]
        assert first == second

    def test_trace_replay_clips_at_duration(self):
        spec = _spec(
            [TraceReplay(path="tor_relay_flap.csv", duration=100.0)], n0=20
        )
        compiled = compile_scenario(spec, _rng())
        blocks = list(compiled.iter_blocks())
        clipped = sum(len(b) for b in blocks)
        assert 0 < clipped < 183
        assert blocks[-1].times[-1] <= 100.0

    def test_summary_reports_workload_shape(self):
        spec = _spec(
            [
                FlashCrowd(duration=10.0, joins=300),
                MassExodus(duration=5.0, count=40),
            ],
            n0=100,
        )
        compiled = compile_scenario(spec, _rng())
        summary = compiled.summary()
        assert summary["good_departures"] == 40
        assert summary["good_joins"] > 200
        # A 300-joins-in-10s crowd must show a >= 1/s peak bin.
        assert summary["peak_join_rate"] >= 10
        assert summary["initial_members"] == 100
