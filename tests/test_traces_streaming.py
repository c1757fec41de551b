"""Streaming replay wiring: laziness, unsorted input, aliasing."""

import numpy as np
import pytest

from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import ScenarioPointSpec, run_spec_point
from repro.scenarios.spec import (
    ScenarioSpec,
    SessionSpec,
    Silence,
    SteadyState,
    TraceReplay,
)
from repro.sim.blocks import ChurnBlock
from repro.sim.rng import RngRegistry
from repro.traces.reader import TraceBlockStream


def _tor_spec():
    return ScenarioSpec(
        name="tor-replay",
        description="streamed replay fixture",
        phases=(
            TraceReplay(path="tor_relay_flap.csv", duration=500.0),
            Silence(duration=100.0),
        ),
        n0=120,
    )


class TestLazyCompilation:
    def test_streaming_part_is_not_materialized(self):
        compiled = compile_scenario(_tor_spec(), np.random.default_rng(1))
        parts = [p for p in compiled.blocks if not isinstance(p, ChurnBlock)]
        assert len(parts) == 1
        assert isinstance(parts[0], TraceBlockStream)

    def test_pop_dependent_phase_after_stream_warns(self):
        spec = ScenarioSpec(
            name="stream-then-steady",
            description="x",
            phases=(
                TraceReplay(path="tor_relay_flap.csv", duration=200.0),
                SteadyState(duration=50.0),  # rate=None -> pop-sized
            ),
            n0=50,
        )
        compiled = compile_scenario(spec, np.random.default_rng(1))
        assert any("population estimate" in w for w in compiled.warnings)

    def test_pinned_rate_phase_after_stream_does_not_warn(self):
        spec = ScenarioSpec(
            name="stream-then-pinned",
            description="x",
            phases=(
                TraceReplay(path="tor_relay_flap.csv", duration=200.0),
                SteadyState(duration=50.0, rate=2.0),
            ),
            n0=50,
        )
        compiled = compile_scenario(spec, np.random.default_rng(1))
        assert compiled.warnings == []


class TestSinglePass:
    def test_run_spec_point_streams_the_trace_once(self, monkeypatch):
        from repro.traces import reader

        calls = []
        stream = reader.stream_trace_blocks

        def counting(*args, **kwargs):
            calls.append(args[0])
            return stream(*args, **kwargs)

        monkeypatch.setattr(reader, "stream_trace_blocks", counting)
        spec = _tor_spec()
        point = ScenarioPointSpec(
            scenario=spec.name, defense="Null", seed=4, t_rate=0.0
        )
        row = run_spec_point(spec, point)
        assert len(calls) == 1
        compiled = compile_scenario(
            spec, RngRegistry(seed=point.seed).stream(f"scenario.{spec.name}")
        )
        summary = compiled.summary()
        assert row["peak_join_rate"] == summary["peak_join_rate"] > 0
        assert row["initial_members"] == summary["initial_members"]


class TestUnsortedTrace:
    def test_unsorted_trace_fails_run_with_line_and_sort_advice(self, tmp_path):
        # Unsorted rows are malformed input: the run fails with the
        # reader's file:line diagnostic, not with silently reordered
        # churn.
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "time,kind,ident,session\n"
            "0.0,join,a,\n"
            "5.0,join,b,\n"
            "2.0,depart,a,\n"
        )
        spec = ScenarioSpec(
            name="unsorted",
            description="x",
            phases=(TraceReplay(path=str(path), duration=10.0),),
            n0=10,
        )
        point = ScenarioPointSpec(
            scenario="unsorted", defense="Null", seed=3, t_rate=0.0
        )
        with pytest.raises(
            ValueError, match=r"unsorted\.csv: line 4: .*sort the rows by time"
        ):
            run_spec_point(spec, point)


class TestTraceIdentAliasing:
    """Named trace departures must remove the *re-issued* member.

    Section 2.1.1 renames every joiner uniquely (``relay-09`` becomes
    ``relay-09#N``), so without engine-side aliasing a flap trace's
    departure rows never match a member and every cycle leaks one
    standing ID.
    """

    def test_flapping_ident_does_not_leak(self, tmp_path):
        # The trace's idents reach the engine through
        # ``TraceBlockStream``'s ident column.
        path = tmp_path / "flap.csv"
        lines = ["time,kind,ident,session"]
        t = 0.0
        for _ in range(25):
            lines.append(f"{t:.6f},join,flappy,")
            lines.append(f"{t + 1.0:.6f},depart,flappy,")
            t += 2.0
        path.write_text("\n".join(lines) + "\n")
        spec = ScenarioSpec(
            name="alias-check",
            description="x",
            phases=(
                TraceReplay(path=str(path), duration=100.0),
            ),
            n0=10,
            # Sessions far beyond the horizon: no background departures
            # muddy the final-size assertion.
            sessions=SessionSpec(kind="exponential", mean=1e9),
        )
        point = ScenarioPointSpec(
            scenario="alias-check", defense="Null", seed=3, t_rate=0.0
        )
        row = run_spec_point(spec, point)
        assert row["good_joins"] == 25
        assert row["good_departures"] == 25
        # Every flap cycle departed its own re-issued member: the final
        # population is exactly the initial one.
        assert row["final_size"] == 10

    def test_named_session_joins_do_not_grow_alias_maps(self):
        # Joins that carry BOTH an ident and a session retire their
        # alias bookkeeping when the engine-scheduled departure fires;
        # otherwise the maps would grow with total named joins.
        import numpy as np

        from repro.sim.blocks import ChurnBlock
        from repro.sim.engine import Simulation, SimulationConfig
        from repro.sim.null_defense import NullDefense

        n = 200
        times = np.arange(n, dtype=np.float64)
        block = ChurnBlock(
            times,
            np.zeros(n, dtype=np.uint8),
            sessions=np.full(n, 0.5),
            idents=[f"peer-{i}" for i in range(n)],  # all distinct
        )
        sim = Simulation(
            SimulationConfig(horizon=float(n + 10), seed=1),
            NullDefense(),
            iter([block]),
        )
        result = sim.run()
        assert result.counters["good_join_events"] == n
        assert result.counters["good_departure_events"] == n
        assert sim._trace_aliases == {}
        assert sim._alias_owners == {}
