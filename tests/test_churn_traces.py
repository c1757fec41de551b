"""Tests for churn scenarios, block-stream statistics, and CSV output."""

import pytest

from repro.churn.traces import (
    ChurnScenario,
    InitialMember,
    save_trace_csv,
    trace_stats,
)
from repro.sim.blocks import ChurnBlock, blocks_from_events
from repro.sim.events import GoodDeparture, GoodJoin
from tests.reference_sim import expand_churn, load_trace_events


def sample_events():
    return [
        GoodJoin(time=1.0, ident="a", session=5.0),
        GoodJoin(time=2.0, ident="b", session=3.0),
        GoodDeparture(time=4.0, ident="a"),
    ]


def sample_blocks():
    return list(blocks_from_events(sample_events()))


class TestTraceStats:
    def test_counts_and_rates(self):
        stats = trace_stats(sample_blocks())
        assert stats.joins == 2
        assert stats.departures == 1
        assert stats.duration == pytest.approx(3.0)
        assert stats.join_rate == pytest.approx(2.0 / 3.0)
        assert stats.mean_session == pytest.approx(4.0)

    def test_empty_trace(self):
        stats = trace_stats([])
        assert stats.joins == 0
        assert stats.join_rate == 0.0
        assert stats.mean_session is None
        assert stats.peak_joins_1s == 0

    def test_peak_joins_per_second(self):
        events = [
            GoodJoin(time=1.1, ident="a"),
            GoodJoin(time=1.9, ident="b"),
            GoodJoin(time=2.5, ident="c"),
            GoodDeparture(time=2.6, ident="a"),
        ]
        assert trace_stats(blocks_from_events(events)).peak_joins_1s == 2

    def test_unsorted_events_use_earliest_time(self):
        # Blocks may arrive in any order: the trace starts at the
        # earliest one, not at whichever came first.
        stats = trace_stats(
            [ChurnBlock.from_events([GoodJoin(time=t)]) for t in (5.0, 1.0, 3.0)]
        )
        assert stats.first_time == 1.0
        assert stats.duration == pytest.approx(4.0)
        assert stats.join_rate == pytest.approx(0.75)

    def test_event_items_rejected_with_packing_hint(self, tmp_path):
        with pytest.raises(TypeError, match="blocks_from_events"):
            trace_stats(sample_events())
        with pytest.raises(TypeError, match="blocks_from_events"):
            save_trace_csv(tmp_path / "t.csv", sample_events())


class TestBlockVectorizedStats:
    """Satellite: stats reduce blocks with array ops -- no expansion."""

    def _block(self):
        import numpy as np

        return ChurnBlock(
            [1.0, 1.5, 2.0, 4.0],
            [0, 0, 1, 0],
            sessions=np.asarray([5.0, float("nan"), float("nan"), 3.0]),
            idents=["a", "b", "a", "c"],
        )

    def test_blocks_match_expanded_events(self):
        blocks = [self._block()]
        from_blocks = trace_stats(blocks)
        # One row per block: the per-row reduction the vectorized one
        # must reproduce.
        from_events = trace_stats(
            [ChurnBlock.from_events([e]) for e in expand_churn(blocks)]
        )
        assert from_blocks.joins == from_events.joins == 3
        assert from_blocks.departures == from_events.departures == 1
        assert from_blocks.first_time == from_events.first_time
        assert from_blocks.last_time == from_events.last_time
        assert from_blocks.peak_joins_1s == from_events.peak_joins_1s == 2
        assert from_blocks.mean_session == pytest.approx(
            from_events.mean_session
        )

    def test_mixed_blocks_and_events(self):
        # Hand-written events join a block stream once packed.
        stats = trace_stats(
            [self._block(), *blocks_from_events([GoodJoin(time=10.0, ident="z")])]
        )
        assert stats.joins == 4
        assert stats.last_time == 10.0


class TestScenario:
    def test_generator_backed_scenario_reads_twice(self):
        scenario = ChurnScenario(
            name="s", initial=[InitialMember("x")], events=iter(sample_blocks())
        )
        assert trace_stats(scenario.events).joins == 2
        assert trace_stats(scenario.events).joins == 2  # listed once


class TestSingleUseGuard:
    """Scenario events are listed once at construction, whatever the
    source, so every consumer sees the whole trace."""

    def _lazy_scenario(self):
        return ChurnScenario(
            name="lazy", initial=[], events=iter(sample_blocks())
        )

    def test_list_backed_scenario_unaffected(self):
        scenario = ChurnScenario(name="s", initial=[], events=sample_blocks())
        assert trace_stats(scenario.events).joins == 2
        assert trace_stats(scenario.events).joins == 2

    def test_copying_a_scenario_does_not_consume_its_stream(self):
        import dataclasses

        scenario = self._lazy_scenario()
        copy = dataclasses.replace(scenario, name="copy")
        # Constructing the copy must not poison the shared stream: the
        # first real consumer still gets every event.
        assert trace_stats(copy.events).joins == 2


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(path, sample_blocks())
        loaded = load_trace_events(path)
        assert len(loaded) == 3
        assert isinstance(loaded[0], GoodJoin)
        assert loaded[0].ident == "a"
        assert loaded[0].session == pytest.approx(5.0)
        assert isinstance(loaded[2], GoodDeparture)
        assert loaded[2].time == pytest.approx(4.0)

    def test_join_without_session(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(path, blocks_from_events([GoodJoin(time=1.0, ident="a")]))
        loaded = load_trace_events(path)
        assert loaded[0].session is None

    def test_unknown_event_type_rejected(self, tmp_path):
        from repro.sim.events import Tick

        with pytest.raises(TypeError):
            save_trace_csv(tmp_path / "t.csv", [Tick(time=0.0)])


class TestBlockModeCsvRoundTrip:
    """Scenario-emitted churn blocks survive the CSV round-trip.

    Scenarios compile straight to struct-of-arrays blocks; exporting
    them with ``save_trace_csv`` and loading them back must preserve
    event order, kinds, idents, and same-instant ties (rows stay in
    file order, which is pump-admission order).
    """

    def _compiled_blocks(self):
        import numpy as np

        from repro.scenarios.compile import compile_scenario
        from repro.scenarios.spec import (
            FlashCrowd,
            MassExodus,
            ScenarioSpec,
            SteadyState,
        )

        spec = ScenarioSpec(
            name="roundtrip",
            description="csv round-trip fixture",
            phases=(
                SteadyState(duration=40.0),
                FlashCrowd(duration=5.0, joins=60),
                MassExodus(duration=5.0, count=25),
            ),
            n0=50,
        )
        return compile_scenario(spec, np.random.default_rng(13)).blocks

    def test_scenario_blocks_round_trip(self, tmp_path):
        blocks = self._compiled_blocks()
        original = list(expand_churn(blocks))
        assert original, "fixture produced no churn"
        path = tmp_path / "blocks.csv"
        save_trace_csv(path, blocks)
        loaded = load_trace_events(path)
        assert len(loaded) == len(original)
        for orig, back in zip(original, loaded):
            assert type(back) is type(orig)
            assert back.ident == orig.ident
            # save_trace_csv writes times at 6 decimal places.
            assert back.time == pytest.approx(orig.time, abs=1e-6)
        # Times stay non-decreasing, so the loaded trace re-packs into
        # engine-ready blocks (this is the block-mode round trip).
        repacked = list(blocks_from_events(loaded))
        flat = list(expand_churn(repacked))
        assert [type(e) for e in flat] == [type(e) for e in loaded]
        assert [e.time for e in flat] == [e.time for e in loaded]

    def test_same_instant_ties_preserved(self, tmp_path):
        # A synchronized burst: three joins and a departure at t=10.0,
        # in a deliberate order that only file order can preserve.
        block = ChurnBlock(
            [10.0, 10.0, 10.0, 10.0],
            [0, 0, 1, 0],
            idents=["j1", "j2", "victim", "j3"],
        )
        path = tmp_path / "ties.csv"
        save_trace_csv(path, [block])
        loaded = load_trace_events(path)
        assert [e.ident for e in loaded] == ["j1", "j2", "victim", "j3"]
        assert [type(e) for e in loaded] == [
            GoodJoin, GoodJoin, GoodDeparture, GoodJoin,
        ]

    def test_block_writer_bytes_match_event_writer(self, tmp_path):
        import numpy as np

        # The bytes the per-event writer produced for these rows: six
        # decimals, and an empty cell for a missing ident, a NaN or 0.0
        # session and every departure's session.
        block = ChurnBlock(
            [0.5, 1.25, 2.0, 2.0, 3.1234567, 4.0],
            [0, 0, 0, 1, 1, 0],
            sessions=np.asarray(
                [5.5, float("nan"), 0.0, float("nan"), float("nan"), 1e-7]
            ),
            idents=["a", None, "b", "a", None, ""],
        )
        path = tmp_path / "blocks.csv"
        save_trace_csv(path, [block])
        assert path.read_bytes() == (
            b"time,kind,ident,session\r\n"
            b"0.500000,join,a,5.5\r\n"
            b"1.250000,join,,\r\n"
            b"2.000000,join,b,\r\n"
            b"2.000000,depart,a,\r\n"
            b"3.123457,depart,,\r\n"
            b"4.000000,join,,1e-07\r\n"
        )

    def test_lazy_block_iterable_accepted(self, tmp_path):
        # A generator of blocks streams through without materialization.
        save_trace_csv(tmp_path / "t.csv", iter(self._compiled_blocks()))
        assert len(load_trace_events(tmp_path / "t.csv")) > 0

    def test_session_kinds_survive(self, tmp_path):
        import numpy as np

        block = ChurnBlock(
            [1.0, 2.0, 3.0],
            [0, 0, 1],
            sessions=np.asarray([5.5, float("nan"), float("nan")]),
            idents=["a", None, "a"],
        )
        path = tmp_path / "sessions.csv"
        save_trace_csv(path, [block])
        loaded = load_trace_events(path)
        assert loaded[0].session == pytest.approx(5.5)
        assert loaded[1].session is None
        assert loaded[1].ident is None
        assert isinstance(loaded[2], GoodDeparture)
