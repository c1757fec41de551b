"""Tests for trace containers, statistics, and CSV round-trips."""

import pytest

from repro.churn.traces import (
    ChurnScenario,
    InitialMember,
    load_trace_csv,
    save_trace_csv,
    trace_stats,
)
from repro.sim.events import GoodDeparture, GoodJoin


def sample_events():
    return [
        GoodJoin(time=1.0, ident="a", session=5.0),
        GoodJoin(time=2.0, ident="b", session=3.0),
        GoodDeparture(time=4.0, ident="a"),
    ]


class TestTraceStats:
    def test_counts_and_rates(self):
        stats = trace_stats(sample_events())
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
        assert trace_stats(events).peak_joins_1s == 2

    def test_unsorted_events_use_earliest_time(self):
        # Per-event items may arrive in any order: the trace starts at
        # the earliest one, not at whichever came first.
        stats = trace_stats(
            [GoodJoin(time=5.0), GoodJoin(time=1.0), GoodJoin(time=3.0)]
        )
        assert stats.first_time == 1.0
        assert stats.duration == pytest.approx(4.0)
        assert stats.join_rate == pytest.approx(0.75)


class TestBlockVectorizedStats:
    """Satellite: stats reduce blocks with array ops -- no expansion."""

    def _block(self):
        import numpy as np

        from repro.sim.blocks import ChurnBlock

        return ChurnBlock(
            [1.0, 1.5, 2.0, 4.0],
            [0, 0, 1, 0],
            sessions=np.asarray([5.0, float("nan"), float("nan"), 3.0]),
            idents=["a", "b", "a", "c"],
        )

    def test_blocks_match_expanded_events(self):
        from repro.sim.blocks import flatten_churn

        blocks = [self._block()]
        from_blocks = trace_stats(blocks)
        from_events = trace_stats(list(flatten_churn(blocks)))
        assert from_blocks.joins == from_events.joins == 3
        assert from_blocks.departures == from_events.departures == 1
        assert from_blocks.first_time == from_events.first_time
        assert from_blocks.last_time == from_events.last_time
        assert from_blocks.peak_joins_1s == from_events.peak_joins_1s == 2
        assert from_blocks.mean_session == pytest.approx(
            from_events.mean_session
        )

    def test_no_event_objects_built_for_blocks(self, monkeypatch):
        from repro.sim.blocks import ChurnBlock

        def boom(self):  # pragma: no cover - the point is it never runs
            raise AssertionError("trace_stats expanded a block")

        monkeypatch.setattr(ChurnBlock, "iter_events", boom)
        stats = trace_stats([self._block()])
        assert stats.joins == 3

    def test_mixed_blocks_and_events(self):
        stats = trace_stats([self._block(), GoodJoin(time=10.0, ident="z")])
        assert stats.joins == 4
        assert stats.last_time == 10.0


class TestScenario:
    def test_materialize_allows_replay(self):
        scenario = ChurnScenario(
            name="s", initial=[InitialMember("x")], events=iter(sample_events())
        )
        scenario.materialize()
        assert len(list(scenario.replay())) == 3
        assert len(list(scenario.replay())) == 3  # replayable

    def test_replay_without_materialize_raises(self):
        scenario = ChurnScenario(name="s", initial=[], events=iter([]))
        with pytest.raises(TypeError, match="materialize"):
            scenario.replay()


class TestSingleUseGuard:
    """Regression: consuming an unmaterialized scenario's events used to
    silently exhaust the stream; the next consumer saw an empty trace."""

    def _lazy_scenario(self):
        return ChurnScenario(
            name="lazy", initial=[], events=iter(sample_events())
        )

    def test_stats_then_materialize_raises_clearly(self):
        scenario = self._lazy_scenario()
        stats = trace_stats(scenario.events)
        assert stats.joins == 2  # the first pass works normally
        with pytest.raises(RuntimeError, match="already consumed"):
            scenario.materialize()

    def test_second_stats_pass_raises_instead_of_empty(self):
        scenario = self._lazy_scenario()
        trace_stats(scenario.events)
        with pytest.raises(RuntimeError, match="materialize"):
            trace_stats(scenario.events)

    def test_materialize_first_is_fine(self):
        scenario = self._lazy_scenario().materialize()
        assert trace_stats(scenario.events).joins == 2
        assert trace_stats(scenario.events).joins == 2

    def test_list_backed_scenario_unaffected(self):
        scenario = ChurnScenario(name="s", initial=[], events=sample_events())
        assert trace_stats(scenario.events).joins == 2
        assert trace_stats(scenario.events).joins == 2

    def test_copying_a_scenario_does_not_consume_its_stream(self):
        import dataclasses

        scenario = self._lazy_scenario()
        copy = dataclasses.replace(scenario, name="copy")
        # Constructing the copy must not poison the shared stream: the
        # first real consumer still gets every event.
        assert trace_stats(copy.events).joins == 2

    def test_reiterable_containers_not_wrapped(self):
        # Only true iterators are single-use; a deque (or any other
        # re-iterable Sequence-ish container) must keep working twice.
        from collections import deque

        scenario = ChurnScenario(
            name="s", initial=[], events=deque(sample_events())
        )
        assert trace_stats(scenario.events).joins == 2
        assert trace_stats(scenario.events).joins == 2
        scenario.materialize()
        assert len(list(scenario.replay())) == 3


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        events = sample_events()
        save_trace_csv(path, events)
        loaded = load_trace_csv(path)
        assert len(loaded) == 3
        assert isinstance(loaded[0], GoodJoin)
        assert loaded[0].ident == "a"
        assert loaded[0].session == pytest.approx(5.0)
        assert isinstance(loaded[2], GoodDeparture)
        assert loaded[2].time == pytest.approx(4.0)

    def test_join_without_session(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace_csv(path, [GoodJoin(time=1.0, ident="a")])
        loaded = load_trace_csv(path)
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
        from repro.sim.blocks import blocks_from_events, flatten_churn

        blocks = self._compiled_blocks()
        original = list(flatten_churn(blocks))
        assert original, "fixture produced no churn"
        path = tmp_path / "blocks.csv"
        save_trace_csv(path, blocks)
        loaded = load_trace_csv(path)
        assert len(loaded) == len(original)
        for orig, back in zip(original, loaded):
            assert type(back) is type(orig)
            assert back.ident == orig.ident
            # save_trace_csv writes times at 6 decimal places.
            assert back.time == pytest.approx(orig.time, abs=1e-6)
        # Times stay non-decreasing, so the loaded trace re-packs into
        # engine-ready blocks (this is the block-mode round trip).
        repacked = list(blocks_from_events(loaded))
        flat = list(flatten_churn(repacked))
        assert [type(e) for e in flat] == [type(e) for e in loaded]
        assert [e.time for e in flat] == [e.time for e in loaded]

    def test_same_instant_ties_preserved(self, tmp_path):
        from repro.sim.blocks import ChurnBlock, flatten_churn

        # A synchronized burst: three joins and a departure at t=10.0,
        # in a deliberate order that only file order can preserve.
        block = ChurnBlock(
            [10.0, 10.0, 10.0, 10.0],
            [0, 0, 1, 0],
            idents=["j1", "j2", "victim", "j3"],
        )
        path = tmp_path / "ties.csv"
        save_trace_csv(path, [block])
        loaded = load_trace_csv(path)
        assert [e.ident for e in loaded] == ["j1", "j2", "victim", "j3"]
        assert [type(e) for e in loaded] == [
            GoodJoin, GoodJoin, GoodDeparture, GoodJoin,
        ]

    def test_block_writer_bytes_match_event_writer(self, tmp_path):
        from repro.sim.blocks import flatten_churn

        blocks = self._compiled_blocks()
        block_path = tmp_path / "blocks.csv"
        event_path = tmp_path / "events.csv"
        save_trace_csv(block_path, blocks)
        save_trace_csv(event_path, list(flatten_churn(self._compiled_blocks())))
        assert block_path.read_bytes() == event_path.read_bytes()

    def test_writer_streams_blocks_without_expansion(self, tmp_path, monkeypatch):
        from repro.sim.blocks import ChurnBlock

        def boom(self):  # pragma: no cover - the point is it never runs
            raise AssertionError("save_trace_csv expanded a block")

        monkeypatch.setattr(ChurnBlock, "iter_events", boom)
        save_trace_csv(tmp_path / "t.csv", self._compiled_blocks())
        loaded = load_trace_csv(tmp_path / "t.csv")
        assert len(loaded) > 0

    def test_lazy_block_iterable_accepted(self, tmp_path):
        # A generator of blocks streams through without materialization.
        save_trace_csv(tmp_path / "t.csv", iter(self._compiled_blocks()))
        assert len(load_trace_csv(tmp_path / "t.csv")) > 0

    def test_session_kinds_survive(self, tmp_path):
        import numpy as np

        from repro.sim.blocks import ChurnBlock

        block = ChurnBlock(
            [1.0, 2.0, 3.0],
            [0, 0, 1],
            sessions=np.asarray([5.5, float("nan"), float("nan")]),
            idents=["a", None, "a"],
        )
        path = tmp_path / "sessions.csv"
        save_trace_csv(path, [block])
        loaded = load_trace_csv(path)
        assert loaded[0].session == pytest.approx(5.5)
        assert loaded[1].session is None
        assert loaded[1].ident is None
        assert isinstance(loaded[2], GoodDeparture)
