"""Tests for structured run tracing."""

import pytest

from repro.sim.tracing import TraceRecorder, read_jsonl


class TestTraceRecorder:
    def test_emit_and_query(self):
        tracer = TraceRecorder()
        tracer.emit(1.0, "purge", good=100)
        tracer.emit(2.0, "estimate_update", estimate=4.5)
        tracer.emit(3.0, "purge", good=90)
        assert len(tracer) == 3
        assert len(tracer.of_kind("purge")) == 2
        assert tracer.last().kind == "purge"
        assert tracer.last("estimate_update").fields["estimate"] == 4.5

    def test_disabled_is_a_noop(self):
        tracer = TraceRecorder(enabled=False)
        tracer.emit(1.0, "purge")
        assert len(tracer) == 0

    def test_ring_buffer_drops_oldest(self):
        tracer = TraceRecorder(capacity=3)
        for i in range(5):
            tracer.emit(float(i), "e", index=i)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.fields["index"] for e in tracer] == [2, 3, 4]

    def test_between(self):
        tracer = TraceRecorder()
        for i in range(10):
            tracer.emit(float(i), "e")
        assert len(tracer.between(3.0, 6.0)) == 4

    def test_last_on_empty(self):
        assert TraceRecorder().last() is None
        assert TraceRecorder().last("x") is None

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = TraceRecorder()
        tracer.emit(1.5, "purge", good=10, evicted=3)
        tracer.emit(2.5, "estimate_update", estimate=0.25)
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        events = read_jsonl(path)
        assert len(events) == 2
        assert events[0].kind == "purge"
        assert events[0].fields == {"good": 10, "evicted": 3}
        assert events[1].time == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestErgoIntegration:
    def test_ergo_emits_purge_and_estimate_events(self):
        from tests.helpers import run_small_sim
        from repro.adversary.strategies import GreedyJoinAdversary
        from repro.core.ergo import Ergo

        defense = Ergo()
        defense.tracer.enabled = True
        result, defense = run_small_sim(
            defense,
            adversary=GreedyJoinAdversary(rate=2_000.0),
            horizon=150.0,
            n0=600,
        )
        purges = defense.tracer.of_kind("purge")
        assert len(purges) == defense.purge_count
        assert all(e.fields["good"] > 0 for e in purges)

    @pytest.mark.parametrize("align", [False, True])
    def test_estimate_updates_match_goodjest_intervals(self, align):
        """One ``estimate_update`` per J̃ change, stamped with the
        interval's end and the new estimate -- also under Heuristic 1,
        where a trip only marks the update pending until the purge."""
        from tests.helpers import run_small_sim
        from repro.adversary.strategies import GreedyJoinAdversary
        from repro.core.ergo import Ergo, ErgoConfig

        def run(traced):
            defense = Ergo(
                ErgoConfig(
                    purge_trigger="symdiff", align_estimate_with_purge=align
                )
            )
            defense.tracer.enabled = traced
            return run_small_sim(
                defense,
                adversary=GreedyJoinAdversary(rate=16.0),
                network="bittorrent",
                horizon=3000.0,
                n0=300,
                seed=5,
            )

        result, defense = run(traced=True)
        updates = [
            (e.time, e.fields["estimate"])
            for e in defense.tracer.of_kind("estimate_update")
        ]
        intervals = [(i.end, i.estimate) for i in defense.goodjest.intervals]
        assert len(intervals) >= 2
        assert updates == intervals
        # Tracing observes only: spend totals match an untraced run.
        untraced, _ = run(traced=False)
        assert (result.good_spend, result.adversary_spend) == (
            untraced.good_spend,
            untraced.adversary_spend,
        )

    def test_tracing_disabled_by_default(self):
        from tests.helpers import run_small_sim
        from repro.core.ergo import Ergo

        result, defense = run_small_sim(Ergo(), horizon=50.0, n0=600)
        assert len(defense.tracer) == 0
