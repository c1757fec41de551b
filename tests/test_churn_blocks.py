"""Tests for struct-of-arrays churn blocks and the block generators."""

import numpy as np
import pytest

from repro.churn.generators import (
    diurnal_rate,
    modulated_join_blocks,
    poisson_join_blocks,
)
from repro.churn.sessions import ExponentialSessions, sample_session_array
from repro.sim.blocks import DEPART, JOIN, ChurnBlock, blocks_from_events
from repro.sim.events import GoodDeparture, GoodJoin, Tick
from tests.reference_sim import expand_churn


class TestChurnBlock:
    def test_roundtrip_through_events(self):
        events = [
            GoodJoin(time=1.0, ident="a", session=5.0),
            GoodJoin(time=2.0, session=None),
            GoodDeparture(time=3.0, ident="a"),
            GoodDeparture(time=4.0),
        ]
        block = ChurnBlock.from_events(events)
        assert len(block) == 4
        assert block.kinds.tolist() == [JOIN, JOIN, DEPART, DEPART]
        assert list(expand_churn([block])) == events

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ChurnBlock([2.0, 1.0], [JOIN, JOIN])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ChurnBlock([1.0, 2.0], [JOIN])
        with pytest.raises(ValueError, match="mismatch"):
            ChurnBlock([1.0], [JOIN], sessions=[1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            ChurnBlock([1.0], [JOIN], idents=["a", "b"])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="JOIN"):
            ChurnBlock([1.0], [7])

    def test_rejects_foreign_event_types(self):
        with pytest.raises(TypeError, match="Tick"):
            ChurnBlock.from_events([Tick(time=1.0)])

    def test_anonymous_rows_have_no_ident_list(self):
        block = ChurnBlock.from_events([GoodJoin(time=1.0), GoodJoin(time=2.0)])
        assert block.idents is None
        assert block.sessions is None

    def test_blocks_from_events_chunks(self):
        events = [GoodJoin(time=float(i)) for i in range(10)]
        blocks = list(blocks_from_events(events, block_size=4))
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert list(expand_churn(blocks)) == events


class TestSessionArray:
    def test_vectorized_matches_distribution(self, rng):
        dist = ExponentialSessions(10.0)
        draws = sample_session_array(dist, rng, 20_000)
        assert draws.shape == (20_000,)
        assert draws.mean() == pytest.approx(10.0, rel=0.05)

    def test_fallback_loops_sample(self, rng):
        class LoopOnly:
            def sample(self, rng):
                return 1.5

        draws = sample_session_array(LoopOnly(), rng, 5)
        assert draws.tolist() == [1.5] * 5

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError, match="negative"):
            sample_session_array(ExponentialSessions(1.0), rng, -1)


class TestPoissonBlocks:
    def test_rate_and_horizon(self, rng):
        blocks = list(
            poisson_join_blocks(
                2.0, ExponentialSessions(10.0), rng, horizon=5_000.0
            )
        )
        n = sum(len(b) for b in blocks)
        assert n == pytest.approx(10_000, rel=0.1)
        for block in blocks:
            assert block.kinds.max() == JOIN
            assert bool(np.all(block.times <= 5_000.0))
            assert block.sessions is not None

    def test_blocks_are_globally_sorted(self, rng):
        blocks = list(
            poisson_join_blocks(
                5.0, ExponentialSessions(10.0), rng, horizon=3_000.0,
                block_size=128,
            )
        )
        assert len(blocks) > 1
        times = np.concatenate([b.times for b in blocks])
        assert bool(np.all(np.diff(times) >= 0))

    def test_zero_rate_yields_nothing(self, rng):
        assert list(
            poisson_join_blocks(0.0, ExponentialSessions(10.0), rng, horizon=10.0)
        ) == []

    def test_invalid_block_size(self, rng):
        with pytest.raises(ValueError, match="block size"):
            list(
                poisson_join_blocks(
                    1.0, ExponentialSessions(10.0), rng, horizon=10.0,
                    block_size=0,
                )
            )


class TestModulatedBlocks:
    def test_diurnal_modulation_shifts_density(self, rng):
        period = 1000.0
        rate_fn = diurnal_rate(base_rate=2.0, amplitude=0.8, period=period)
        blocks = list(
            modulated_join_blocks(
                rate_fn, max_rate=4.0, session_dist=ExponentialSessions(10.0),
                rng=rng, horizon=period,
            )
        )
        times = np.concatenate([b.times for b in blocks])
        first_half = int(np.count_nonzero(times < period / 2))
        second_half = len(times) - first_half
        assert first_half > second_half * 1.5

    def test_rate_above_max_rejected(self, rng):
        def bad_rate(_t):
            return 100.0

        stream = modulated_join_blocks(
            bad_rate, max_rate=1.0, session_dist=ExponentialSessions(10.0),
            rng=rng, horizon=100.0,
        )
        with pytest.raises(ValueError, match="outside"):
            list(stream)
