"""Tests for the event vocabulary."""

from repro.sim.events import Callback, GoodJoin


def test_events_are_frozen():
    import dataclasses

    import pytest

    event = GoodJoin(time=1.0, ident="a")
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.time = 2.0


def test_good_join_carries_session():
    event = GoodJoin(time=1.0, ident="a", session=30.0)
    assert event.session == 30.0
    assert GoodJoin(time=1.0).session is None


def test_callback_default_is_noop():
    Callback(time=0.0).fn(1.0)  # must not raise


def test_callback_carries_label():
    assert Callback(time=0.0, label="purge").label == "purge"
