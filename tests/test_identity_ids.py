"""Tests for unique ID issuance."""

from repro.identity.ids import IdentityFactory


def test_rejoining_name_is_a_new_id():
    """Every joining ID is treated as a new ID (Section 2.1.1)."""
    factory = IdentityFactory()
    first = factory.issue()
    second = factory.issue()
    assert first != second


def test_all_issued_names_unique():
    factory = IdentityFactory()
    issued = {factory.issue() for _ in range(1000)}
    assert len(issued) == 1000


def test_issued_counter():
    factory = IdentityFactory()
    factory.issue()
    factory.issue()
    assert factory.issue() == 3


def test_issue_batch_matches_repeated_issue():
    batched = IdentityFactory()
    single = IdentityFactory()
    assert list(batched.issue_batch(3)) == [single.issue() for _ in range(3)]
    assert batched.issue() == single.issue() == 4
