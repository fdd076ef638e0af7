"""The package's export list names only what the package defines."""

import sqldiagram


def test_every_export_resolves():
    missing = [name for name in sqldiagram.__all__ if not hasattr(sqldiagram, name)]
    assert missing == []


def test_no_export_repeats():
    assert len(set(sqldiagram.__all__)) == len(sqldiagram.__all__)
