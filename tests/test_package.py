"""Tests for the package's public surface."""

import wmtradeoff


def test_exports_resolve_once():
    names = wmtradeoff.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(wmtradeoff, name), name
