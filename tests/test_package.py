"""The package's public names."""

import sigblock


def test_every_export_resolves():
    missing = [name for name in sigblock.__all__ if not hasattr(sigblock, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from sigblock import *", namespace)
    assert set(sigblock.__all__) <= set(namespace)
