"""The package's public surface: `__all__` is sorted, names each export once,
and every name in it resolves, so a star import runs."""

import fockcount


def test_all_is_sorted_without_duplicates():
    assert fockcount.__all__ == sorted(set(fockcount.__all__))


def test_every_public_name_resolves():
    assert [name for name in fockcount.__all__ if not hasattr(fockcount, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fockcount import *", namespace)
    assert set(fockcount.__all__) <= namespace.keys()
