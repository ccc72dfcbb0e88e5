"""The package's public surface: `__all__` is sorted, names each export once,
and every name in it resolves, so a star import runs. The functions that the
benchmark's span tracer wraps exist under the names it looks up."""

import importlib
import importlib.util
from pathlib import Path

import fockcount
from fockcount import algebra_engine


def test_all_is_sorted_without_duplicates():
    assert fockcount.__all__ == sorted(set(fockcount.__all__))


def test_every_public_name_resolves():
    assert [name for name in fockcount.__all__ if not hasattr(fockcount, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fockcount import *", namespace)
    assert set(fockcount.__all__) <= namespace.keys()


def test_every_traced_target_resolves():
    # perfbench/spans.py imports only the stdlib; a target it cannot find is
    # left untraced and its per-layer metrics vanish from a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _, module, attr, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert hasattr(algebra_engine._contract, "cache_info")
