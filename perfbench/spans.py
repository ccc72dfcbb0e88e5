"""Span tracing of fockcount's layers from outside the library.

`Tracer.install` replaces each target function by a wrapper in every
fockcount module namespace that holds it, because a caller looks a name
up in its own module (``fockcount.gram.inner_product``,
``fockcount.counting.sector_dimension``, ...). A wrapper records a span
(layer name, start, end, parent span) in memory; `layer_totals` derives
calls and self time per layer, where self time is a span's duration minus
the time its child spans cover. A target that no longer exists is
recorded in `absent` and left out.
"""

import importlib
import sys
import time
from collections import defaultdict


def _render_rows(counters, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs.get("rows", ())
    counters["cli.render.rows"] += len(rows)


def _enumerated_states(counters, args, kwargs, result):
    counters["restrictions.enumerate_allowed.states"] += len(result)


def _gram_shape(counters, args, kwargs, result):
    entries = getattr(result, "entries", None)
    if entries is None:
        return
    dim = len(entries)
    counters["gram.gram_matrix.entries"] += dim * dim
    counters["gram.gram_matrix.max_dim"] = max(counters["gram.gram_matrix.max_dim"], dim)
    counters["gram.gram_matrix.zero_rows"] += sum(1 for row in entries if not any(row))


def _rank_shape(counters, args, kwargs, result):
    rows = args[0] if args else kwargs.get("rows", ())
    if rows:
        counters["gram.rational_rank.cells"] += len(rows) * len(rows[0])
        counters["gram.rank_sum"] += result
        counters["gram.dim_sum"] += len(rows)


_CLOSED_FORMS = (
    "binom", "count_cs", "count_cs_closed", "count_cs_equal_pq", "count_cs_bose",
    "count_haldane_wu", "count_real", "count_x_fermi", "count_x_bose",
    "count_gentile", "count_para_restricted",
)
_COMPARES = (
    "compare_cs_finite", "compare_para", "compare_gentile_average", "compare_single_gentile",
)

# (layer, module, function, counter hook)
TARGETS = (
    ("cli.main", "fockcount.cli", "main", None),
    ("cli.render", "fockcount.cli", "render", _render_rows),
    *(("counting.closed", "fockcount.counting", name, None) for name in _CLOSED_FORMS),
    ("counting.count_enumerated", "fockcount.counting", "count_enumerated", None),
    ("restrictions.enumerate_allowed", "fockcount.restrictions", "enumerate_allowed",
     _enumerated_states),
    ("restrictions.count_allowed_words", "fockcount.restrictions", "count_allowed_words", None),
    *(("haldane_params.compare", "fockcount.haldane_params", name, None) for name in _COMPARES),
    ("gram.gram_matrix", "fockcount.gram", "gram_matrix", _gram_shape),
    ("gram.rational_rank", "fockcount.gram", "rational_rank", _rank_shape),
    ("gram.sector_dimension", "fockcount.gram", "sector_dimension", None),
    ("gram.one_particle_dimension", "fockcount.gram", "one_particle_dimension", None),
    ("gram.extended_g", "fockcount.gram", "extended_g", None),
    ("algebra_engine.inner_product", "fockcount.algebra_engine", "inner_product", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start ns, end ns, parent index or -1]
        self.counters: dict[str, float] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, hook=None):
        if layer not in self.names:
            self.names.append(layer)
        name_id = self.names.index(layer)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "fockcount", targets=TARGETS) -> None:
        """Wrap the targets; a target module not yet imported is imported."""
        for _, module_name, _, _ in targets:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, module_name, attr, hook in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(layer, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, self seconds]."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {name: [0, 0.0] for name in self.names}
        for (name_id, start, end, _), child in zip(self.spans, covered):
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += (end - start - child) / 1e9
        return totals
