"""Batch command-line interface: counting sweeps, enumeration, Gram ranks,
statistics parameters, spectra and the self-verification suite.

Every run walks a parameter grid in lexicographic order and emits one row
per grid point, as CSV or JSON. Exact rationals render as "a/b" in CSV and
as {"num": a, "den": b} in JSON. Output is deterministic byte for byte;
the exit status is non-zero exactly when some oracle or identity check
disagreed. Grid points are independent of each other, so they may be
evaluated in any order or in parallel; rows are always emitted in grid
order.
"""

import argparse
import csv
import io
import os
import sys
from collections.abc import Iterable
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product

from .core import bose, fermi, quon
from .counting import (
    binom,
    avg_g_identity_holds,
    binomial_identity_holds,
    count_cs,
    count_cs_bose,
    count_cs_closed,
    count_cs_equal_pq,
    count_enumerated,
    count_gentile,
    count_haldane_wu,
    count_para_restricted,
    count_real,
    count_window_min,
    count_x_bose,
    count_x_fermi,
)
from .cs_model import Filling, energy, ground_energy, pseudomomenta
from .gram import orbit_size, sector_dimension
from .haldane_params import (
    compare_cs_finite,
    compare_gentile_average,
    compare_para,
    compare_single_gentile,
    g_average_cs,
    g_cs_finite,
    g_gentile_average,
    g_haldane_cs,
    g_para_restricted,
    g_single_gentile,
)
from .restrictions import (
    DEFAULT_CANDIDATE_CAP,
    CSRule,
    CapacityExceededError,
    GentileRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    _check_candidates,
    _check_sizes,
    count_allowed_states,
    enumerate_allowed,
)

EPILOG = """Grids accept "4", "2..6" (inclusive) or "1,3,5"; rational lists
accept entries like "1/2". A JSON config file may predefine any long
option (dashes become underscores); explicit flags win."""


def parse_int_values(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip() != ""]


def parse_frac_values(text: str) -> list[Fraction]:
    text = text.strip()
    if ".." in text:
        return [Fraction(v) for v in parse_int_values(text)]
    return [Fraction(part) for part in text.split(",") if part.strip() != ""]


def parse_float_values(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def parse_int_set(text: str) -> list[tuple[int, ...]]:
    """A one-value grid: the sorted distinct entries of an integer list."""
    return [tuple(sorted(set(parse_int_values(text))))]


def parse_sides(text: str) -> list[str]:
    sides = text.split(",")
    for side in sides:
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
    return sides


# How each cell type the commands emit is written into CSV; bool comes
# before int, because a bool is also an int.
_CELL_FORMATS = {
    bool: lambda v: "true" if v else "false",
    int: str,
    Fraction: str,
    tuple: lambda v: " ".join([str(x) for x in v]),
    float: repr,
    type(None): lambda v: "",
    str: str,
}


def format_cell(value) -> str:
    for kind, fmt in _CELL_FORMATS.items():
        if isinstance(value, kind):
            return fmt(value)
    return str(value)


def json_cell(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        return list(value)
    return value


def render(header: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "json":
        import json

        payload = [dict(zip(header, (json_cell(v) for v in row))) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    formats = _CELL_FORMATS
    # One row at a time: materialising every row first raises peak memory.
    for row in rows:
        writer.writerow([formats.get(type(v), format_cell)(v) for v in row])
    return buf.getvalue()


def _alg_from_spec(text: str):
    if text == "bose":
        return bose()
    if text == "fermi":
        return fermi()
    if text.startswith("quon:"):
        return quon(Fraction(text.split(":", 1)[1]))
    raise ValueError(f"algebra must be bose, fermi or quon:Q, got {text!r}")


# rule family -> (option names, rule builder), read by `enumerate --family`
# and `gram --rule-family`; every option takes a single value there.
RULES = {
    "none": ((), lambda: None),
    "cs": (("p", "q"), CSRule),
    "cs-bose": (("q",), lambda q: CSRule(0, q)),
    "x-fermi": (("x_set",), XFermiRule),
    "x-bose": (("x_set",), XBoseRule),
    "window-min": (("p",), lambda p: WindowRule(p, "min")),
    "window-max": (("p",), lambda p: WindowRule(p, "max")),
    "gentile": (("m",), GentileRule),
    "total-cap": (("p",), TotalCapRule),
}


def _rule_from_args(family: str, args):
    if family not in RULES:
        raise ValueError(f"no restriction rule for family {family!r}")
    options, build = RULES[family]
    return build(*[_single(args, name) for name in options])


def _single(args, name: str):
    values = getattr(args, name, None)
    flag = _flags(args.command)[name]
    if not values:
        raise ValueError(f"option --{flag} is required here")
    if len(values) > 1:
        raise ValueError(f"option --{flag} takes a single value here")
    return values[0]


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, []):
            scope = f"family {args.family!r}" if "family" in vars(args) else args.command
            raise ValueError(f"--{_flags(args.command)[name]} is required for {scope}")


# ---------------------------------------------------------------- count ---

def _gram_count(alg):
    """The definitional count: Gram ranks summed over the index multisets."""
    return lambda m, n, rule, cap: count_enumerated(m, n, rule, alg, cap=cap)


# For q = 0 quons the Gram route counts the allowed words.
_WORDS = _gram_count(quon(0))


def _integer_gap(coupling: Fraction) -> CSRule | None:
    """At a non-negative integer coupling the haldane-wu and real laws count
    the integer-gap states CSRule(coupling, 1); elsewhere no rule does."""
    if coupling.denominator == 1 and coupling >= 0:
        return CSRule(int(coupling), 1)
    return None


# count family -> (option names, closed form, formula tag, oracle rule
# builder, oracle counter). The closed form takes (M, N, *option values),
# the rule builder the option values, and returns None where the family
# has no oracle; the counter takes (M, N, rule, cap).
COUNT_FAMILIES = {
    "cs": (("p", "q"), count_cs, "cs-slack-sum", CSRule, _WORDS),
    "cs-bose": (("q",), count_cs_bose, "cs-bose-closed", RULES["cs-bose"][1], _WORDS),
    "haldane-wu": (("g",), count_haldane_wu, "interpolating-binomial", _integer_gap, _WORDS),
    "real": (("lam",), count_real, "real-coupling-binomial", _integer_gap, _WORDS),
    "x-fermi": (("x_set",), count_x_fermi, "gap-walk", XFermiRule, _WORDS),
    "x-bose": (("x_set",), count_x_bose, "support-convolution", XBoseRule, _WORDS),
    "gentile": (("m",), count_gentile, "histogram-multinomial", GentileRule,
                _gram_count(bose())),
    "para-fermi": (("p",), lambda m, n, p: count_para_restricted(m, n, p, "fermi"),
                   "capped-binomial", TotalCapRule, _gram_count(fermi())),
    "para-bose": (("p",), lambda m, n, p: count_para_restricted(m, n, p, "bose"),
                  "capped-binomial", TotalCapRule, _gram_count(bose())),
    "window-min": (("p",), count_window_min, "min-window-binomial", RULES["window-min"][1],
                   lambda m, n, rule, cap: count_allowed_states(m, n, rule)),
}

# Output column of an option, where it differs from the option's name.
_COLUMNS = {"lam": "lambda", "x_set": "x"}


def _grid_points(args, names):
    """The product of the named grids, in order; each one is required."""
    _require(args, *names)
    return product(*[getattr(args, name) for name in names])


def _sweep(args, columns, points, closed, oracle, oracle_column, tail):
    """One row (family, *point, value, *tail cells[, check, agrees]) per
    grid point, in grid order; `tail` maps trailing columns to fixed cells.

    A point where the closed form raises ValueError gets empty value, check
    and agrees cells and a warning on stderr; a grid with no defined point
    is an error. The oracle (or None) is called on defined points only and
    may return None where it has no value; an error it raises aborts."""
    header = ["family", *columns, "value", *tail]
    rows: list[tuple] = []
    undefined: list[tuple[tuple, ValueError]] = []
    failures = 0
    for point in points:
        try:
            value = closed(*point)
        except ValueError as exc:
            undefined.append((point, exc))
            value = None
        row = [args.family, *point, value, *tail.values()]
        if args.oracle:
            check = None if value is None or oracle is None else oracle(*point)
            agrees = None if check is None else check == value
            failures += agrees is False
            row += [check, agrees]
        rows.append(tuple(row))
    if undefined and len(undefined) == len(rows):
        raise undefined[0][1]
    for point, exc in undefined:
        where = " ".join(f"{column}={format_cell(v)}" for column, v in zip(columns, point))
        print(f"warning: {where}: {exc}", file=sys.stderr)
    if args.oracle:
        header += [oracle_column, "agrees"]
    return header, rows, failures


def run_count(args) -> tuple[list[str], list[tuple], int]:
    options, closed, formula, oracle_rule, oracle_count = COUNT_FAMILIES[args.family]

    def oracle(m, n, *values):
        rule = oracle_rule(*values)
        return None if rule is None else oracle_count(m, n, rule, args.cap)

    columns = ["M", "N", *[_COLUMNS.get(name, name) for name in options]]
    points = _grid_points(args, ("M", "N", *options))
    return _sweep(args, columns, points, closed, oracle, "oracle", {"formula": formula})


# ------------------------------------------------------------ enumerate ---

def run_enumerate(args) -> tuple[list[str], list[tuple], int]:
    _require(args, "M", "N")
    rule = _rule_from_args(args.family, args)
    header = ["family", "M", "N", "index", "state"]
    rows = []
    for m, n in product(args.M, args.N):
        states = enumerate_allowed(m, n, rule, cap=args.cap)
        for i, state in enumerate(states):
            rows.append((args.family, m, n, i, state))
    return header, rows, 0


# ----------------------------------------------------------------- gram ---

def run_gram(args) -> tuple[list[str], list[tuple], int]:
    alg = _alg_from_spec(args.alg)
    rule = _rule_from_args(args.rule_family or "none", args)
    header = ["multiset", "algebra", "dimension", "rank"]
    rows = []
    if args.multiset:
        multisets = [tuple(sorted(args.multiset))]
    else:
        _require(args, "M", "N")
        multisets = []
        for m, n in product(args.M, args.N):
            _check_sizes(m, n, least=1)
            _check_candidates(m, n, args.cap)
            multisets += combinations_with_replacement(range(1, m + 1), n)
    for ms in multisets:
        rows.append((ms, args.alg, orbit_size(ms), sector_dimension(ms, alg, rule)))
    return header, rows, 0


# --------------------------------------------------------------- params ---

def _definitional(compare):
    """The definitional value of a compare_* helper at one grid point."""
    return lambda *point: compare(*point).g_definitional


def _default_m0(p: int, q: int, n: int, i1: int) -> int:
    """The first lattice size M0 = N·p + q + i1 + 2 of a cs-average window
    where none is given."""
    return n * p + q + i1 + 2


def _cs_average_points(args):
    """--M is the M0 grid; without it each point takes `_default_m0`."""
    _require(args, "N", "p", "q", "i1")
    for p, q, m0, n, i1 in product(args.p, args.q, args.M or [None], args.N, args.i1):
        yield p, q, _default_m0(p, q, n, i1) if m0 is None else m0, n, i1


def _pattern_points(args):
    """One point: the occupancy pattern on its own number of sites."""
    _require(args, "pattern")
    yield tuple(args.pattern), sum(args.pattern)


# params family -> (output columns, closed form, definitional value or None,
# grid points). The closed form and the definitional value take one point.
# Points None walks the product of the grids the columns name; otherwise it
# maps the parsed options to the points.
PARAM_FAMILIES = {
    "cs-finite": (("M", "i1", "N", "p", "q", "side"), g_cs_finite,
                  _definitional(compare_cs_finite), None),
    "cs-average": (("p", "q", "M0", "N", "i1"), g_average_cs, None, _cs_average_points),
    "cs-haldane": (("p", "q", "nlast"), g_haldane_cs, None, None),
    "gentile-average": (("pattern", "M"), g_gentile_average,
                        _definitional(compare_gentile_average), _pattern_points),
    "single-gentile": (("n", "m"), lambda n, m: Fraction(g_single_gentile(n, m)),
                       _definitional(compare_single_gentile), None),
    "para-fermi": (("M", "n", "k", "p"), partial(g_para_restricted, kind="fermi"),
                   _definitional(partial(compare_para, kind="fermi")), None),
    "para-bose": (("M", "n", "k", "p"), partial(g_para_restricted, kind="bose"),
                  _definitional(partial(compare_para, kind="bose")), None),
}


def run_params(args) -> tuple[list[str], list[tuple], int]:
    columns, closed, definitional, points = PARAM_FAMILIES[args.family]
    grid = points(args) if points else _grid_points(args, columns)
    return _sweep(args, columns, grid, closed, definitional, "definitional", {})


# ------------------------------------------------------------- spectrum ---

def run_spectrum(args) -> tuple[list[str], list[tuple], int]:
    _require(args, "N", "lam", "L")
    header = ["N", "lambda", "L", "anchor", "filling", "energy",
              "ground_energy", "agrees"]
    rows = []
    failures = 0
    for n, lam, length in product(args.N, args.lam, args.L):
        shifts = tuple(args.filling) if args.filling else (0,) * n
        if len(shifts) != n:
            raise ValueError(
                f"filling has {len(shifts)} entries but N={n}"
            )
        filling = Filling(shifts, lam, length)
        e = energy(pseudomomenta(filling, anchor=args.anchor))
        if all(s == 0 for s in shifts) and args.anchor == "symmetric":
            e0 = ground_energy(n, lam, length)
            scale = max(abs(e0), 1.0)
            agrees = abs(e - e0) <= 1e-12 * scale
            if not agrees:
                failures += 1
            rows.append((n, lam, length, args.anchor, shifts, e, e0, agrees))
        else:
            rows.append((n, lam, length, args.anchor, shifts, e, None, None))
    return header, rows, failures


# --------------------------------------------------------------- verify ---

def _verify_avg_g():
    for p, q, m in product(range(5), range(1, 5), (10, 23, 50)):
        ok = avg_g_identity_holds(p, q, m)
        yield (f"p={p} q={q} M={m}", ok, f"block sum must equal {p}")


def _verify_binom():
    for n, alpha in product(range(6), range(1, 9)):
        ok = binomial_identity_holds(n, alpha)
        yield (f"n={n} alpha={alpha}", ok, "three forms must coincide")


def _verify_cs_oracle():
    for m, n, p, q in product(range(1, 9), range(1, 4), range(3), range(1, 3)):
        closed = count_cs(m, n, p, q)
        enum = count_enumerated(m, n, CSRule(p, q))
        yield (f"M={m} N={n} p={p} q={q}", closed == enum,
               f"closed={closed} enumerated={enum}")


def _verify_cs_closed():
    for m, n, p, q in product(range(1, 9), range(1, 4), range(3), range(1, 3)):
        a = count_cs(m, n, p, q)
        b = count_cs_closed(m, n, p, q)
        yield (f"M={m} N={n} p={p} q={q}", a == b, f"sum={a} closed={b}")


def _verify_cs_equal_pq():
    for q, m, n in product(range(1, 4), range(1, 9), range(1, 4)):
        a = count_cs(m, n, q, q)
        b = count_cs_equal_pq(m, n, q)
        yield (f"M={m} N={n} q={q}", a == b, f"sum={a} closed={b}")


def _verify_cs_integer_gap():
    for m, n, p in product(range(1, 9), range(1, 5), range(4)):
        a = count_cs(m, n, p, 1)
        b = count_window_min(m, n, p)
        yield (f"M={m} N={n} p={p}", a == b, f"sum={a} binomial={b}")


def _verify_real_integer():
    for m, n, p in product(range(1, 9), range(1, 5), range(4)):
        a = count_real(m, n, Fraction(p))
        b = count_cs(m, n, p, 1)
        yield (f"M={m} N={n} lambda={p}", a == b, f"real={a} integer-gap={b}")


def _verify_x_bose():
    base = (1, 2, 3)
    subsets = [
        tuple(x for i, x in enumerate(base) if mask & (1 << i))
        for mask in range(1, 8)
    ]
    for xs, m, n in product(subsets, range(1, 7), range(1, 4)):
        a = count_x_bose(m, n, xs)
        b = len(enumerate_allowed(m, n, XBoseRule(xs)))
        yield (f"X={','.join(map(str, xs))} M={m} N={n}", a == b,
               f"convolution={a} enumerated={b}")


def _verify_gentile_bounds():
    for m, n, cap_m in product(range(1, 6), range(1, 6), range(1, 5)):
        d = count_gentile(m, n, cap_m)
        lo, hi = binom(m, n), binom(m + n - 1, n)
        ok = lo <= d <= hi
        if cap_m == 1:
            ok = ok and d == lo
        if cap_m >= n:
            ok = ok and d == hi
        yield (f"M={m} N={n} m={cap_m}", ok, f"fermi={lo} value={d} bose={hi}")


def _verify_para_g():
    for m, p in product((4, 6, 8), range(1, 4)):
        for n in range(1, p + 1):
            for k in range(1, p + 2 - n):
                for kind in ("bose", "fermi"):
                    report = compare_para(m, n, k, p, kind)
                    yield (
                        f"kind={kind} M={m} n={n} k={k} p={p}",
                        bool(report.agrees),
                        f"closed={report.g_closed_form} "
                        f"definitional={report.g_definitional}",
                    )


def _verify_cs_average():
    for p, q in product(range(5), range(1, 5)):
        n, i1 = 2, 1
        m0 = _default_m0(p, q, n, i1)
        value = g_average_cs(p, q, m0, n, i1)
        yield (f"p={p} q={q} M0={m0}", value == Fraction(p, q),
               f"average={value} expected={Fraction(p, q)}")


def _verify_cs_finite_definitional():
    # Left side only in the bulk (i1 > 2p); at the wall the closed form
    # stops counting real sites and only the definitional route is right.
    for p, q, n, i1 in product(range(1, 3), range(1, 4), range(1, 3), (1, 3, 5)):
        m = i1 + (n + 1) * p + 2 * q + 3
        for side in ("left", "right"):
            if side == "left" and i1 - 2 * p < 1:
                continue
            report = compare_cs_finite(m, i1, n, p, q, side)
            strict = report.context["strict_closed_form"]
            ok = strict == report.g_definitional
            yield (
                f"M={m} i1={i1} N={n} p={p} q={q} side={side}",
                ok,
                f"strict={strict} definitional={report.g_definitional} "
                f"nonstrict={report.g_closed_form}",
            )


def _verify_gram_rank():
    from math import factorial

    for n in range(1, 4):
        ms = tuple(range(1, n + 1))
        for q in (Fraction(0), Fraction(1, 2)):
            rank = sector_dimension(ms, quon(q))
            yield (f"distinct N={n} quon q={q}", rank == factorial(n),
                   f"rank={rank} expected={factorial(n)}")
        rank_b = sector_dimension(ms, bose())
        yield (f"distinct N={n} bose", rank_b == 1, f"rank={rank_b} expected=1")
    rank_f = sector_dimension((1, 1, 2), fermi())
    yield ("repeat fermi (1,1,2)", rank_f == 0, f"rank={rank_f} expected=0")


def _verify_window_max():
    # Informational: the two composition conventions for the max window.
    for m, n, p in product(range(4, 7), (2, 3), (1, 2)):
        states = enumerate_allowed(m, n, None)
        adjacent = sum(
            1 for s in states if WindowRule(p, "max").allows(s)
        )
        all_pairs = sum(1 for s in states if s[-1] - s[0] <= p)
        yield (f"M={m} N={n} p={p}", None,
               f"adjacent-pairs={adjacent} all-pairs={all_pairs}")


VERIFY_KINDS = {
    "avg-g-identity": _verify_avg_g,
    "binom-identity": _verify_binom,
    "cs-average": _verify_cs_average,
    "cs-closed-form": _verify_cs_closed,
    "cs-equal-pq-form": _verify_cs_equal_pq,
    "cs-finite-definitional": _verify_cs_finite_definitional,
    "cs-integer-gap": _verify_cs_integer_gap,
    "cs-oracle": _verify_cs_oracle,
    "gentile-bounds": _verify_gentile_bounds,
    "gram-rank": _verify_gram_rank,
    "para-g": _verify_para_g,
    "real-integer": _verify_real_integer,
    "window-max-conventions": _verify_window_max,
    "x-bose-convolution": _verify_x_bose,
}


def run_verify(args) -> tuple[list[str], list[tuple], int]:
    kinds = sorted(VERIFY_KINDS) if args.all else args.kind
    if not kinds:
        raise ValueError("choose --all or --kind")
    for kind in kinds:
        if kind not in VERIFY_KINDS:
            raise ValueError(
                f"unknown verify kind {kind!r}; known: {', '.join(sorted(VERIFY_KINDS))}"
            )
    header = ["check", "params", "status", "detail"]
    rows = []
    failures = 0
    for kind in kinds:
        for params, ok, detail in VERIFY_KINDS[kind]():
            if ok is None:
                status = "info"
            elif ok:
                status = "pass"
            else:
                status = "fail"
                failures += 1
            rows.append((kind, params, status, detail))
    return header, rows, failures


# ----------------------------------------------------------------- main ---

# The add_argument keywords of options that several commands take.
_INTS = {"type": parse_int_values}
_X_SET = {"type": parse_int_set}
_LAMBDA = {"dest": "lam", "type": parse_frac_values}
# Read by the commands that walk index multisets.
_CAP = {"type": int, "default": DEFAULT_CANDIDATE_CAP,
        "help": "max index multisets per grid point"}

# The options every command takes, after its own.
_COMMON = {
    "config": {"help": "JSON file predefining options"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {"help": "write output to this path"},
}

# command -> (help, options, runner), in the order `--help` lists them. Each
# option maps its long name to its add_argument keywords, in help order; a
# default there applies once the command line and config file are read.
COMMANDS = {
    "count": ("closed-form counting sweeps", {
        "family": {"choices": COUNT_FAMILIES, "required": True},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "m": _INTS,
        "g": {"type": parse_frac_values}, "lambda": _LAMBDA, "x-set": _X_SET,
        "oracle": {"action": "store_true",
                   "help": "compare each value against the enumerated count"},
        "cap": _CAP,
    }, run_count),
    "enumerate": ("list allowed canonical states", {
        "family": {"choices": RULES, "default": "none"},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "m": _INTS, "x-set": _X_SET,
        "cap": _CAP,
    }, run_enumerate),
    "gram": ("Gram dimensions and exact ranks", {
        "multiset": _INTS,
        "alg": {"default": "quon:0", "help": "bose, fermi or quon:Q (e.g. quon:1/2)"},
        "rule-family": {"choices": RULES},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "m": _INTS, "x-set": _X_SET,
        "cap": _CAP,
    }, run_gram),
    "params": ("exclusion-statistics parameters", {
        "family": {"choices": PARAM_FAMILIES, "required": True},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "i1": _INTS, "n": _INTS,
        "k": _INTS, "m": _INTS, "nlast": _INTS, "pattern": _INTS,
        "side": {"type": parse_sides, "default": ["right"],
                 "help": "left, right or left,right"},
        "oracle": {"action": "store_true",
                   "help": "compare against the definitional dimension count"},
    }, run_params),
    "spectrum": ("ring-model pseudomomentum spectra", {
        "N": _INTS, "lambda": _LAMBDA, "L": {"type": parse_float_values},
        "filling": _INTS,
        "anchor": {"choices": ("symmetric", "literal"), "default": "symmetric"},
    }, run_spectrum),
    "verify": ("self-check identity suite", {
        "all": {"action": "store_true"},
        "kind": {"action": "append", "help": "run one named check (repeatable)"},
    }, run_verify),
}


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's stock help formatter, sized as it sizes itself: two columns
    short of shutil.get_terminal_size().columns. The width is read here
    through os, because without a width the formatter imports shutil (and
    bz2, lzma, zlib and fnmatch with it), and argparse builds one formatter
    per add_argument."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


def build_parser(commands: Iterable[str] = COMMANDS) -> argparse.ArgumentParser:
    """The argument parser with a subparser for each named command."""
    parser = argparse.ArgumentParser(
        prog="fockcount",
        formatter_class=_help_formatter,
        # names every command even when only one subparser is built
        usage="%(prog)s [-h] {" + ",".join(COMMANDS) + "} ...",
        description="Exact state counting for restricted oscillator algebras.",
        epilog=EPILOG,
    )
    subs = parser.add_subparsers(dest="command", required=True, prog="fockcount")
    for command in commands:
        sub = subs.add_parser(command, help=COMMANDS[command][0],
                              formatter_class=_help_formatter)
        for name, spec in {**COMMANDS[command][1], **_COMMON}.items():
            # None marks an option unset; _apply_config fills in its default
            sub.add_argument(f"--{name}", **{**spec, "default": None})
    return parser


def _config_value(spec: dict, key: str, raw):
    """A config file value, converted and checked by its option's type and
    choices as the same text on the command line would be. A list is its
    entries joined with ",", or one entry per use of a repeatable option; a
    flag takes only true or false."""
    action = spec.get("action")
    if action == "store_true":
        if not isinstance(raw, bool):
            raise ValueError(f"config key {key!r} must be true or false, got {raw!r}")
        return raw
    items = raw if isinstance(raw, list) else [raw]
    if not items or not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                            for v in items):
        raise ValueError(
            f"config key {key!r} must be a string, a number or a list of them, got {raw!r}")
    repeated = action == "append"
    texts = [str(v) for v in items] if repeated else [",".join(map(str, items))]
    parse = spec.get("type", str)
    values = [parse(text) for text in texts]
    choices = spec.get("choices")
    for value in values:
        if choices is not None and value not in choices:
            raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                             f"(choose from {', '.join(choices)})")
    return values if repeated else values[0]


def _flags(command: str) -> dict[str, str]:
    """Each argparse dest of the command, mapped to its long option name."""
    options = {**COMMANDS[command][1], **_COMMON}
    return {spec.get("dest", name.replace("-", "_")): name for name, spec in options.items()}


def _apply_config(args) -> None:
    """Fill unset options from the JSON config file, then from defaults.

    A config key is a long option name, with "-" or "_". A key that is an
    option of another command is skipped, so one file can serve several
    commands; a key that no command has is an error.
    """
    options = {**COMMANDS[args.command][1], **_COMMON}
    dests = {name: dest for dest, name in _flags(args.command).items()}
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, raw in loaded.items():
            name = key.replace("_", "-")
            if name not in options:
                if not any(name in COMMANDS[command][1] for command in COMMANDS):
                    raise ValueError(f"unknown config key {key!r}")
                continue
            if getattr(args, dests[name]) is None:
                setattr(args, dests[name], _config_value(options[name], key, raw))
    for name, spec in options.items():
        if getattr(args, dests[name]) is None:
            setattr(args, dests[name], spec.get("default"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known command needs only its own subparser; anything else (--help,
    # a typo) gets the full parser and its listing or error.
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(named).parse_args(argv)
    try:
        _apply_config(args)
        header, rows, failures = COMMANDS[args.command][2](args)
    except (CapacityExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(header, rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


def console_main() -> None:
    raise SystemExit(main())
