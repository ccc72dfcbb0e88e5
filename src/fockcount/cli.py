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
import json
import sys
from fractions import Fraction
from itertools import product
from typing import Iterable

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


def _rule_from_args(args) -> object | None:
    family = getattr(args, "rule_family", None) or getattr(args, "family", None)
    if family in (None, "none"):
        return None
    if family == "cs":
        return CSRule(_single(args, "p"), _single(args, "q"))
    if family == "cs-bose":
        return CSRule(0, _single(args, "q"))
    if family == "x-fermi":
        return XFermiRule(tuple(args.x_set))
    if family == "x-bose":
        return XBoseRule(tuple(args.x_set))
    if family == "window-min":
        return WindowRule(_single(args, "p"), "min")
    if family == "window-max":
        return WindowRule(_single(args, "p"), "max")
    if family == "gentile":
        return GentileRule(_single(args, "m"))
    if family == "total-cap":
        return TotalCapRule(_single(args, "p"))
    raise ValueError(f"no restriction rule for family {family!r}")


def _single(args, name: str):
    values = getattr(args, name, None)
    if not values:
        raise ValueError(f"option --{name.replace('_', '-')} is required here")
    if len(values) > 1:
        raise ValueError(f"option --{name.replace('_', '-')} takes a single value here")
    return values[0]


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, []):
            raise ValueError(
                f"--{name.replace('_', '-')} is required for family {args.family!r}"
            )


# ---------------------------------------------------------------- count ---

COUNT_FAMILIES = (
    "cs",
    "cs-bose",
    "haldane-wu",
    "real",
    "x-fermi",
    "x-bose",
    "gentile",
    "para-fermi",
    "para-bose",
    "window-min",
)


def run_count(args) -> tuple[list[str], list[tuple], int]:
    family = args.family
    oracle = bool(args.oracle)
    cap = args.cap
    header = ["family", "M", "N"]
    rows: list[tuple] = []
    failures = 0

    def emit(m, n, extras, value, formula, rule=None, alg=None, has_oracle=True,
             count=count_enumerated):
        nonlocal failures
        row = [family, m, n, *extras, value, formula]
        if oracle:
            if has_oracle:
                check = count(m, n, rule, alg, cap=cap)
                agrees = check == value
                if not agrees:
                    failures += 1
                row += [check, agrees]
            else:
                row += [None, None]
        rows.append(tuple(row))

    if family == "cs":
        _require(args, "M", "N", "p", "q")
        header += ["p", "q", "value", "formula"]
        for m, n, p, q in product(args.M, args.N, args.p, args.q):
            emit(m, n, (p, q), count_cs(m, n, p, q), "cs-slack-sum", CSRule(p, q))
    elif family == "cs-bose":
        _require(args, "M", "N", "q")
        header += ["q", "value", "formula"]
        for m, n, q in product(args.M, args.N, args.q):
            emit(m, n, (q,), count_cs_bose(m, n, q), "cs-bose-closed", CSRule(0, q))
    elif family == "haldane-wu":
        _require(args, "M", "N", "g")
        header += ["g", "value", "formula"]
        for m, n, g in product(args.M, args.N, args.g):
            value = count_haldane_wu(m, n, g)
            integer_g = g.denominator == 1 and g >= 0
            rule = CSRule(int(g), 1) if integer_g else None
            emit(m, n, (g,), value, "interpolating-binomial", rule,
                 has_oracle=integer_g and n >= 1)
    elif family == "real":
        _require(args, "M", "N", "lam")
        header += ["lambda", "value", "formula"]
        for m, n, lam in product(args.M, args.N, args.lam):
            value = count_real(m, n, lam)
            integer_lam = lam.denominator == 1
            rule = CSRule(int(lam), 1) if integer_lam else None
            emit(m, n, (lam,), value, "real-coupling-binomial", rule,
                 has_oracle=integer_lam and n >= 1)
    elif family in ("x-fermi", "x-bose"):
        _require(args, "M", "N", "x_set")
        header += ["x", "value", "formula"]
        xs = tuple(sorted(set(args.x_set)))
        counter = count_x_fermi if family == "x-fermi" else count_x_bose
        rule_cls = XFermiRule if family == "x-fermi" else XBoseRule
        tag = "gap-walk" if family == "x-fermi" else "support-convolution"
        for m, n in product(args.M, args.N):
            emit(m, n, (xs,), counter(m, n, xs), tag, rule_cls(xs))
    elif family == "gentile":
        _require(args, "M", "N", "m")
        header += ["m", "value", "formula"]
        for m, n, cap_m in product(args.M, args.N, args.m):
            emit(m, n, (cap_m,), count_gentile(m, n, cap_m),
                 "histogram-multinomial", GentileRule(cap_m), bose())
    elif family in ("para-fermi", "para-bose"):
        _require(args, "M", "N", "p")
        kind = family.split("-")[1]
        alg = fermi() if kind == "fermi" else bose()
        header += ["p", "value", "formula"]
        for m, n, p in product(args.M, args.N, args.p):
            emit(m, n, (p,), count_para_restricted(m, n, p, kind),
                 "capped-binomial", TotalCapRule(p), alg)
    elif family == "window-min":
        _require(args, "M", "N", "p")
        header += ["p", "value", "formula"]
        for m, n, p in product(args.M, args.N, args.p):
            emit(m, n, (p,), count_window_min(m, n, p), "min-window-binomial",
                 WindowRule(p, "min"),
                 count=lambda m, n, rule, alg, cap: len(
                     enumerate_allowed(m, n, rule, cap=cap)))
    else:
        raise ValueError(f"unknown count family {family!r}")

    if oracle:
        header += ["oracle", "agrees"]
    return header, rows, failures


# ------------------------------------------------------------ enumerate ---

ENUM_FAMILIES = (
    "none", "cs", "cs-bose", "x-fermi", "x-bose",
    "window-min", "window-max", "gentile", "total-cap",
)


def run_enumerate(args) -> tuple[list[str], list[tuple], int]:
    _require(args, "M", "N")
    rule = _rule_from_args(args)
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
    rule = _rule_from_args(args) if args.rule_family else None
    header = ["multiset", "algebra", "dimension", "rank"]
    rows = []
    if args.multiset:
        multisets = [tuple(sorted(args.multiset))]
    else:
        _require(args, "M", "N")
        from itertools import combinations_with_replacement

        multisets = [
            ms
            for m, n in product(args.M, args.N)
            for ms in combinations_with_replacement(range(1, m + 1), n)
        ]
    for ms in multisets:
        rows.append((ms, args.alg, orbit_size(ms), sector_dimension(ms, alg, rule)))
    return header, rows, 0


# --------------------------------------------------------------- params ---

PARAM_FAMILIES = (
    "cs-finite", "cs-average", "cs-haldane",
    "gentile-average", "single-gentile", "para-fermi", "para-bose",
)


def run_params(args) -> tuple[list[str], list[tuple], int]:
    family = args.family
    oracle = bool(args.oracle)
    rows: list[tuple] = []
    failures = 0

    def emit(fixed, value, report=None):
        nonlocal failures
        row = [family, *fixed, value]
        if oracle:
            if report is not None:
                if not report.agrees:
                    failures += 1
                row += [report.g_definitional, report.agrees]
            else:
                row += [None, None]
        rows.append(tuple(row))

    if family == "cs-finite":
        _require(args, "M", "N", "p", "q")
        header = ["family", "M", "i1", "N", "p", "q", "side", "value"]
        for m, i1, n, p, q in product(args.M, args.i1, args.N, args.p, args.q):
            for side in args.side:
                report = compare_cs_finite(m, i1, n, p, q, side) if oracle else None
                emit((m, i1, n, p, q, side),
                     g_cs_finite(m, i1, n, p, q, side), report)
    elif family == "cs-average":
        _require(args, "N", "p", "q")
        header = ["family", "p", "q", "M0", "N", "i1", "value"]
        for p, q, n, i1 in product(args.p, args.q, args.N, args.i1):
            m0 = args.M[0] if args.M else n * p + q + i1 + 2
            emit((p, q, m0, n, i1), g_average_cs(p, q, m0, n, i1))
    elif family == "cs-haldane":
        _require(args, "p", "q", "nlast")
        header = ["family", "p", "q", "nlast", "value"]
        for p, q, nl in product(args.p, args.q, args.nlast):
            emit((p, q, nl), g_haldane_cs(p, q, nl))
    elif family == "gentile-average":
        _require(args, "pattern")
        pattern = tuple(args.pattern)
        m_sites = sum(pattern)
        header = ["family", "pattern", "M", "value"]
        report = compare_gentile_average(pattern, m_sites) if oracle else None
        emit((pattern, m_sites), g_gentile_average(pattern, m_sites), report)
    elif family == "single-gentile":
        _require(args, "n", "m")
        header = ["family", "n", "m", "value"]
        for n, m in product(args.n, args.m):
            report = compare_single_gentile(n, m) if oracle else None
            emit((n, m), Fraction(g_single_gentile(n, m)), report)
    elif family in ("para-fermi", "para-bose"):
        _require(args, "M", "n", "k", "p")
        kind = family.split("-")[1]
        header = ["family", "M", "n", "k", "p", "value"]
        for m, n, k, p in product(args.M, args.n, args.k, args.p):
            report = compare_para(m, n, k, p, kind) if oracle else None
            emit((m, n, k, p), g_para_restricted(m, n, k, p, kind), report)
    else:
        raise ValueError(f"unknown params family {family!r}")

    if oracle:
        header += ["definitional", "agrees"]
    return header, rows, failures


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
        m0 = n * p + q + i1 + 2
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

def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON file predefining options")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("--cap", type=int, default=None,
                     help="max enumeration candidates per grid point")


def _grid_option(sub, flag, dest=None, fractions=False, floats=False, **kw):
    kind = parse_frac_values if fractions else (
        parse_float_values if floats else parse_int_values
    )
    sub.add_argument(flag, dest=dest, type=kind, default=None, **kw)


def _count_options(sub) -> None:
    sub.add_argument("--family", choices=COUNT_FAMILIES, required=True)
    for flag in ("--M", "--N", "--p", "--q", "--m"):
        _grid_option(sub, flag)
    _grid_option(sub, "--g", fractions=True)
    _grid_option(sub, "--lambda", dest="lam", fractions=True)
    _grid_option(sub, "--x-set", dest="x_set")
    sub.add_argument("--oracle", action="store_true", default=None,
                     help="compare each value against the enumerated count")


def _enumerate_options(sub) -> None:
    sub.add_argument("--family", choices=ENUM_FAMILIES, default="none")
    for flag in ("--M", "--N", "--p", "--q", "--m"):
        _grid_option(sub, flag)
    _grid_option(sub, "--x-set", dest="x_set")


def _gram_options(sub) -> None:
    _grid_option(sub, "--multiset")
    sub.add_argument("--alg", default="quon:0",
                     help="bose, fermi or quon:Q (e.g. quon:1/2)")
    sub.add_argument("--rule-family", choices=ENUM_FAMILIES, default=None)
    for flag in ("--M", "--N", "--p", "--q", "--m"):
        _grid_option(sub, flag)
    _grid_option(sub, "--x-set", dest="x_set")


def _params_options(sub) -> None:
    sub.add_argument("--family", choices=PARAM_FAMILIES, required=True)
    for flag in ("--M", "--N", "--p", "--q", "--i1", "--n", "--k", "--m",
                 "--nlast", "--pattern"):
        _grid_option(sub, flag)
    sub.add_argument("--side", type=lambda s: s.split(","),
                     default=["right"], help="left, right or left,right")
    sub.add_argument("--oracle", action="store_true", default=None,
                     help="compare against the definitional dimension count")


def _spectrum_options(sub) -> None:
    _grid_option(sub, "--N")
    _grid_option(sub, "--lambda", dest="lam", fractions=True)
    _grid_option(sub, "--L", floats=True)
    _grid_option(sub, "--filling")
    sub.add_argument("--anchor", choices=("symmetric", "literal"),
                     default="symmetric")


def _verify_options(sub) -> None:
    sub.add_argument("--all", action="store_true", default=None)
    sub.add_argument("--kind", action="append", default=None,
                     help="run one named check (repeatable)")


# command -> (help, options, runner), in the order `--help` lists them
COMMANDS = {
    "count": ("closed-form counting sweeps", _count_options, run_count),
    "enumerate": ("list allowed canonical states", _enumerate_options, run_enumerate),
    "gram": ("Gram dimensions and exact ranks", _gram_options, run_gram),
    "params": ("exclusion-statistics parameters", _params_options, run_params),
    "spectrum": ("ring-model pseudomomentum spectra", _spectrum_options, run_spectrum),
    "verify": ("self-check identity suite", _verify_options, run_verify),
}


def build_parser(commands: Iterable[str] = COMMANDS) -> argparse.ArgumentParser:
    """The argument parser with a subparser for each named command."""
    parser = argparse.ArgumentParser(
        prog="fockcount",
        # names every command even when only one subparser is built
        usage="%(prog)s [-h] {" + ",".join(COMMANDS) + "} ...",
        description="Exact state counting for restricted oscillator algebras.",
        epilog=EPILOG,
    )
    subs = parser.add_subparsers(dest="command", required=True, prog="fockcount")
    for name in commands:
        help_text, add_options, _ = COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        add_options(sub)
        _add_common(sub)
    return parser


_CONFIG_DEFAULTS = {"format": "csv", "cap": DEFAULT_CANDIDATE_CAP}

_GRID_KEYS = {
    "M", "N", "p", "q", "m", "i1", "n", "k", "nlast", "pattern",
    "multiset", "x_set", "filling",
}
_FRAC_KEYS = {"g", "lam"}
_FLOAT_KEYS = {"L"}


def _apply_config(args) -> None:
    """Fill unset options from the JSON config file, then from defaults."""
    loaded = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
    for key, raw in loaded.items():
        dest = key.replace("-", "_")
        if dest == "lambda":
            dest = "lam"
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue
        if dest in _GRID_KEYS:
            value = parse_int_values(str(raw))
        elif dest in _FRAC_KEYS:
            value = parse_frac_values(str(raw))
        elif dest in _FLOAT_KEYS:
            value = parse_float_values(str(raw))
        else:
            value = raw
        setattr(args, dest, value)
    for key, default in _CONFIG_DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known command needs only its own subparser; anything else (--help,
    # a typo) gets the full parser and its listing or error.
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(named).parse_args(argv)
    try:
        _apply_config(args)
        header, rows, failures = COMMANDS[args.command][2](args)
    except CapacityExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
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
