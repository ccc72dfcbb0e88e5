"""The dual-route family registry: each family's closed form paired with its
definitional route (a restriction rule and a Gram-rank count, or a compare_*
helper), and the verify kinds, which check identities and the two routes
against each other. The command line walks its grids over these tables.
"""

from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial

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
from .gram import sector_dimension
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
    CSRule,
    GentileRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    count_allowed_states,
    enumerate_allowed,
)

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


def _definitional(compare):
    """The definitional value of a compare_* helper at one grid point."""
    return lambda *point: compare(*point).g_definitional


def _default_m0(p: int, q: int, n: int, i1: int) -> int:
    """The first lattice size M0 = N·p + q + i1 + 2 of a cs-average window
    where none is given."""
    return n * p + q + i1 + 2


# params family -> (output columns, closed form, definitional value or
# None). The closed form and the definitional value take one grid point,
# whose entries are the columns in order.
PARAM_FAMILIES = {
    "cs-finite": (("M", "i1", "N", "p", "q", "side"), g_cs_finite,
                  _definitional(compare_cs_finite)),
    "cs-average": (("p", "q", "M0", "N", "i1"), g_average_cs, None),
    "cs-haldane": (("p", "q", "nlast"), g_haldane_cs, None),
    "gentile-average": (("pattern", "M"), g_gentile_average,
                        _definitional(compare_gentile_average)),
    "single-gentile": (("n", "m"), lambda n, m: Fraction(g_single_gentile(n, m)),
                       _definitional(compare_single_gentile)),
    "para-fermi": (("M", "n", "k", "p"), partial(g_para_restricted, kind="fermi"),
                   _definitional(partial(compare_para, kind="fermi"))),
    "para-bose": (("M", "n", "k", "p"), partial(g_para_restricted, kind="bose"),
                  _definitional(partial(compare_para, kind="bose"))),
}


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
            strict = g_cs_finite(m, i1, n, p, q, side, strict=True)
            ok = strict == report.g_definitional
            yield (
                f"M={m} i1={i1} N={n} p={p} q={q} side={side}",
                ok,
                f"strict={strict} definitional={report.g_definitional} "
                f"nonstrict={report.g_closed_form}",
            )


def _verify_gram_rank():
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


# verify kind -> its (params, ok, detail) rows; ok None marks an info row.
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
