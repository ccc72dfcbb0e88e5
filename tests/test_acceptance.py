"""Acceptance checks for the whole library, one per claim.

Each check prints a single PASS/FAIL line on the real stdout (bypassing
pytest capture) so a teed run shows the verdict per criterion even when
everything passes. All comparisons are exact unless a tolerance is stated.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, pi

from fockcount.algebra_engine import MAX_WORD_LETTERS
from fockcount.core import bose, fermi, quon
from fockcount.counting import (
    avg_g_identity_holds,
    binom,
    binomial_identity_holds,
    count_cs,
    count_enumerated,
    count_gentile,
    count_x_bose,
)
from fockcount.cs_model import (
    energy,
    ground_energy,
    ground_filling,
    pseudomomenta,
)
from fockcount.gram import sector_dimension
from fockcount.haldane_params import compare_para, g_average_cs, g_para_restricted
from fockcount.restrictions import (
    CSRule,
    GentileRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    enumerate_allowed,
)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {label}: {verdict}{suffix}", file=sys.__stdout__)
    assert ok, f"criterion {number} {label} failed{suffix}"


def test_criterion_01_closed_form_equals_enumeration():
    start = time.monotonic()
    bad = []
    for m, n, p, q in product(range(1, 13), range(1, 5), range(4), range(1, 4)):
        closed = count_cs(m, n, p, q)
        enumerated = count_enumerated(m, n, CSRule(p, q))
        if closed != enumerated:
            bad.append((m, n, p, q, closed, enumerated))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60
    report(
        1,
        "gap-rule closed form vs enumeration",
        ok,
        f"576 grid points, {elapsed:.1f}s" + (f", first bad {bad[0]}" if bad else ""),
    )


def test_criterion_02_unit_step_reduces_to_single_binomial():
    bad = []
    for m, n, p in product(range(1, 13), range(1, 5), range(4)):
        closed = count_cs(m, n, p, 1)
        reduced = binom(m + (1 - p) * (n - 1), n)
        if closed != reduced:
            bad.append((m, n, p, closed, reduced))
    report(
        2,
        "unit-step count equals interpolating binomial",
        not bad,
        f"first bad {bad[0]}" if bad else "192 grid points",
    )


def test_criterion_03_bose_and_fermi_anchors():
    bad = []
    for m, n in product(range(1, 13), range(1, 5)):
        if count_cs(m, n, 1, 1) != binom(m, n):
            bad.append(("fermi", m, n))
        if count_cs(m, n, 0, 1) != binom(m + n - 1, n):
            bad.append(("bose", m, n))
    report(
        3,
        "Fermi and Bose anchor counts",
        not bad,
        f"first bad {bad[0]}" if bad else "96 grid points",
    )


def test_criterion_04_average_parameter_is_p_over_q():
    bad = []
    for p, q in product(range(5), range(1, 5)):
        n_particles, i1 = 2, 1
        m0 = n_particles * p + q + i1 + 2
        value = g_average_cs(p, q, m0, n_particles, i1)
        if value != Fraction(p, q):
            bad.append((p, q, value))
        for m in range(1, 51):
            if not avg_g_identity_holds(p, q, m):
                bad.append(("identity", p, q, m))
    report(
        4,
        "average statistics parameter p/q and floor-block identity",
        not bad,
        f"first bad {bad[0]}" if bad else "p,q <= 4 with M up to 50",
    )


def test_criterion_05_binomial_identity():
    bad = [
        (n, alpha)
        for n, alpha in product(range(6), range(1, 9))
        if not binomial_identity_holds(n, alpha)
    ]
    report(
        5,
        "three-form binomial identity",
        not bad,
        f"first bad {bad[0]}" if bad else "n <= 5, alpha <= 8",
    )


def test_criterion_06_support_set_convolution():
    base = (1, 2, 3, 4)
    subsets = [
        tuple(x for i, x in enumerate(base) if mask & (1 << i))
        for mask in range(1, 16)
    ]
    bad = []
    for xs, m, n in product(subsets, range(1, 9), range(1, 5)):
        closed = count_x_bose(m, n, xs)
        enumerated = len(enumerate_allowed(m, n, XBoseRule(xs)))
        if closed != enumerated:
            bad.append((xs, m, n, closed, enumerated))
    report(
        6,
        "reoccupation convolution vs enumeration",
        not bad,
        f"first bad {bad[0]}" if bad else "all X in {1,2,3,4}, M <= 8, N <= 4",
    )


def test_criterion_07_gentile_bounds_and_limits():
    bad = []
    for m, n, cap in product(range(1, 7), range(1, 7), range(1, 7)):
        value = count_gentile(m, n, cap)
        lo, hi = binom(m, n), binom(m + n - 1, n)
        if not lo <= value <= hi:
            bad.append(("bounds", m, n, cap, value))
        if cap == 1 and value != lo:
            bad.append(("fermi-limit", m, n, cap, value))
        if cap >= n and value != hi:
            bad.append(("bose-limit", m, n, cap, value))
    report(
        7,
        "per-level cap count between Fermi and Bose with sharp limits",
        not bad,
        f"first bad {bad[0]}" if bad else "M,N,m <= 6",
    )


def test_criterion_08_gram_ranks_by_algebra():
    bad = []
    for n in range(1, 5):
        distinct = tuple(range(1, n + 1))
        for label, q in (("q=0", Fraction(0)), ("q=1/2", Fraction(1, 2))):
            rank = sector_dimension(distinct, quon(q))
            if rank != factorial(n):
                bad.append((label, distinct, rank))
        if sector_dimension(distinct, bose()) != 1:
            bad.append(("bose", distinct))
    for repeated in ((1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 2, 3)):
        if sector_dimension(repeated, bose()) != 1:
            bad.append(("bose", repeated))
        if sector_dimension(repeated, fermi()) != 0:
            bad.append(("fermi", repeated))
    report(
        8,
        "Gram ranks: factorial for quons, one for Bose, zero for Fermi repeats",
        not bad,
        f"first bad {bad[0]}" if bad else "multisets up to 4 particles",
    )


def test_criterion_09_rank_sum_equals_enumerated_count():
    families = [
        ("free", None),
        ("gap-1-2", CSRule(1, 2)),
        ("gap-2-1", CSRule(2, 1)),
        ("gap-0-2", CSRule(0, 2)),
        ("support-1-3", XFermiRule((1, 3))),
        ("support-bose-2", XBoseRule((2,))),
        ("window-min-2", WindowRule(2, "min")),
        ("window-max-2", WindowRule(2, "max")),
        ("per-level-cap-2", GentileRule(2)),
        ("total-cap-2", TotalCapRule(2)),
    ]
    alg = quon(0)
    bad = []
    for (label, rule), m, n in product(families, range(1, 6), range(1, 4)):
        rank_sum = sum(
            sector_dimension(ms, alg, rule)
            for ms in combinations_with_replacement(range(1, m + 1), n)
        )
        total = count_enumerated(m, n, rule)
        if rank_sum != total:
            bad.append((label, m, n, rank_sum, total))
    report(
        9,
        "sector rank sum equals total enumerated dimension",
        not bad,
        f"first bad {bad[0]}" if bad else "10 families, M <= 5, N <= 3",
    )


def test_criterion_10_ground_energy_closed_form():
    bad = []
    for n, lam, length in product(
        range(1, 11),
        (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)),
        (1.0, 2 * pi),
    ):
        e = energy(pseudomomenta(ground_filling(n, lam, length)))
        e0 = ground_energy(n, lam, length)
        scale = max(abs(e0), 1e-300)
        if e0 == 0:
            if abs(e) > 1e-12:
                bad.append((n, lam, length, e, e0))
        elif abs(e - e0) / scale > 1e-12:
            bad.append((n, lam, length, e, e0))
    for n in range(1, 11):
        if ground_energy(n, Fraction(0), 2 * pi) != 0:
            bad.append(("lam0", n))
    for lam in (Fraction(1, 2), Fraction(7)):
        if ground_energy(1, lam, 1.0) != 0:
            bad.append(("n1", lam))
    report(
        10,
        "ring ground energy matches pseudomomentum sum to 1e-12",
        not bad,
        f"first bad {bad[0]}" if bad else "N <= 10, four couplings, two rings",
    )


def test_criterion_11_structure_function_sign_and_truncation():
    # the m-capped single oscillator: a+^n |0> survives the Gram rank for
    # 1 <= n <= m and vanishes at n = m + 1, up to the longest word a
    # contraction takes
    bad = []
    for cap in range(1, MAX_WORD_LETTERS):
        for n in range(1, cap + 1):
            if sector_dimension((1,) * n, bose(), GentileRule(cap)) != 1:
                bad.append((n, cap))
        if sector_dimension((1,) * (cap + 1), bose(), GentileRule(cap)) != 0:
            bad.append(("truncation", cap))
    report(
        11,
        "single-oscillator ladder has rank 1 below the cap, 0 above",
        not bad,
        f"first bad {bad[0]}" if bad else f"caps up to {MAX_WORD_LETTERS - 1}",
    )


def test_criterion_12_capped_algebra_parameters():
    bad = []
    for m, p in product(range(4, 9), range(1, 4)):
        for n in range(1, p + 1):
            for k in range(1, p + 2 - n):
                for kind in ("fermi", "bose"):
                    value = g_para_restricted(m, n, k, p, kind)
                    if n + k <= p:
                        expected = Fraction(1 if kind == "fermi" else 0)
                    elif kind == "fermi":
                        expected = Fraction(m - n + 1, p - n + 1)
                    else:
                        expected = Fraction(m, p - n + 1)
                    if value != expected:
                        bad.append(("closed", kind, m, n, k, p, value, expected))
                        continue
                    outcome = compare_para(m, n, k, p, kind)
                    if not outcome.agrees:
                        bad.append(("definitional", kind, m, n, k, p, outcome))
    report(
        12,
        "capped-algebra parameters with definitional cross-check",
        not bad,
        f"first bad {bad[0]}" if bad else "M <= 8, p <= 3, both kinds",
    )


def test_criterion_13_verify_suite_is_deterministic():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "fockcount", "verify", "--all"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    identical = runs[0].stdout == runs[1].stdout
    clean = runs[0].returncode == 0 and runs[1].returncode == 0
    report(
        13,
        "verification suite deterministic with clean exit",
        identical and clean,
        f"exit codes {runs[0].returncode},{runs[1].returncode}, "
        f"{'identical' if identical else 'differing'} output",
    )
