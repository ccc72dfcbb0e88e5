"""Statistics-parameter closed forms against the definitional dimension
differences computed from Gram ranks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockcount.haldane_params import (
    closest_pack,
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


def test_closest_pack():
    assert closest_pack(3, 4, 2) == (3, 5, 7, 9)
    assert closest_pack(1, 1, 5) == (1,)
    assert closest_pack(2, 3, 0) == (2, 2, 2)


def test_g_cs_finite_frozen_bracket_values():
    # nearest lattice sizes around the step: the standard floor reading
    # and the strict one disagree by a one-site phase
    assert g_cs_finite(10, 1, 2, 1, 2, "right") == 1
    assert g_cs_finite(10, 1, 2, 1, 2, "right", strict=True) == 0
    assert g_cs_finite(11, 1, 2, 1, 2, "right") == 0
    assert g_cs_finite(11, 1, 2, 1, 2, "right", strict=True) == 1


def test_g_cs_finite_validation():
    # pack 1,3,5 fits exactly on five sites
    assert isinstance(g_cs_finite(5, 1, 3, 2, 1, "right"), int)
    with pytest.raises(ValueError):
        g_cs_finite(4, 1, 3, 2, 1, "right")
    with pytest.raises(ValueError):
        g_cs_finite(10, 1, 2, 1, 2, "diagonal")
    with pytest.raises(ValueError):
        g_cs_finite(10, 0, 2, 1, 2, "right")


def test_g_cs_finite_periodic_in_lattice_size():
    # growing the lattice by q shifts both floor arguments by one step,
    # so the difference repeats; this is what makes the q-window average
    # well defined
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for n in (1, 2, 3):
                for i1 in (1, 3):
                    fit = i1 + (n - 1) * p
                    for m in range(fit, fit + 6):
                        for side in ("left", "right"):
                            for strict in (False, True):
                                assert g_cs_finite(
                                    m, i1, n, p, q, side, strict=strict
                                ) == g_cs_finite(
                                    m + q, i1, n, p, q, side, strict=strict
                                )


def test_definitional_matches_strict_bracket_in_bulk():
    cases = [
        (12, 1, 2, 1, 2, "right"),
        (13, 1, 2, 1, 2, "right"),
        (14, 1, 2, 1, 2, "right"),
        (16, 5, 2, 2, 3, "right"),
        (16, 5, 2, 2, 3, "left"),
        (14, 7, 1, 3, 2, "left"),
    ]
    for m, i1, n, p, q, side in cases:
        report = compare_cs_finite(m, i1, n, p, q, side)
        assert isinstance(report.g_definitional, Fraction)
        assert report.g_definitional == g_cs_finite(m, i1, n, p, q, side, strict=True)


def test_definitional_departs_from_bulk_form_at_wall():
    # fixed mode too close to site 1: the bulk expression overcounts and
    # the report surfaces the disagreement instead of hiding it
    report = compare_cs_finite(12, 3, 1, 2, 1, "left")
    assert report.g_definitional == 1
    assert g_cs_finite(12, 3, 1, 2, 1, "left", strict=True) == 2
    assert report.agrees is False


@given(st.integers(0, 4), st.integers(1, 4))
def test_g_average_cs_is_exactly_p_over_q(p, q):
    n, i1 = 2, 1
    m0 = n * p + q + i1 + 2
    assert g_average_cs(p, q, m0, n, i1) == Fraction(p, q)


def test_g_haldane_cs():
    assert g_haldane_cs(1, 2, 0) == Fraction(1, 2)
    assert g_haldane_cs(1, 2, 3) == Fraction(7, 2)
    assert g_haldane_cs(0, 1, 0) == 0
    with pytest.raises(ValueError):
        g_haldane_cs(1, 2, -1)


def test_g_gentile_average_frozen_values():
    assert g_gentile_average((0, 3, 0), 3) == 1
    assert g_gentile_average((2, 0, 1), 3) == 0
    assert g_gentile_average((1, 1, 1), 3) == Fraction(1, 2)
    with pytest.raises(ValueError):
        g_gentile_average((0, 0, 3), 3)  # every oscillator full


def test_g_gentile_average_departs_from_single_oscillator_value():
    # the multimode average feels the whole configuration; only the single
    # capped oscillator pins it to 1/m
    assert g_gentile_average((0, 3, 0), 3) != Fraction(1, 2)
    assert g_gentile_average((2, 0, 0, 1), 3) != Fraction(1, 3)


def test_g_gentile_average_definitional():
    for pattern in ((1, 1, 1), (0, 3, 0), (2, 0, 1), (1, 1, 1, 0)):
        report = compare_gentile_average(pattern, sum(pattern))
        assert report.agrees, (pattern, report)


def test_g_single_gentile():
    assert g_single_gentile(1, 2) == 1
    assert g_single_gentile(0, 2) == 0
    with pytest.raises(ValueError):
        g_single_gentile(2, 2)
    # averaged over one full fill of the oscillator the parameter is 1/m
    assert Fraction(sum(g_single_gentile(n, 3) for n in range(3)), 3) == Fraction(1, 3)


def test_g_single_gentile_definitional():
    for m in (1, 2, 3, 4):
        for filling in range(m):
            report = compare_single_gentile(filling, m)
            assert report.agrees, (filling, m, report)


def test_g_para_restricted_frozen():
    assert g_para_restricted(5, 1, 2, 2, "fermi") == Fraction(5, 2)
    assert g_para_restricted(5, 1, 1, 2, "fermi") == 1
    assert g_para_restricted(5, 1, 1, 2, "bose") == 0
    assert g_para_restricted(5, 2, 1, 2, "bose") == Fraction(5, 1)
    with pytest.raises(ValueError):
        g_para_restricted(5, 2, 3, 2, "fermi")
    with pytest.raises(ValueError):
        g_para_restricted(5, 1, 1, 2, "anyonic")


def test_g_para_definitional_sweep():
    for m in (4, 6):
        for p in (1, 2, 3):
            for n in range(1, p + 1):
                for k in range(1, p + 2 - n):
                    for kind in ("fermi", "bose"):
                        report = compare_para(m, n, k, p, kind)
                        assert report.agrees, (m, n, k, p, kind, report)
