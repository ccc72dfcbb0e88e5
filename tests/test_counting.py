"""Closed-form state counts against brute-force enumeration, plus the
floor-sum and binomial identities."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockcount.core import bose, fermi, quon
from fockcount.counting import (
    avg_g_identity_holds,
    binom,
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
    lambda_eff,
    verify_identity,
)
from fockcount.restrictions import (
    CSRule,
    GentileRule,
    TotalCapRule,
    XBoseRule,
    XFermiRule,
)

from oracles import (
    brute_states,
    cs_allowed,
    filter_states,
    gentile_allowed,
    window_allowed,
    x_allowed,
    x_bose_allowed,
)


def test_binom_zero_conventions():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(-2, 1) == 0
    assert binom(2, 5) == 0
    assert binom(0, 0) == 1


@given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3))
def test_count_cs_matches_brute_force(m, n, p, q):
    expected = len(filter_states(brute_states(m, n), lambda s: cs_allowed(s, p, q)))
    assert count_cs(m, n, p, q) == expected


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3))
def test_count_cs_closed_form_agrees(m, n, p, q):
    assert count_cs_closed(m, n, p, q) == count_cs(m, n, p, q)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 3))
def test_count_cs_equal_pq_agrees(m, n, q):
    assert count_cs_equal_pq(m, n, q) == count_cs(m, n, q, q)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 3))
def test_count_cs_bose_agrees(m, n, q):
    assert count_cs_bose(m, n, q) == count_cs(m, n, 0, q)


def test_count_cs_frozen_values():
    assert count_cs_bose(5, 2, 2) == 9
    assert count_cs(10, 3, 1, 2) == 40
    # integer gap p with unit step reduces to a single binomial
    assert count_cs(10, 3, 2, 1) == binom(10 + (1 - 2) * 2, 3)


def test_count_cs_validation():
    with pytest.raises(ValueError):
        count_cs(0, 1, 1, 1)
    with pytest.raises(ValueError):
        count_cs(5, 0, 1, 1)
    with pytest.raises(ValueError):
        count_cs(5, 1, -1, 1)
    with pytest.raises(ValueError):
        count_cs(5, 1, 1, 0)


def test_count_haldane_wu_integer_and_fractional():
    # integer parameter matches the unit-step gap count
    for g in range(4):
        for m in range(1, 9):
            for n in range(1, 4):
                assert count_haldane_wu(m, n, Fraction(g)) == count_cs(m, n, g, 1)
    # fractional parameter needs an integral shift
    assert count_haldane_wu(5, 3, Fraction(1, 2)) == 20
    with pytest.raises(ValueError):
        count_haldane_wu(5, 2, Fraction(1, 2))


def test_count_haldane_wu_frozen_example():
    assert count_haldane_wu(5, 3, Fraction(2)) == 1


def test_count_real_and_lambda_eff():
    assert count_real(4, 3, Fraction(1, 2)) == 10
    assert lambda_eff(4, Fraction(1, 2)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        lambda_eff(1, Fraction(1, 2))


@given(
    st.integers(2, 8),
    st.integers(2, 5),
    st.fractions(min_value=0, max_value=3, max_denominator=6),
)
def test_lambda_eff_reproduces_count(m, n, lam):
    # the rounded coupling is the one the count actually sees
    effective = lambda_eff(n, lam)
    assert count_real(m, n, effective) == count_real(m, n, lam)
    assert (n - 1) * effective == -(-((n - 1) * lam) // 1)


@given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 3))
def test_count_real_integer_coupling_matches_gap_rule(m, n, lam):
    assert count_real(m, n, Fraction(lam)) == count_cs(m, n, lam, 1)


def test_count_real_literal_bottom_differs_for_fractions_only():
    # corrected index keeps the integer-coupling coincidence
    a = count_real(6, 3, Fraction(2), literal_bottom=False)
    b = count_real(6, 3, Fraction(2), literal_bottom=True)
    assert a == count_cs(6, 3, 2, 1)
    assert a != b


@given(st.integers(1, 8), st.integers(1, 3))
def test_count_x_fermi_matches_brute_force(m, n):
    for xs in ((1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
        expected = len(filter_states(brute_states(m, n), lambda s: x_allowed(s, xs)))
        assert count_x_fermi(m, n, xs) == expected


@given(st.integers(1, 7), st.integers(1, 3))
def test_count_x_bose_matches_brute_force(m, n):
    for xs in ((1,), (2,), (1, 3), (1, 2, 3)):
        expected = len(
            filter_states(brute_states(m, n), lambda s: x_bose_allowed(s, xs))
        )
        assert count_x_bose(m, n, xs) == expected


def test_count_x_bose_convolution_structure():
    # N particles on k distinct support sites, k summed with binomial weight
    m, n, xs = 6, 3, (2,)
    total = sum(
        binom(n - 1, k - 1) * count_x_fermi(m, k, xs) for k in range(1, n + 1)
    )
    assert count_x_bose(m, n, xs) == total


def test_full_gap_set_collapses_to_free_counts():
    # when every separation is admitted the support constraint disappears
    for m in range(1, 8):
        xs = tuple(range(1, m + 1))
        for n in range(5):
            assert count_x_fermi(m, n, xs) == binom(m, n)
            assert count_x_bose(m, n, xs) == binom(m + n - 1, n)


def test_count_real_non_increasing_in_coupling():
    for m, n in ((4, 3), (6, 4), (9, 2)):
        values = [count_real(m, n, Fraction(k, 4)) for k in range(13)]
        assert all(a >= b for a, b in zip(values, values[1:]))


@given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 4))
def test_count_gentile_matches_brute_force(m, n, cap):
    expected = len(
        filter_states(brute_states(m, n), lambda s: gentile_allowed(s, cap))
    )
    assert count_gentile(m, n, cap) == expected


@given(st.integers(1, 10), st.integers(0, 4), st.integers(1, 3))
def test_count_window_min_matches_brute_force(m, n, p):
    expected = len(filter_states(brute_states(m, n), lambda s: window_allowed(s, p, "min")))
    assert count_window_min(m, n, p) == expected


def test_count_window_min_validation():
    with pytest.raises(ValueError):
        count_window_min(0, 2, 1)
    with pytest.raises(ValueError):
        count_window_min(5, 2, -1)


def test_count_window_min_at_zero_width_counts_multisets():
    for m in range(1, 9):
        for n in range(0, 5):
            expected = len(list(combinations_with_replacement(range(m), n)))
            assert count_window_min(m, n, 0) == expected


def test_count_gentile_frozen_and_limits():
    assert count_gentile(2, 2, 2) == 3
    for m in range(1, 6):
        for n in range(1, 5):
            assert count_gentile(m, n, 1) == binom(m, n)
            assert count_gentile(m, n, n) == binom(m + n - 1, n)


def test_count_para_restricted():
    for m in range(1, 7):
        for p in range(1, 4):
            for n in range(0, p + 2):
                fermi_count = count_para_restricted(m, n, p, "fermi")
                bose_count = count_para_restricted(m, n, p, "bose")
                if n <= p:
                    assert fermi_count == binom(m, n)
                    assert bose_count == binom(m + n - 1, n)
                else:
                    assert fermi_count == 0
                    assert bose_count == 0
    with pytest.raises(ValueError):
        count_para_restricted(5, 2, 2, "anyonic")


@given(st.integers(0, 5), st.integers(1, 5), st.integers(1, 60))
def test_avg_g_identity(p, q, m):
    assert avg_g_identity_holds(p, q, m)


@given(st.integers(0, 6), st.integers(1, 9))
def test_binomial_identity(n, alpha):
    assert binomial_identity_holds(n, alpha)


def test_verify_identity_dispatch():
    assert verify_identity("avg-g", p=2, q=3, M=17)
    assert verify_identity("binom", n=4, alpha=5)
    with pytest.raises(ValueError):
        verify_identity("nonsense")


def test_count_enumerated_free_and_zero_particles():
    assert count_enumerated(5, 0) == 1
    assert count_enumerated(4, 1) == 4
    # free quon(0) counts all ordered words
    assert count_enumerated(3, 2) == 9
    # Bose collapses each multiset to one state
    assert count_enumerated(3, 2, alg=bose()) == 6
    # Fermi keeps only strictly distinct multisets
    assert count_enumerated(3, 2, alg=fermi()) == 3


def test_count_enumerated_rule_and_algebra():
    # at q=0 with a gap rule only canonical ordered words survive
    assert count_enumerated(10, 3, CSRule(1, 2)) == 40
    assert count_enumerated(6, 2, CSRule(1, 2)) == 9
    # generic q keeps every word of every allowed multiset independent
    q = Fraction(1, 2)
    assert count_enumerated(3, 2, rule=None, alg=quon(q)) == 9


def test_count_enumerated_gentile_bose():
    for m in range(1, 5):
        for n in range(0, 4):
            for cap in range(1, 4):
                assert count_enumerated(
                    m, n, GentileRule(cap), bose()
                ) == count_gentile(m, n, cap)


def test_count_enumerated_para_cap():
    for m in range(1, 6):
        for p in range(1, 3):
            for n in range(0, p + 2):
                assert count_enumerated(
                    m, n, TotalCapRule(p), fermi()
                ) == count_para_restricted(m, n, p, "fermi")
                assert count_enumerated(
                    m, n, TotalCapRule(p), bose()
                ) == count_para_restricted(m, n, p, "bose")


def test_count_enumerated_x_rules():
    for m in range(1, 6):
        for n in range(1, 3):
            assert count_enumerated(m, n, XFermiRule((2,))) == count_x_fermi(
                m, n, (2,)
            )
            assert count_enumerated(m, n, XBoseRule((2,))) == count_x_bose(
                m, n, (2,)
            )
