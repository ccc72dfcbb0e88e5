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
)
from fockcount.cs_model import phi_structure, truncated_bose_structure
from fockcount.haldane_params import (
    compare_gentile_average,
    g_average_cs,
    g_cs_finite,
    g_gentile_average,
    g_haldane_cs,
    g_para_restricted,
    g_single_gentile,
    g_single_gentile_average,
)
from fockcount.registry import COUNT_FAMILIES, _integer_gap
from fockcount.restrictions import (
    CapacityExceededError,
    CSRule,
    GentileRule,
    TotalCapRule,
    XBoseRule,
    XFermiRule,
    count_allowed_states,
    count_allowed_words,
    enumerate_allowed,
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


@pytest.mark.parametrize("law", [count_haldane_wu, count_real], ids=["haldane-wu", "real"])
@pytest.mark.parametrize("m, n", [(0, 1), (-1, 2), (3, -1)])
def test_coupling_laws_share_their_domain(law, m, n):
    # M >= 1 and N >= 0, the domain of the definitional count
    with pytest.raises(ValueError, match=r"^need M >= 1 and N >= 0$"):
        law(m, n, Fraction(0))


# Every count taking (M, N, ...), with its remaining arguments and the least
# N it takes: the cs closed forms do not count the vacuum, the rest do.
COUNTS = {
    "cs": (lambda m, n: count_cs(m, n, 1, 2), 1),
    "cs-closed": (lambda m, n: count_cs_closed(m, n, 1, 2), 1),
    "cs-equal-pq": (lambda m, n: count_cs_equal_pq(m, n, 2), 1),
    "cs-bose": (lambda m, n: count_cs_bose(m, n, 2), 1),
    "haldane-wu": (lambda m, n: count_haldane_wu(m, n, Fraction(0)), 0),
    "real": (lambda m, n: count_real(m, n, Fraction(1, 2)), 0),
    "x-fermi": (lambda m, n: count_x_fermi(m, n, (1, 3)), 0),
    "x-bose": (lambda m, n: count_x_bose(m, n, (2,)), 0),
    "gentile": (lambda m, n: count_gentile(m, n, 2), 0),
    "para": (lambda m, n: count_para_restricted(m, n, 2, "fermi"), 0),
    "window-min": (lambda m, n: count_window_min(m, n, 1), 0),
    "enumerated": (lambda m, n: count_enumerated(m, n, CSRule(1, 2), bose()), 0),
    "enumerate-allowed": (lambda m, n: enumerate_allowed(m, n, CSRule(1, 2)), 0),
    "allowed-states": (lambda m, n: count_allowed_states(m, n, CSRule(1, 2)), 0),
    "allowed-words": (lambda m, n: count_allowed_words(m, n, CSRule(1, 2)), 0),
}


@pytest.mark.parametrize("name", list(COUNTS))
def test_every_count_refuses_its_domain_in_one_message(name):
    count, least = COUNTS[name]
    for m, n in ((0, least), (1, least - 1)):
        with pytest.raises(ValueError, match=rf"^need M >= 1 and N >= {least}$"):
            count(m, n)
    count(1, least)


@pytest.mark.parametrize("cap, error, message", [
    (10, CapacityExceededError, "21 candidate states for 2 particles on 6 sites exceeds cap 10"),
    (0, ValueError, "cap must be positive, got 0"),
])
def test_listing_and_gram_count_refuse_the_same_candidates(cap, error, message):
    # Bose takes the Gram route; a q = 0 quon would count words, walking no multiset
    for walk in (enumerate_allowed, lambda m, n, cap: count_enumerated(m, n, alg=bose(), cap=cap)):
        with pytest.raises(error) as info:
            walk(6, 2, cap=cap)
        assert str(info.value) == message


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


def _refusal(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


# Out-of-domain rule parameters of every count family whose oracle rule is a
# restriction record: p = -1, q = 0, the gap sets () and (0,), m = 0, order 0.
RECORD_FAMILY_REFUSALS = {
    "cs": [(-1, 1), (0, 0)],
    "cs-bose": [(0,)],
    "x-fermi": [((),), ((0,),)],
    "x-bose": [((),), ((0,),)],
    "gentile": [(0,)],
    "para-fermi": [(-1,), (0,)],
    "para-bose": [(-1,), (0,)],
    "window-min": [(-1,)],
}


def test_every_record_family_has_refusals():
    families = {f for f, entry in COUNT_FAMILIES.items() if entry[3] is not _integer_gap}
    assert set(RECORD_FAMILY_REFUSALS) == families


@pytest.mark.parametrize("family", sorted(RECORD_FAMILY_REFUSALS))
def test_count_closed_form_refuses_as_its_oracle_rule(family):
    options, closed, _, build, _ = COUNT_FAMILIES[family]
    particle_numbers = (0, 2) if options == ("x_set",) else (2,)
    for values in RECORD_FAMILY_REFUSALS[family]:
        message = _refusal(build, *values)
        for n in particle_numbers:
            assert _refusal(closed, 5, n, *values) == message, (values, n)


@pytest.mark.parametrize(
    "call,record",
    [
        (lambda: count_cs_closed(5, 2, -1, 1), lambda: CSRule(-1, 1)),
        (lambda: count_cs_closed(5, 2, 0, 0), lambda: CSRule(0, 0)),
        (lambda: count_cs_equal_pq(5, 2, 0), lambda: CSRule(0, 0)),
        (lambda: avg_g_identity_holds(-1, 1, 5), lambda: CSRule(-1, 1)),
        (lambda: avg_g_identity_holds(0, 0, 5), lambda: CSRule(0, 0)),
        (lambda: g_cs_finite(8, 1, 2, -1, 1, "right"), lambda: CSRule(-1, 1)),
        (lambda: g_cs_finite(8, 1, 2, 0, 0, "right"), lambda: CSRule(0, 0)),
        (lambda: g_average_cs(-1, 1, 20, 2, 1), lambda: CSRule(-1, 1)),
        (lambda: g_average_cs(0, 0, 20, 2, 1), lambda: CSRule(0, 0)),
        (lambda: g_haldane_cs(-1, 1, 0), lambda: CSRule(-1, 1)),
        (lambda: g_haldane_cs(0, 0, 0), lambda: CSRule(0, 0)),
        (lambda: g_single_gentile(0, 0), lambda: GentileRule(0)),
        (lambda: g_single_gentile_average(0), lambda: GentileRule(0)),
        (lambda: g_gentile_average((3,), 3), lambda: GentileRule(0)),
        (lambda: compare_gentile_average((3,), 3), lambda: GentileRule(0)),
        (lambda: g_para_restricted(5, 1, 1, 0, "fermi"), lambda: TotalCapRule(0)),
        (lambda: phi_structure(1, 0), lambda: GentileRule(0)),
        (lambda: truncated_bose_structure(0, 0), lambda: GentileRule(0)),
    ],
    ids=[
        "count_cs_closed-p", "count_cs_closed-q", "count_cs_equal_pq",
        "avg_g_identity-p", "avg_g_identity-q", "g_cs_finite-p", "g_cs_finite-q",
        "g_average_cs-p", "g_average_cs-q", "g_haldane_cs-p", "g_haldane_cs-q",
        "g_single_gentile", "g_single_gentile_average", "g_gentile_average",
        "compare_gentile_average", "g_para_restricted",
        "phi_structure", "truncated_bose_structure",
    ],
)
def test_parameter_refusal_is_the_rule_records(call, record):
    assert _refusal(call) == _refusal(record)
