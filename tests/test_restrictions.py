"""Restriction rules and allowed-state enumeration, cross-checked by
filtering the full candidate set with independent predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockcount.restrictions import (
    CSRule,
    CapacityExceededError,
    GentileRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    count_allowed_words,
    enumerate_allowed,
    is_allowed,
    theta_cs,
    theta_window,
    theta_x,
    theta_x_bose,
)

from oracles import (
    brute_states,
    brute_words,
    cs_allowed,
    filter_states,
    gentile_allowed,
    window_allowed,
    x_allowed,
    x_bose_allowed,
)


def test_theta_cs_gap_set():
    theta = theta_cs(1, 2)
    assert [theta(0, d) for d in range(7)] == [
        False, True, False, True, False, True, False,
    ]
    theta0 = theta_cs(0, 3)
    assert theta0(2, 2) and theta0(2, 5) and not theta0(2, 4)


def test_theta_validation():
    with pytest.raises(ValueError):
        theta_cs(-1, 2)
    with pytest.raises(ValueError):
        theta_cs(1, 0)
    with pytest.raises(ValueError):
        theta_x(())
    with pytest.raises(ValueError):
        theta_x((0, 1))
    with pytest.raises(ValueError):
        theta_window(-1, "min")
    with pytest.raises(ValueError):
        theta_window(0, "max")
    with pytest.raises(ValueError):
        theta_window(1, "sideways")


def test_min_window_of_width_zero_allows_every_word():
    rule = WindowRule(0, "min")
    assert all(rule.allows(w) for w in brute_words(3, 3))
    assert enumerate_allowed(3, 2, rule) == brute_states(3, 2)


def test_theta_x_canonicalises_gap_sets():
    # unordered input is sorted and de-duplicated, same as the rule classes
    theta = theta_x((3, 1, 3))
    assert theta(0, 1) and theta(0, 3) and not theta(0, 2)


def test_theta_x_and_bose_variant():
    theta = theta_x((1, 3))
    assert theta(0, 1) and theta(0, 3) and not theta(0, 2) and not theta(0, 0)
    theta_b = theta_x_bose((1, 3))
    assert theta_b(4, 4) and theta_b(4, 5) and not theta_b(4, 6)


def test_cs_rule_examples():
    rule = CSRule(1, 2)
    assert rule.allows((1, 2, 5))
    assert not rule.allows((1, 3))
    assert rule.allows(())
    assert rule.allows((4,))
    bose_like = CSRule(0, 2)
    assert bose_like.allows((2, 2, 4))
    assert not bose_like.allows((2, 3))


def test_word_order_matters_for_pair_rules():
    # pair rules read adjacent ordered differences; a descending word
    # has negative gaps and is forbidden whenever gaps must be positive
    rule = CSRule(1, 1)
    assert rule.allows((1, 2))
    assert not rule.allows((2, 1))


def test_gentile_rule_counts_occupancy():
    rule = GentileRule(2)
    assert rule.allows((1, 1))
    assert not rule.allows((1, 1, 1))
    assert rule.allows((3, 1, 3))
    with pytest.raises(ValueError):
        GentileRule(0)


def test_total_cap_rule():
    rule = TotalCapRule(2)
    assert rule.allows(())
    assert rule.allows((5, 5))
    assert not rule.allows((1, 2, 3))
    with pytest.raises(ValueError):
        TotalCapRule(0)


def test_window_rules():
    assert WindowRule(2, "min").allows((1, 3, 6))
    assert not WindowRule(2, "min").allows((1, 2))
    assert WindowRule(2, "max").allows((1, 3, 4))
    assert not WindowRule(2, "max").allows((1, 4))


def test_is_allowed_none_rule_allows_everything():
    assert is_allowed((3, 1, 2), None)


@pytest.mark.parametrize(
    "rule,predicate",
    [
        (CSRule(1, 2), lambda s: cs_allowed(s, 1, 2)),
        (CSRule(2, 1), lambda s: cs_allowed(s, 2, 1)),
        (CSRule(0, 2), lambda s: cs_allowed(s, 0, 2)),
        (XFermiRule((1, 3)), lambda s: x_allowed(s, (1, 3))),
        (XBoseRule((2,)), lambda s: x_bose_allowed(s, (2,))),
        (WindowRule(2, "min"), lambda s: window_allowed(s, 2, "min")),
        (WindowRule(2, "max"), lambda s: window_allowed(s, 2, "max")),
        (GentileRule(2), lambda s: gentile_allowed(s, 2)),
        (TotalCapRule(2), lambda s: len(s) <= 2),
    ],
)
def test_enumeration_matches_brute_filter(rule, predicate):
    for m in range(1, 7):
        for n in range(4):
            expected = filter_states(brute_states(m, n), predicate)
            assert enumerate_allowed(m, n, rule) == expected


def test_enumeration_is_sorted_and_canonical():
    states = enumerate_allowed(8, 3, CSRule(1, 2))
    assert states == sorted(states)
    assert all(s == tuple(sorted(s)) for s in states)


def test_enumeration_free_case_counts():
    from math import comb

    for m in range(1, 6):
        for n in range(4):
            assert len(enumerate_allowed(m, n, None)) == comb(m + n - 1, n)


def test_enumeration_zero_particles():
    assert enumerate_allowed(5, 0, CSRule(3, 1)) == [()]


def test_enumeration_capacity_guard():
    with pytest.raises(CapacityExceededError):
        enumerate_allowed(100, 50, None, cap=1000)


def test_frozen_enumeration_example():
    states = enumerate_allowed(6, 2, CSRule(1, 2))
    assert states == [
        (1, 2), (1, 4), (1, 6), (2, 3), (2, 5),
        (3, 4), (3, 6), (4, 5), (5, 6),
    ]


@pytest.mark.parametrize(
    "rule",
    [None, CSRule(1, 2), CSRule(0, 1), XFermiRule((2,)), XBoseRule((1, 2)),
     WindowRule(2, "min"), WindowRule(3, "max"), GentileRule(2),
     TotalCapRule(2)],
)
def test_count_allowed_words_matches_brute_force(rule):
    for m in range(1, 5):
        for n in range(4):
            words = brute_words(m, n)
            if rule is None:
                expected = len(words)
            else:
                expected = sum(1 for w in words if rule.allows(w))
            assert count_allowed_words(m, n, rule) == expected


@given(st.integers(1, 6), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))
def test_cs_enumeration_matches_filter_property(m, n, p, q):
    expected = filter_states(brute_states(m, n), lambda s: cs_allowed(s, p, q))
    assert enumerate_allowed(m, n, CSRule(p, q)) == expected


def test_cs_unit_parameters_enumerate_like_fermions():
    from math import comb

    for m in range(1, 11):
        for n in range(m + 1):
            assert len(enumerate_allowed(m, n, CSRule(1, 1))) == comb(m, n)


def test_cs_zero_p_allows_reoccupation():
    from math import comb

    from fockcount.counting import count_cs_bose

    # p = 0, q = 1 admits every multiset; larger q spaces the support sites
    for m in range(1, 7):
        for n in range(1, 5):
            assert len(enumerate_allowed(m, n, CSRule(0, 1))) == comb(m + n - 1, n)
            for q in (2, 3):
                assert len(enumerate_allowed(m, n, CSRule(0, q))) == count_cs_bose(
                    m, n, q
                )
