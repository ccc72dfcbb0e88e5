"""Restriction rules and allowed-state enumeration, cross-checked by
filtering the full candidate set with independent predicates."""

import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fockcount.core import bose, build_lattice, quon
from fockcount.counting import count_enumerated, count_gentile
from fockcount.gram import extended_g, gram_matrix, one_particle_dimension, sector_dimension
from fockcount.restrictions import (
    AdjacentPairRule,
    CSRule,
    CapacityExceededError,
    GentileRule,
    OccupancyRule,
    RestrictionRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    count_allowed_states,
    count_allowed_words,
    enumerate_allowed,
)

from oracles import (
    brute_states,
    brute_words,
    count_by_site_table,
    cs_allowed,
    filter_states,
    gentile_allowed,
    total_cap_allowed,
    window_allowed,
    x_allowed,
    x_bose_allowed,
)


def test_cs_rule_gap_allowed_gap_set():
    rule = CSRule(1, 2)
    assert [rule.gap_allowed(d) for d in range(7)] == [
        False, True, False, True, False, True, False,
    ]
    rule0 = CSRule(0, 3)
    assert rule0.gap_allowed(0) and rule0.gap_allowed(3)
    assert not rule0.gap_allowed(2)


def test_rule_validation():
    with pytest.raises(ValueError, match="p must be >= 0, got -1"):
        CSRule(-1, 2)
    with pytest.raises(ValueError, match="q must be >= 1, got 0"):
        CSRule(1, 0)
    with pytest.raises(ValueError, match="non-empty"):
        XFermiRule(())
    with pytest.raises(ValueError, match="strictly increasing positive"):
        XFermiRule((0, 1))
    with pytest.raises(ValueError, match="window width must be >= 0, got -1"):
        WindowRule(-1, "min")
    with pytest.raises(ValueError, match="window width must be >= 1, got 0"):
        WindowRule(0, "max")
    with pytest.raises(ValueError, match="window mode must be 'min' or 'max'"):
        WindowRule(1, "sideways")


def test_min_window_of_width_zero_allows_every_word():
    rule = WindowRule(0, "min")
    assert all(rule.allows(w) for w in brute_words(3, 3))
    assert enumerate_allowed(3, 2, rule) == brute_states(3, 2)


def test_x_fermi_rule_canonicalises_gap_sets():
    # unordered input is sorted and de-duplicated
    rule = XFermiRule((3, 1, 3))
    assert rule.gaps == (1, 3)
    assert rule.gap_allowed(1) and rule.gap_allowed(3)
    assert not rule.gap_allowed(2)


def test_x_fermi_rule_and_bose_variant():
    rule = XFermiRule((1, 3))
    assert rule.gap_allowed(1) and rule.gap_allowed(3)
    assert not rule.gap_allowed(2) and not rule.gap_allowed(0)
    rule_b = XBoseRule((1, 3))
    assert rule_b.gap_allowed(0) and rule_b.gap_allowed(1)
    assert not rule_b.gap_allowed(2)


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


def test_occupancy_rules_decide_an_unsorted_word_by_its_multiset():
    assert not GentileRule(2).allows((3, 1, 3, 1, 3))
    assert GentileRule(3).allows((3, 1, 3, 1, 3))
    assert TotalCapRule(3).allows((2, 1, 2))
    assert not TotalCapRule(2).allows((2, 1, 2))
    for rule in (GentileRule(1), TotalCapRule(1)):
        assert rule.allows(())
        assert rule.multiset_allowed(())


def test_window_rules():
    assert WindowRule(2, "min").allows((1, 3, 6))
    assert not WindowRule(2, "min").allows((1, 2))
    assert WindowRule(2, "max").allows((1, 3, 4))
    assert not WindowRule(2, "max").allows((1, 4))


# Each rule with an independent predicate on words. CSRule(4, 1) and
# XFermiRule((6,)) leave sites without any successor at small M. The order
# keeps the test ids (rule0, rule1, ...) of the rules listed first.
RULE_PREDICATES = {
    CSRule(1, 2): lambda s: cs_allowed(s, 1, 2),
    CSRule(2, 1): lambda s: cs_allowed(s, 2, 1),
    CSRule(0, 2): lambda s: cs_allowed(s, 0, 2),
    XFermiRule((1, 3)): lambda s: x_allowed(s, (1, 3)),
    XBoseRule((2,)): lambda s: x_bose_allowed(s, (2,)),
    WindowRule(2, "min"): lambda s: window_allowed(s, 2, "min"),
    WindowRule(2, "max"): lambda s: window_allowed(s, 2, "max"),
    GentileRule(2): lambda s: gentile_allowed(s, 2),
    TotalCapRule(2): lambda s: total_cap_allowed(s, 2),
    None: lambda s: True,
    WindowRule(0, "min"): lambda s: window_allowed(s, 0, "min"),
    GentileRule(1): lambda s: gentile_allowed(s, 1),
    GentileRule(3): lambda s: gentile_allowed(s, 3),
    TotalCapRule(5): lambda s: total_cap_allowed(s, 5),
    CSRule(4, 1): lambda s: cs_allowed(s, 4, 1),
    XFermiRule((6,)): lambda s: x_allowed(s, (6,)),
    CSRule(0, 1): lambda s: cs_allowed(s, 0, 1),
    XFermiRule((2,)): lambda s: x_allowed(s, (2,)),
    XBoseRule((1, 2)): lambda s: x_bose_allowed(s, (1, 2)),
    WindowRule(3, "max"): lambda s: window_allowed(s, 3, "max"),
}


@pytest.mark.parametrize("rule,predicate", list(RULE_PREDICATES.items()))
def test_enumeration_matches_brute_filter(rule, predicate):
    # from N = 4 on, words of N - 2 sites share tail states, and a run of
    # one site may cross into the two sites that end a state
    for m in range(1, 8):
        for n in range(7):
            expected = filter_states(brute_states(m, n), predicate)
            assert enumerate_allowed(m, n, rule) == expected
            if rule is None or isinstance(rule, AdjacentPairRule):
                assert count_allowed_states(m, n, rule) == len(expected)
            else:
                with pytest.raises(TypeError):
                    count_allowed_states(m, n, rule)


def test_enumeration_is_sorted_and_canonical():
    states = enumerate_allowed(8, 3, CSRule(1, 2))
    assert states == sorted(states)
    assert all(s == tuple(sorted(s)) for s in states)


@pytest.mark.parametrize("m,n,most", [(31, 4, 1), (20, 6, 1)])
def test_gentile_listing_matches_the_closed_form(m, n, most):
    states = enumerate_allowed(m, n, GentileRule(most))
    assert states == sorted(states)
    assert all(s == tuple(sorted(s)) for s in states)
    assert len(states) == count_gentile(m, n, most)
    # a cap of N prunes no word: the walk reads m = N without a GentileRule
    assert enumerate_allowed(m, n, GentileRule(n)) == enumerate_allowed(m, n)


def test_rule_of_no_supported_type_is_refused():
    class EveryWord(RestrictionRule):
        __slots__ = ()

        def allows(self, state):
            return True

    class EvenRule(OccupancyRule):
        __slots__ = ()

        def multiset_allowed(self, word):
            return len(word) % 2 == 0

    for n in (0, 1, 3):
        with pytest.raises(TypeError, match="EveryWord"):
            enumerate_allowed(4, n, EveryWord())
        with pytest.raises(TypeError, match="EveryWord"):
            count_allowed_states(4, n, EveryWord())
    for n in (0, 2):
        with pytest.raises(TypeError, match="EveryWord"):
            count_allowed_words(4, n, EveryWord())
        for alg in (quon(0), bose()):
            with pytest.raises(TypeError, match="EveryWord"):
                count_enumerated(4, n, EveryWord(), alg)
    # the Gram route tests no word one by one, so it refuses the rule too, and
    # takes no occupancy rule but a GentileRule or a TotalCapRule
    for rule in (EveryWord(), EvenRule()):
        name = type(rule).__name__
        with pytest.raises(TypeError, match=name):
            sector_dimension((1, 2, 2), bose(), rule)
        with pytest.raises(TypeError, match=name):
            gram_matrix((1, 2, 2), bose(), rule)
        with pytest.raises(TypeError, match=name):
            count_enumerated(4, 2, rule, bose())
        with pytest.raises(TypeError, match=name):
            one_particle_dimension((1, 2), build_lattice(4), bose(), rule)
        with pytest.raises(TypeError, match=name):
            extended_g((1,), (2,), build_lattice(4), bose(), rule)


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


def test_total_cap_enumeration_keeps_the_capacity_guard():
    with pytest.raises(CapacityExceededError):
        enumerate_allowed(100, 50, TotalCapRule(5), cap=1000)


def test_frozen_enumeration_example():
    states = enumerate_allowed(6, 2, CSRule(1, 2))
    assert states == [
        (1, 2), (1, 4), (1, 6), (2, 3), (2, 5),
        (3, 4), (3, 6), (4, 5), (5, 6),
    ]


# listed first in this order, which keeps their test ids
_COUNT_RULES = [None, CSRule(1, 2), CSRule(0, 1), XFermiRule((2,)), XBoseRule((1, 2)),
                WindowRule(2, "min"), WindowRule(3, "max"), GentileRule(2), TotalCapRule(2)]


@pytest.mark.parametrize(
    "rule", _COUNT_RULES + [rule for rule in RULE_PREDICATES if rule not in _COUNT_RULES])
def test_count_allowed_words_matches_brute_force(rule):
    predicate = RULE_PREDICATES[rule]
    for m in range(1, 8):
        for n in range(5):
            words = brute_words(m, n)
            assert count_allowed_words(m, n, rule) == sum(map(predicate, words))


_gap_sets = st.lists(st.integers(1, 12), min_size=1, max_size=4)
_gap_rules = st.one_of(
    st.none(),
    st.builds(CSRule, st.integers(0, 6), st.integers(1, 5)),
    st.builds(XFermiRule, _gap_sets),
    st.builds(XBoseRule, _gap_sets),
    st.builds(WindowRule, st.integers(0, 8), st.just("min")),
    st.builds(WindowRule, st.integers(1, 8), st.just("max")),
)


@given(st.integers(1, 40), st.integers(0, 4), _gap_rules)
# the counters add a long run of consecutive gaps at once and the other gaps
# one by one: ordered window-min words have two long runs, CSRule(0, 1) one,
# CSRule(1, 3) and XFermiRule((2,)) runs of one gap, and
# XBoseRule((1, 2, 3, 5, 6, 9)) the runs [0, 3], [5, 6] and [9, 9]
@example(m=40, n=4, rule=WindowRule(3, "min"))
@example(m=40, n=4, rule=CSRule(0, 1))
@example(m=40, n=4, rule=CSRule(1, 3))
@example(m=40, n=4, rule=XFermiRule((2,)))
@example(m=40, n=4, rule=XBoseRule((1, 2, 3, 5, 6, 9)))
def test_counts_match_the_site_table(m, n, rule):
    # the brute-force tests stop at M = 7; ordered words step back as well
    # as forward, which the window rules allow
    assert count_allowed_states(m, n, rule) == count_by_site_table(m, n, rule, True)
    if rule is not None:
        assert count_allowed_words(m, n, rule) == count_by_site_table(m, n, rule, False)


def test_counts_hold_memory_linear_in_the_sites():
    # a table of successor sites would hold about M^2 / 2 = 180,000 entries
    for count, rule in [(count_allowed_states, WindowRule(1, "min")),
                        (count_allowed_words, CSRule(1, 1))]:
        tracemalloc.start()
        try:
            assert count(600, 2, rule) == 179_700
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_a_refusal_states_a_long_candidate_count_by_its_power_of_ten():
    # C(119999, 20000) has 23,479 digits, more than str() makes by default
    with pytest.raises(CapacityExceededError, match=r"^about 10\^23479 candidate states "
                       "for 20000 particles on 100000 sites exceeds cap 2000000$"):
        enumerate_allowed(100_000, 20_000)
    # 30 digits, the most a refusal prints in full, and 31
    with pytest.raises(CapacityExceededError, match="^266668000002333335000000400000 "):
        enumerate_allowed(2 * 10**6, 5)
    with pytest.raises(CapacityExceededError, match=r"^about 10\^30 candidate"):
        enumerate_allowed(3 * 10**6, 5)


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
