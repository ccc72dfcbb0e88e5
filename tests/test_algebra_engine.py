"""Annihilator action and the recursive inner product, checked against
explicit permutation-sum oracles (permanent, determinant, inversion count)."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockcount.core import bose, build_lattice, fermi, quon
from fockcount.algebra_engine import (
    HIST_BITS,
    MAX_WORD_LETTERS,
    LinearCombination,
    _contract,
    apply_annihilator,
    apply_annihilator_to_combination,
    inner_product,
    unpacked,
)
from fockcount.gram import permutation_orbit
from fockcount.restrictions import CapacityExceededError

from oracles import (
    delta_matrix,
    determinant_bruteforce,
    inversions,
    permanent,
    quon_overlap_bruteforce,
    quon_overlap_distinct,
)

HALF = Fraction(1, 2)


def test_annihilator_drops_each_matching_position():
    # a_1 on |1,2,1>: positions 0 and 2 match, coefficients q^0 and q^2
    combo = apply_annihilator(1, (1, 2, 1), quon(HALF))
    assert combo.as_dict() == {(2, 1): Fraction(1), (1, 2): Fraction(1, 4)}


def test_annihilator_misses_give_zero():
    combo = apply_annihilator(3, (1, 2, 1), quon(HALF))
    assert combo.is_zero


def test_annihilator_bose_counts_multiplicity():
    combo = apply_annihilator(2, (2, 2), bose())
    assert combo.as_dict() == {(2,): Fraction(2)}


def test_annihilator_fermi_alternates_sign():
    # positions 1 and 2 match with signs (-1)^1 and (-1)^2; terms cancel
    combo = apply_annihilator(2, (1, 2, 2), fermi())
    assert combo.is_zero


def test_annihilator_validates_lattice_membership():
    lat = build_lattice(3)
    with pytest.raises(ValueError):
        apply_annihilator(4, (1, 2), bose(), lat)


def test_combination_normalises_and_sorts():
    combo = LinearCombination.from_dict(
        {(2, 1): Fraction(1), (1, 2): Fraction(0), (1, 1): Fraction(-1)}
    )
    assert combo.terms == (((1, 1), Fraction(-1)), ((2, 1), Fraction(1)))
    assert combo.coefficient((1, 2)) == 0
    assert len(combo) == 2


def test_apply_annihilator_to_combination_is_linear():
    base = LinearCombination.from_dict(
        {(1, 2): Fraction(2), (2, 1): Fraction(3)}
    )
    out = apply_annihilator_to_combination(1, base, quon(HALF))
    # from (1,2): 2*q^0 |2>; from (2,1): 3*q^1 |2>
    assert out.as_dict() == {(2,): Fraction(2) + Fraction(3) * HALF}


def test_inner_product_length_mismatch_is_zero():
    assert inner_product((1,), (1, 1), bose()) == 0
    assert inner_product((), (), fermi()) == 1


def test_inner_product_single_mode():
    assert inner_product((2,), (2,), quon(HALF)) == 1
    assert inner_product((2,), (3,), quon(HALF)) == 0


@pytest.mark.parametrize(
    "bra,ket",
    [
        ((1, 1), (1, 1)),
        ((1, 2), (2, 1)),
        ((1, 1, 2), (1, 2, 1)),
        ((1, 2, 3), (3, 2, 1)),
        ((1, 1, 1), (1, 1, 1)),
        ((1, 2, 2, 3), (2, 3, 1, 2)),
    ],
)
def test_bose_inner_product_is_permanent(bra, ket):
    expected = permanent(delta_matrix(bra, ket))
    assert inner_product(bra, ket, bose()) == expected


@pytest.mark.parametrize(
    "bra,ket",
    [
        ((1, 2), (2, 1)),
        ((1, 2, 3), (3, 2, 1)),
        ((1, 2, 3), (2, 3, 1)),
        ((1, 2, 3, 4), (4, 3, 2, 1)),
    ],
)
def test_fermi_inner_product_magnitude_is_determinant(bra, ket):
    expected = determinant_bruteforce(delta_matrix(bra, ket))
    assert abs(inner_product(bra, ket, fermi())) == abs(expected)


def test_fermi_repeated_mode_vanishes():
    assert inner_product((1, 1), (1, 1), fermi()) == 0
    assert inner_product((1, 1, 2), (1, 2, 1), fermi()) == 0


def test_quon_distinct_overlap_is_q_to_inversions():
    q = Fraction(1, 3)
    alg = quon(q)
    for n in (2, 3):
        word = tuple(range(1, n + 1))
        for perm in permutations(word):
            assert inner_product(word, perm, alg) == quon_overlap_distinct(
                word, perm, q
            )


def test_quon_zero_gram_is_identity_on_words():
    alg = quon(0)
    words = list(permutations((1, 2, 3)))
    for w1 in words:
        for w2 in words:
            expected = 1 if w1 == w2 else 0
            assert inner_product(w1, w2, alg) == expected


def test_quon_zero_identity_with_repeats():
    alg = quon(0)
    words = sorted(set(permutations((1, 1, 2))))
    for w1 in words:
        for w2 in words:
            expected = 1 if w1 == w2 else 0
            assert inner_product(w1, w2, alg) == expected


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=4).map(tuple),
    st.lists(st.integers(1, 3), min_size=0, max_size=4).map(tuple),
)
def test_bose_inner_product_matches_permanent_everywhere(bra, ket):
    value = inner_product(bra, ket, bose())
    if len(bra) != len(ket):
        assert value == 0
    else:
        assert value == permanent(delta_matrix(bra, ket))


@given(
    st.permutations(list(range(1, 5))),
    st.permutations(list(range(1, 5))),
    st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10)),
)
def test_quon_overlap_symmetry(bra, ket, q):
    # the overlap only depends on the relative permutation
    alg = quon(q)
    lhs = inner_product(tuple(bra), tuple(ket), alg)
    rhs = inner_product(tuple(ket), tuple(bra), alg)
    assert lhs == rhs


def test_overlap_depends_only_on_relative_order():
    q = Fraction(2, 5)
    alg = quon(q)
    sigma = (2, 0, 1)
    base = (1, 2, 3)
    relabeled = (4, 7, 9)
    w1 = tuple(base[i] for i in sigma)
    w2 = tuple(relabeled[i] for i in sigma)
    assert inner_product(base, w1, alg) == inner_product(relabeled, w2, alg)
    assert inner_product(base, w1, alg) == q ** inversions(sigma)


def test_oracle_sweep_every_short_word_pair():
    # every bra/ket pair over three sites up to three particles
    b, f = bose(), fermi()
    for n in (1, 2, 3):
        words = list(product((1, 2, 3), repeat=n))
        for bra in words:
            for ket in words:
                d = delta_matrix(bra, ket)
                assert inner_product(bra, ket, b) == permanent(d)
                assert abs(inner_product(bra, ket, f)) == abs(
                    determinant_bruteforce(d)
                )


def test_oracle_sweep_four_particles_four_sites():
    # length-4 words compared orbit by orbit; pairs from different orbits
    # vanish on both routes through a mismatched coincidence row
    b, f = bose(), fermi()
    for ms in combinations_with_replacement((1, 2, 3, 4), 4):
        orbit = sorted(set(permutations(ms)))
        for bra in orbit:
            for ket in orbit:
                d = delta_matrix(bra, ket)
                assert inner_product(bra, ket, b) == permanent(d)
                assert abs(inner_product(bra, ket, f)) == abs(
                    determinant_bruteforce(d)
                )
    assert inner_product((1, 1, 2, 3), (1, 2, 4, 4), b) == 0
    assert inner_product((1, 1, 2, 3), (1, 2, 4, 4), f) == 0


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    st.integers(1, 4),
)
def test_annihilator_terms_have_one_fewer_particle(word, mode):
    for alg in (bose(), fermi(), quon(Fraction(1, 2)), quon(0)):
        combo = apply_annihilator(mode, word, alg)
        for state in combo.as_dict():
            assert len(state) == len(word) - 1


def _q_factorial(m, q):
    value = Fraction(1)
    for k in range(1, m + 1):
        value *= sum(q**i for i in range(k))
    return value


@pytest.mark.parametrize("q", [HALF, Fraction(-1, 3)])
def test_repeated_letter_norm_is_q_factorial(q):
    # <1^m|1^m> sums q^inv over all m! permutations: the q-factorial [m]_q!
    for m in range(1, 11):
        assert inner_product((1,) * m, (1,) * m, quon(q)) == _q_factorial(m, q)
    assert inner_product((4,) * 10, (4,) * 10, bose()) == factorial(10)


@pytest.mark.parametrize("word", [(1, 1, 1, 2, 2), (1, 1, 2, 2, 3)])
def test_repeated_letter_overlaps_match_bruteforce(word):
    q = Fraction(-3, 5)
    orbit = permutation_orbit(word)
    for bra in orbit:
        for ket in orbit:
            assert inner_product(bra, ket, quon(q)) == quon_overlap_bruteforce(bra, ket, q)


def test_inner_product_refuses_words_past_the_letter_bound():
    n = MAX_WORD_LETTERS
    assert inner_product((1,) * n, (1,) * n, bose()) == factorial(n)
    with pytest.raises(CapacityExceededError, match=f"{n + 1} letters"):
        inner_product((1,) * (n + 1), (1,) * (n + 1), bose())


def test_histogram_coefficient_bits_hold_every_count():
    # a coefficient counts bijections of at most MAX_WORD_LETTERS letters
    assert 2**HIST_BITS > factorial(MAX_WORD_LETTERS)


def _inversion_histogram(bra, ket):
    """Bijections pi with bra[i] == ket[pi(i)], counted by inversion number."""
    counts = Counter(
        inversions(pi)
        for pi in permutations(range(len(ket)))
        if all(b == ket[j] for b, j in zip(bra, pi))
    )
    return [counts[k] for k in range(max(counts) + 1)] if counts else []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unpacked_contraction_is_the_inversion_histogram(n):
    words = list(permutations(range(n)))
    for bra in words[:: max(1, len(words) // 5)]:
        for ket in words:
            assert unpacked(_contract(bra, ket)) == _inversion_histogram(bra, ket)


@pytest.mark.parametrize("word", [(0, 0, 1, 1, 2), (0, 0, 0, 1, 1), (0, 1, 1, 2)])
def test_unpacked_contraction_with_repeated_letters(word):
    orbit = permutation_orbit(word)
    for bra in orbit:
        for ket in orbit:
            assert unpacked(_contract(bra, ket)) == _inversion_histogram(bra, ket)
    assert _contract((0, 1), (0, 0)) == 0
