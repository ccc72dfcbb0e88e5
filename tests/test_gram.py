"""Gram matrices, exact ranks and dimension differences. Entries of the
shape-keyed build are cross-checked against a brute-force sum over
permutations, ranks from the integer kernel (modular certificate, then
fraction-free elimination) against a plain Fraction Gaussian eliminator,
determinants against the permutation-sum formula and Zagier's product
formula. The packed modular kernel is held against a per-entry elimination
over lists."""

import re
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, isqrt, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fockcount.algebra_engine import MAX_WORD_LETTERS, _contract, inner_product
from fockcount import gram
from fockcount.core import ModeLattice, bose, build_lattice, fermi, quon
from fockcount.counting import count_enumerated
from fockcount.gram import (
    MAX_ORBIT_WORDS,
    RANK_PRIME,
    _canonical,
    _canonical_orbit,
    _diagonal_pivots_nonzero_mod_prime,
    _live_mask,
    _packed,
    _pair_mask,
    _residue_bytes,
    _sector_rank,
    _shape_gram,
    exact_determinant,
    extended_g,
    gram_matrix,
    one_particle_dimension,
    orbit_size,
    permutation_orbit,
    rational_rank,
    sector_dimension,
)
from fockcount.registry import RULES
from fockcount.restrictions import (
    AdjacentPairRule,
    CapacityExceededError,
    CSRule,
    GentileRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
)

from oracles import (
    determinant_bruteforce,
    diagonal_pivots_nonzero_mod,
    gauss_rank,
    gentile_allowed,
    one_particle_by_site,
    quon_overlap_bruteforce,
    total_cap_allowed,
)

HALF = Fraction(1, 2)


def test_permutation_orbit_distinct():
    orbit = permutation_orbit((2, 1, 3))
    assert len(orbit) == 6
    assert list(orbit) == sorted(orbit)
    assert orbit[0] == (1, 2, 3)


def test_permutation_orbit_with_repeats():
    orbit = permutation_orbit((1, 1, 2))
    assert orbit == ((1, 1, 2), (1, 2, 1), (2, 1, 1))


@pytest.mark.parametrize(
    "word", [(3, 1, 2), (1, 2, 3, 4), (1, 1, 2), (2, 1, 2, 1), (1, 1, 1), (3, 1, 3, 2, 1)]
)
def test_permutation_orbit_matches_distinct_permutations(word):
    assert permutation_orbit(word) == tuple(sorted(set(permutations(word))))


def test_permutation_orbit_empty_rejected():
    with pytest.raises(ValueError):
        permutation_orbit(())


def test_permutation_orbit_capacity_guard():
    assert len(permutation_orbit(range(1, 7))) == MAX_ORBIT_WORDS
    # 8! words would be refused before any is generated
    with pytest.raises(CapacityExceededError):
        permutation_orbit(range(1, 9))
    with pytest.raises(CapacityExceededError):
        gram_matrix(range(1, 8), bose())
    # a large multiset with a small orbit is not refused
    assert len(permutation_orbit((1,) * 20 + (2,))) == 21


def test_orbit_guard_names_the_callers_multiset():
    # The Gram routes build the orbit of the renamed word (0, 0, 0, 1, 2, 3, 4).
    message = "the orbit of (3, 3, 3, 5, 8, 9, 12) has 840 words, more than the 720"
    for call in (permutation_orbit, lambda w: sector_dimension(w, bose()),
                 lambda w: gram_matrix(w, quon(Fraction(1, 2)))):
        with pytest.raises(CapacityExceededError, match=re.escape(message)):
            call((12, 3, 9, 3, 5, 8, 3))


def test_rational_rank_simple_cases():
    assert rational_rank([]) == 0
    assert rational_rank([[Fraction(0), Fraction(0)]]) == 0
    assert rational_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rational_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2


def test_kernel_accepts_any_fraction_input():
    # ints, floats and Decimals are converted as Fraction() would convert them
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0.5, 1.0], [1.0, 2.0]]) == 1
    assert rational_rank([[Decimal("0.1"), 1], [1, Decimal("0.3")]]) == 2
    assert exact_determinant([[0.5, 0.25], [1, 3]]) == Fraction(5, 4)
    assert exact_determinant([[Decimal("0.1"), 1], [1, Decimal("0.3")]]) == Fraction(-97, 100)


@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_rational_rank_matches_gaussian_elimination(rows):
    assert rational_rank(rows) == gauss_rank(rows)


@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=3,
            max_size=3,
        ),
        min_size=3,
        max_size=3,
    )
)
def test_exact_determinant_matches_permutation_sum(rows):
    assert exact_determinant(rows) == determinant_bruteforce(
        [[Fraction(x) for x in row] for row in rows]
    )


def test_rank_singular_mod_prime_falls_back_to_exact():
    # both matrices vanish or drop rank modulo RANK_PRIME but not over Q
    p = Fraction(RANK_PRIME)
    assert rational_rank([[p]]) == gauss_rank([[p]]) == 1
    m = [[Fraction(1), Fraction(1)], [Fraction(1), 1 + p]]
    assert rational_rank(m) == gauss_rank(m) == 2
    assert exact_determinant(m) == determinant_bruteforce(m) == p
    scaled = [[x / 3 for x in row] for row in m]
    assert rational_rank(scaled) == 2
    assert exact_determinant(scaled) == p / 9


def test_symmetric_full_rank_with_a_zero_pivot_falls_back_to_exact():
    # symmetric and of full rank, but the first diagonal pivot is 0
    assert rational_rank([[0, 1], [1, 0]]) == 2
    assert rational_rank([[0, 1, 2], [1, 0, 3], [2, 3, 0]]) == 3
    # not symmetric: never certified by the diagonal elimination, whose
    # pivots 1 and 2 - 2 * 2 would claim full rank here
    assert rational_rank([[1, 2], [1, 2]]) == 1
    assert rational_rank([[1, 2], [3, 4]]) == 2


@st.composite
def symmetric_integer_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    cell = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([RANK_PRIME, -RANK_PRIME, 2 * RANK_PRIME + 1]),
    )
    upper = {(i, j): draw(cell) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@given(symmetric_integer_matrices())
def test_rational_rank_matches_gaussian_elimination_on_symmetric_matrices(rows):
    assert rational_rank(rows) == gauss_rank(rows)


def test_rank_prime_is_prime_and_keeps_packed_slots_apart():
    p = RANK_PRIME
    assert all(p % d for d in range(2, isqrt(p) + 1))
    # a slot starts below p and gains at most (p - 1)**2 on each of the
    # n - 1 steps before its row is reduced, here for 2**16 rows
    assert p + ((1 << 16) - 1) * (p - 1) ** 2 < 1 << 64


@st.composite
def symmetric_residue_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    cell = st.one_of(st.sampled_from([0, 1, RANK_PRIME - 1]),
                     st.integers(min_value=0, max_value=RANK_PRIME - 1))
    upper = {(i, j): draw(cell) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@given(symmetric_residue_matrices())
@example([[0] * 12 for _ in range(12)])
@example([[RANK_PRIME - 1] * 12 for _ in range(12)])
@example([[RANK_PRIME - 1 if i == j else RANK_PRIME - 2 for j in range(12)] for i in range(12)])
@example([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
def test_packed_kernel_matches_per_entry_elimination(m):
    rows = [_packed(map(_residue_bytes, row[i:])) for i, row in enumerate(m)]
    assert _diagonal_pivots_nonzero_mod_prime(rows) == diagonal_pivots_nonzero_mod(m, RANK_PRIME)


def test_all_zero_sector_ranks_zero():
    # a repeated letter at q = -1: every histogram's value vanishes
    word = _canonical((1, 1, 2, 2))[0]
    assert _sector_rank(word, Fraction(-1), (1 << 6) - 1) == 0
    assert sector_dimension((1, 1, 2, 2), fermi()) == 0


@pytest.mark.parametrize("q", [Fraction(1, RANK_PRIME), Fraction(RANK_PRIME)])
@pytest.mark.parametrize("ms", [(1, 2, 3), (1, 1, 2, 3)])
def test_sector_rank_when_the_prime_divides_q(ms, q):
    # residues come from the exact scaled values: most vanish at q = 1/p,
    # and at q = p the matrix mod p is that of q = 0
    states = permutation_orbit(ms)
    entries = [[quon_overlap_bruteforce(u, v, q) for v in states] for u in states]
    full = (1 << len(states)) - 1
    assert _sector_rank(_canonical(ms)[0], q, full) == gauss_rank(entries)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(-2)])
@pytest.mark.parametrize("ms", [(1, 2, 3), (1, 2, 3, 4), (1, 1, 2, 3), (1, 1, 2, 2), (1, 1, 1, 2)])
def test_rank_of_indefinite_quon_sectors(ms, q):
    # |q| > 1: the Gram matrix is not positive definite, so a diagonal
    # pivot may vanish; the rank must still be exact
    states = permutation_orbit(ms)
    entries = [[quon_overlap_bruteforce(u, v, q) for v in states] for u in states]
    full = (1 << len(states)) - 1
    assert _sector_rank(_canonical(ms)[0], q, full) == rational_rank(entries) == gauss_rank(entries)


# Sectors of at most 60 words from the benchmark's gram-sectors patterns:
# full-rank quon and q = 0 sectors, rank-deficient Bose and Fermi ones, and
# rule-projected sectors.
KERNEL_SECTORS = (
    ((1, 1, 2, 3, 4), quon(Fraction(-3, 5)), None),
    ((1, 1, 1, 2, 2, 3), bose(), None),
    ((1, 1, 1, 2, 2, 3), quon(0), None),
    ((1, 1, 2, 2, 3), quon(Fraction(-1, 3)), None),
    ((1, 2, 3, 4), fermi(), None),
    ((1, 1, 1, 2, 3), quon(Fraction(2, 3)), None),
    ((1, 2, 3), quon(HALF), None),
    ((1, 3, 4, 6), quon(Fraction(-1, 3)), WindowRule(2, "min")),
    ((1, 1, 2, 4), quon(HALF), WindowRule(2, "max")),
    ((1, 2, 3, 4), bose(), CSRule(1, 2)),
    ((1, 2, 3, 4), bose(), WindowRule(1, "max")),
    ((2, 3, 5, 6), fermi(), WindowRule(3, "max")),
)


@pytest.mark.parametrize("ms, alg, rule", KERNEL_SECTORS)
def test_rational_rank_matches_gaussian_elimination_on_sectors(ms, alg, rule):
    entries = gram_matrix(ms, alg, rule).entries
    assert rational_rank(entries) == gauss_rank(entries)


def _zagier_determinant(n, q):
    """Zagier's product formula for the distinct-letter quon Gram matrix."""
    det = Fraction(1)
    for k in range(1, n):
        det *= (1 - q ** (k * (k + 1))) ** ((n - k) * factorial(n) // (k * (k + 1)))
    return det


@pytest.mark.parametrize("q", [HALF, Fraction(-1, 3), Fraction(2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_determinant_matches_zagier_product(n, q):
    entries = gram_matrix(tuple(range(1, n + 1)), quon(q)).entries
    assert exact_determinant(entries) == _zagier_determinant(n, q)


def test_exact_determinant_shape_checks():
    assert exact_determinant([]) == 1
    with pytest.raises(ValueError):
        exact_determinant([[Fraction(1), Fraction(2)]])


def test_gram_matrix_entries_distinct_pair():
    gm = gram_matrix((1, 2), quon(HALF))
    assert gm.states == ((1, 2), (2, 1))
    assert gm.entries == (
        (Fraction(1), HALF),
        (HALF, Fraction(1)),
    )
    assert gm.dimension == 2
    assert gm.rank() == 2


def test_gram_rank_quon_distinct_is_full_factorial():
    for n in (1, 2, 3, 4):
        ms = tuple(range(1, n + 1))
        assert sector_dimension(ms, quon(0)) == factorial(n)
        assert sector_dimension(ms, quon(HALF)) == factorial(n)


def test_gram_rank_bose_collapses_to_one():
    for ms in ((1, 2), (1, 2, 3), (1, 1, 2), (2, 2, 2)):
        assert sector_dimension(ms, bose()) == 1


def test_gram_rank_fermi():
    assert sector_dimension((1, 2, 3), fermi()) == 1
    assert sector_dimension((1, 1), fermi()) == 0
    assert sector_dimension((1, 1, 2), fermi()) == 0


def test_gram_rank_quon_repeated_indices():
    # (1,1): orbit {(1,1)}, <11|11> = 1 + q
    assert sector_dimension((1, 1), quon(HALF)) == 1
    # q = 0 keeps every word independent
    assert sector_dimension((1, 1, 2), quon(0)) == 3


def test_quon_gram_positive_definite_for_distinct_sites():
    # all leading principal minors of the full-orbit matrix stay positive
    # anywhere strictly inside the interval, so the N! words are independent
    for n in (1, 2, 3, 4):
        ms = tuple(range(1, n + 1))
        for q in (Fraction(0), HALF, -HALF, Fraction(9, 10)):
            entries = gram_matrix(ms, quon(q)).entries
            for k in range(1, len(entries) + 1):
                minor = [row[:k] for row in entries[:k]]
                assert exact_determinant(minor) > 0


def test_sector_dimension_ignores_multiset_input_order():
    for ms in ((2, 1, 3), (3, 1, 1), (2, 2, 1)):
        canonical = tuple(sorted(ms))
        for alg in (bose(), fermi(), quon(HALF)):
            assert sector_dimension(ms, alg) == sector_dimension(canonical, alg)


def test_rules_never_raise_sector_dimension():
    rules = (CSRule(1, 1), CSRule(1, 2), CSRule(2, 1), GentileRule(1), TotalCapRule(2))
    algebras = (bose(), fermi(), quon(0), quon(HALF))
    multisets = list(combinations_with_replacement(range(1, 5), 2)) + list(
        combinations_with_replacement(range(1, 5), 3)
    )
    for ms in multisets:
        for alg in algebras:
            free = sector_dimension(ms, alg)
            for rule in rules:
                assert sector_dimension(ms, alg, rule) <= free


def test_rule_projection_zeroes_forbidden_words():
    # CS p=1,q=2 on two particles: (1,2) allowed (gap 1), (2,1) not a valid
    # ordered word (negative gap); only one word survives at q=0.
    gm = gram_matrix((1, 2), quon(0), CSRule(1, 2))
    assert gm.dimension == 2
    assert gm.rank() == 1


def test_rule_projection_can_kill_whole_sector():
    gm = gram_matrix((1, 2), quon(0), CSRule(2, 1))
    assert gm.rank() == 0


def test_sector_dimension_respects_gentile_rule():
    assert sector_dimension((1, 1), bose(), GentileRule(1)) == 0
    assert sector_dimension((1, 1), bose(), GentileRule(2)) == 1


def test_one_particle_dimension_counts_admissible_slots():
    lat = build_lattice(6)
    # fixed particle at 3, gaps from {1, 3, 5}: slots 2, 4, 6
    assert one_particle_dimension((3,), lat, quon(0), CSRule(1, 2)) == 3


def test_one_particle_dimension_free_case():
    lat = build_lattice(5)
    assert one_particle_dimension((), lat, quon(0)) == 5
    assert one_particle_dimension((), lat, bose()) == 5


def test_one_particle_dimension_fermi_excludes_occupied_site():
    lat = build_lattice(4)
    # the occupied site contributes a null state, every other site rank 1
    assert one_particle_dimension((1,), lat, fermi()) == 3


def test_extended_g_bose_and_fermi_anchors():
    lat = build_lattice(8)
    assert extended_g((2,), (5,), lat, bose()) == 0
    assert extended_g((3, 6), (1, 7), lat, bose()) == 0
    assert extended_g((2,), (5,), lat, fermi()) == 1
    assert extended_g((3,), (5, 7), lat, fermi()) == 1


def test_extended_g_minimal_gap_rule():
    # integer gap rule p=2: adding the closest admissible particle on the
    # right of a lone fixed one removes two slots
    lat = build_lattice(20)
    for i1 in (1, 5, 10):
        value = extended_g((i1,), (i1 + 2,), lat, quon(0), CSRule(2, 1))
        assert value == 2


def test_extended_g_validates_inputs():
    lat = build_lattice(4)
    with pytest.raises(ValueError):
        extended_g((1,), (), lat, quon(0), CSRule(1, 1))
    with pytest.raises(ValueError):
        extended_g((1,), (9,), lat, quon(0), CSRule(1, 1))


def test_extended_g_total_cap_rule():
    # capped at p particles total: adding the p-th blocks every slot
    lat = build_lattice(6)
    before = one_particle_dimension((1,), lat, fermi(), TotalCapRule(2))
    after = one_particle_dimension((1, 2), lat, fermi(), TotalCapRule(2))
    assert before == 5 and after == 0
    assert extended_g((1,), (2,), lat, fermi(), TotalCapRule(2)) == 5


@st.composite
def lattices_with_fixed(draw):
    """An increasing lattice, gaps and negative labels included, and a fixed
    multiset drawn from its sites, repeated sites and the empty one included."""
    sites = tuple(sorted(draw(st.sets(st.integers(-12, 12), min_size=1, max_size=9))))
    return ModeLattice(sites), tuple(draw(st.lists(st.sampled_from(sites), max_size=4)))


GAP_SETS = st.sets(st.integers(1, 6), min_size=1, max_size=3)


@given(
    lattices_with_fixed(),
    st.sampled_from((bose(), fermi(), quon(0), quon(HALF), quon(Fraction(-1, 3)))),
    st.one_of(
        st.none(),
        st.builds(CSRule, st.integers(0, 3), st.integers(1, 3)),
        st.builds(XFermiRule, GAP_SETS),
        st.builds(XBoseRule, GAP_SETS),
        st.builds(WindowRule, st.integers(1, 3), st.sampled_from(("min", "max"))),
        st.builds(GentileRule, st.integers(1, 3)),
        st.builds(TotalCapRule, st.integers(1, 4)),
    ),
)
@example((build_lattice(6), ()), quon(0), CSRule(1, 2))
@example((ModeLattice((-4, -1, 0, 3)), (-1, -1, 3)), quon(HALF), None)
@example((ModeLattice((-3, -1, 0, 2, 5, 6)), (-1, 5)), quon(HALF), WindowRule(3, "max"))
@example((ModeLattice((0, 1, 3, 4, 7, 10)), (1, 4)), bose(), XBoseRule((3,)))
def test_one_particle_dimension_folds_sites_exactly(case, alg, rule):
    lattice, fixed = case
    assert one_particle_dimension(fixed, lattice, alg, rule) == one_particle_by_site(
        fixed, lattice, alg, rule)


def test_one_particle_dimension_ranks_once_per_class_of_sites(monkeypatch):
    calls = []

    def counted(indices, alg, rule=None):
        calls.append(tuple(indices))
        return sector_dimension(indices, alg, rule)

    monkeypatch.setattr(gram, "sector_dimension", counted)
    lattice = build_lattice(40)
    # below 3, at 3 and above 3: three classes of sites
    assert one_particle_dimension((3,), lattice, quon(HALF)) == 40 * 2 - 1
    assert calls == [(3, 1), (3, 3), (3, 4)]
    calls.clear()
    # only the gaps 1, 3, 5, ... are allowed, so the verdicts split the sites
    # below 3 into two classes and those above 3 into two: sites 2 and 4, 6, ..., 40
    assert one_particle_dimension((3,), lattice, quon(0), CSRule(1, 2)) == 20
    assert len(calls) == 5


def test_one_particle_dimension_refuses_a_thirteen_letter_extension():
    with pytest.raises(CapacityExceededError):
        one_particle_dimension((1,) * 12, build_lattice(3), bose())


# Every multiset shape with at most four particles, on the letters 1..k.
SMALL_SHAPES = tuple(
    tuple(x + 1 for x in w)
    for n in range(1, 5)
    for w in combinations_with_replacement(range(n), n)
    if set(w) == set(range(w[-1] + 1))
)
ENTRY_ALGEBRAS = (
    bose(), fermi(), quon(0), quon(HALF), quon(Fraction(-1, 3)), quon(Fraction(-3, 5))
)
ENTRY_RULES = (None, CSRule(1, 2), CSRule(0, 1), WindowRule(2, "min"), WindowRule(1, "max"))


def _bruteforce_gram(states, q):
    return [[quon_overlap_bruteforce(u, v, q) for v in states] for u in states]


@pytest.mark.parametrize("alg", ENTRY_ALGEBRAS, ids=lambda a: f"{a.kind}:{a.q}")
def test_gram_entries_match_bruteforce_on_every_small_shape(alg):
    assert len(SMALL_SHAPES) == 15
    for ms in SMALL_SHAPES:
        states = tuple(sorted(set(permutations(ms))))
        expected = _bruteforce_gram(states, alg.q)
        for rule in ENTRY_RULES:
            gm = gram_matrix(ms, alg, rule)
            assert gm.states == states
            alive = [rule is None or rule.allows(s) for s in states]
            for i, row in enumerate(gm.entries):
                for j, value in enumerate(row):
                    assert value == (expected[i][j] if alive[i] and alive[j] else 0)


@pytest.mark.parametrize("alg", ENTRY_ALGEBRAS, ids=lambda a: f"{a.kind}:{a.q}")
def test_gram_entries_are_label_invariant(alg):
    labels = (3, 8, 20, 21)
    for ms in ((1, 2, 3, 4), (1, 1, 2, 3), (1, 2, 2, 3), (1, 1, 2, 2)):
        relabelled = tuple(labels[x - 1] for x in ms)
        gm = gram_matrix(relabelled, alg)
        assert gm.states == tuple(sorted(set(permutations(relabelled))))
        assert [list(row) for row in gm.entries] == _bruteforce_gram(gm.states, alg.q)
        assert gm.entries == gram_matrix(ms, alg).entries


def test_one_letter_sector_has_no_factorial_walk():
    _contract.cache_clear()
    _shape_gram.cache_clear()
    _sector_rank.cache_clear()
    start = time.perf_counter()
    assert sector_dimension((1,) * 10, bose()) == 1
    assert time.perf_counter() - start < 0.5
    assert gram_matrix((7,) * 10, bose()).entries == ((Fraction(factorial(10)),),)


def test_same_shape_keeps_its_own_rank_per_rule_and_q():
    q = quon(HALF)
    assert sector_dimension((1, 2, 3), q) == 6
    assert sector_dimension((1, 2, 3), q, CSRule(1, 1)) == 1
    assert sector_dimension((1, 2, 3), q, WindowRule(1, "max")) == 2
    assert sector_dimension((4, 5, 6), q, CSRule(1, 1)) == 1
    assert sector_dimension((1, 1, 2), quon(0)) == 3
    assert sector_dimension((1, 1, 2), bose()) == 1
    assert sector_dimension((1, 1, 2), fermi()) == 0
    assert sector_dimension((1, 1), quon(HALF)) == 1
    assert sector_dimension((1, 1), fermi()) == 0


def test_sector_dimension_matches_gaussian_rank_over_a_sweep():
    rules = (CSRule(1, 2), WindowRule(2, "min"), GentileRule(1))
    algebras = (bose(), fermi(), quon(HALF), quon(Fraction(-1, 3)))
    for rule in rules:
        for alg in algebras:
            for n in (1, 2, 3):
                total = 0
                for ms in combinations_with_replacement(range(1, 6), n):
                    rank = gauss_rank(gram_matrix(ms, alg, rule).entries)
                    assert sector_dimension(ms, alg, rule) == rank
                    total += rank
                assert count_enumerated(5, n, rule, alg) == total


def test_every_gram_cache_is_bounded():
    for cache in (_contract, _canonical_orbit, _pair_mask, _shape_gram, _sector_rank):
        assert cache.cache_info().maxsize is not None


def _shape_counts():
    """The letter counts (m_0, m_1, ...) of every canonical word the letter
    and orbit guards admit."""
    shapes = []

    def extend(counts):
        for m in range(1, MAX_WORD_LETTERS - sum(counts) + 1):
            grown = counts + (m,)
            if orbit_size([i for i, c in enumerate(grown) for _ in range(c)]) > MAX_ORBIT_WORDS:
                break
            shapes.append(grown)
            extend(grown)

    extend(())
    return shapes


def _sub_shapes(counts):
    """The distinct shapes of the non-empty sub-multisets, as letter counts."""
    return {tuple(c for c in sub if c) for sub in product(*(range(m + 1) for m in counts))} - {()}


def test_one_build_holds_all_its_sub_shapes_in_the_caches():
    shapes = _shape_counts()
    assert (1, 1, 1, 1, 1, 1) in shapes and (9, 2, 1) in shapes
    assert (1,) * 7 not in shapes and (MAX_WORD_LETTERS + 1,) not in shapes
    assert max(prod(m + 1 for m in counts) for counts in shapes) == 64
    most = max(len(_sub_shapes(counts)) for counts in shapes)
    assert most <= _shape_gram.cache_info().maxsize
    assert 2 * most <= _canonical_orbit.cache_info().maxsize


@pytest.mark.parametrize("ms", [(1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 2, 2, 3)])
def test_gram_build_recurses_once_per_sub_shape_and_contracts_nothing(ms):
    _contract.cache_clear()
    _shape_gram.cache_clear()
    gm = gram_matrix(ms, quon(HALF))
    assert gm.dimension == orbit_size(ms)
    counts = tuple(ms.count(x) for x in sorted(set(ms)))
    assert _shape_gram.cache_info().misses == len(_sub_shapes(counts)) == {6: 6, 7: 20}[len(ms)]
    assert _contract.cache_info().misses == 0


# Up to 6 letters on at most 4 of 12 sites, so letters repeat from 5 on.
repeated_multisets = st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).flatmap(
    lambda sites: st.lists(st.sampled_from(sites), min_size=1, max_size=6))
DUAL_ROUTE_ALGEBRAS = (bose(), fermi(), quon(HALF), quon(Fraction(-1, 3)))


@given(repeated_multisets)
def test_gram_build_matches_pairwise_contraction(ms):
    """The row-by-row build against the pairwise annihilation recursion:
    every histogram and every entry."""
    word, _ = _canonical(ms)
    orbit, classes, hists = _shape_gram(word)
    for i, bra in enumerate(orbit):
        for j, ket in enumerate(orbit):
            assert hists[classes[i][j]] == _contract(bra, ket)
    for alg in DUAL_ROUTE_ALGEBRAS:
        gm = gram_matrix(ms, alg)
        for bra, row in zip(gm.states, gm.entries):
            assert list(row) == [inner_product(bra, ket, alg) for ket in gm.states]


def test_orbit_size_is_the_multinomial():
    for word in ((1,), (1, 1, 2), (3, 1, 2, 1), (1, 2, 2, 3, 3, 3)):
        assert orbit_size(word) == len(set(permutations(word)))
    assert orbit_size(range(1, 9)) == factorial(8)
    assert orbit_size((5,) * 20 + (2,)) == 21


def test_gram_refuses_multisets_past_the_letter_bound():
    n = MAX_WORD_LETTERS
    assert sector_dimension((1,) * n, quon(HALF)) == 1
    for build in (sector_dimension, gram_matrix):
        with pytest.raises(CapacityExceededError, match=f"{n + 1} letters"):
            build((1,) * (n + 1), bose())


def test_rank_cache_hit_builds_no_gram_structure():
    rule = CSRule(1, 2)
    rank = sector_dimension((2, 4, 6, 8), quon(HALF), rule)
    _shape_gram.cache_clear()
    hits = _sector_rank.cache_info().hits
    assert sector_dimension((1, 3, 5, 7), quon(HALF), rule) == rank
    assert _sector_rank.cache_info().hits == hits + 1
    assert _shape_gram.cache_info().currsize == 0


# Small parameters for each gap family of the CLI's rule table.
GAP_SETS = st.sets(st.integers(1, 5), min_size=1, max_size=3).map(lambda s: tuple(sorted(s)))
GAP_RULE_PARAMS = {
    "cs": (st.integers(0, 3), st.integers(1, 3)),
    "cs-bose": (st.integers(1, 3),),
    "x-fermi": (GAP_SETS,),
    "x-bose": (GAP_SETS,),
    "window-min": (st.integers(0, 3),),
    "window-max": (st.integers(1, 3),),
}
gap_rules = st.sampled_from(sorted(GAP_RULE_PARAMS)).flatmap(
    lambda family: st.tuples(*GAP_RULE_PARAMS[family]).map(
        lambda args: RULES[family][1](*args)))
# The occupancy rules, which keep a whole orbit or none.
occupancy_rules = st.one_of(st.integers(1, 3).map(GentileRule), st.integers(1, 5).map(TotalCapRule))
# Up to 5 letters drawn from up to 5 of 12 sites, so letters often repeat.
small_multisets = st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True).flatmap(
    lambda sites: st.lists(st.sampled_from(sites), min_size=1, max_size=5))


def test_gap_rule_params_cover_every_gap_family():
    gap_families = {family for family, (names, build) in RULES.items()
                    if isinstance(build(*[(2,) if n == "x_set" else 2 for n in names]),
                                  AdjacentPairRule)}
    assert set(GAP_RULE_PARAMS) == gap_families


# Small parameters for every family of the CLI's rule table.
RULE_PARAMS = {
    **GAP_RULE_PARAMS,
    "none": (),
    "gentile": (st.integers(1, 3),),
    "total-cap": (st.integers(1, 3),),
}
any_rules = st.sampled_from(sorted(RULE_PARAMS)).flatmap(
    lambda family: st.tuples(*RULE_PARAMS[family]).map(lambda args: RULES[family][1](*args)))
RANK_ALGEBRAS = (bose(), fermi(), quon(0), quon(HALF), quon(Fraction(-1, 3)),
                 quon(Fraction(-3, 5)))


def test_rule_params_cover_every_family():
    assert set(RULE_PARAMS) == set(RULES)


def reference_allows(rule, word):
    """A per-word decision made apart from the mask: the oracles' occupancy
    counts for the occupancy rules, each adjacent pair for a gap rule."""
    if isinstance(rule, GentileRule):
        return gentile_allowed(word, rule.max_occupancy)
    if isinstance(rule, TotalCapRule):
        return total_cap_allowed(word, rule.cap)
    return rule is None or rule.allows(word)


@given(repeated_multisets, any_rules)
def test_projected_rank_follows_the_rank_theorem(ms, rule):
    """For |q| < 1 the Gram matrix is positive definite, so each live word
    adds one dimension. Bose words are one state; so are Fermi words on
    distinct letters, and a repeated letter kills a Fermi sector. The
    prediction is held against the kernel's rank and against plain Gaussian
    elimination of the projected Gram matrix."""
    live = sum(1 for w in permutation_orbit(ms) if reference_allows(rule, w))
    for alg in RANK_ALGEBRAS:
        if abs(alg.q) < 1:
            expected = live
        elif alg.q == -1 and len(set(ms)) < len(ms):
            expected = 0
        else:
            expected = min(live, 1)
        assert sector_dimension(ms, alg, rule) == expected
        assert gauss_rank(gram_matrix(ms, alg, rule).entries) == expected


# An occupancy limit at the largest occupation number and one below it.
@example(ms=[5, 2, 7, 2, 2], rule=GentileRule(3))
@example(ms=[5, 2, 7, 2, 2], rule=GentileRule(2))
@example(ms=[4, 9, 4], rule=GentileRule(2))
@example(ms=[4, 9, 4], rule=GentileRule(1))
# A total cap at the number of particles and one below it.
@example(ms=[4, 1, 4, 3], rule=TotalCapRule(4))
@example(ms=[4, 1, 4, 3], rule=TotalCapRule(3))
@given(small_multisets, st.one_of(gap_rules, occupancy_rules))
def test_rule_mask_keeps_the_words_the_reference_allows(ms, rule):
    """The mask, read from a gap rule's banned letter pairs or from an
    occupancy rule's decision on the multiset, keeps the same words as a
    per-word reference, and the rank over it is the rank of gram_matrix's
    projected matrix of Fractions."""
    word, letters = _canonical(ms)
    mask = _live_mask(word, letters, rule)
    orbit = permutation_orbit(ms)
    assert [w for i, w in enumerate(orbit) if mask >> i & 1] == [
        w for w in orbit if reference_allows(rule, w)]
    assert mask < 1 << len(orbit)
    for alg in (bose(), fermi(), quon(HALF)):
        assert sector_dimension(ms, alg, rule) == gram_matrix(ms, alg, rule).rank()
