"""Gram matrices of permutation orbits and the exact dimensions they induce.

The N-particle sector spanned by one index multiset is analysed through the
Gram matrix of all distinct orderings of the multiset. Its rank over the
rationals is the number of independent states the multiset contributes;
summing single-site extensions gives the one-particle dimension, and
differences of those give the extended exclusion-statistics parameter.

Ranks and determinants share one exact kernel over the integers. The
matrix is scaled to integers by the common denominator of its entries. A
rank is first taken modulo the prime 2^61 - 1: for an integer matrix
rank_p <= rank_Q <= min(rows, cols), so a full modular rank certifies the
rank over Q. A deficient modular rank, and every determinant, goes through
fraction-free Bareiss elimination, which is exact.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from numbers import Rational
from typing import Iterable, Sequence

from .core import AlgebraSpec, ModeLattice, MonomialState
from .algebra_engine import inner_product
from .restrictions import CapacityExceededError, RestrictionRule, is_allowed

# Largest permutation orbit a Gram matrix is built for: 6! = 720 words.
MAX_ORBIT_WORDS = 720

# The Mersenne prime 2^61 - 1, modulus of the certified rank.
RANK_PRIME = (1 << 61) - 1


def _scaled_to_integers(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[int]], int]:
    """Clear denominators; returns the integer matrix and the common scale.

    Entries without numerator and denominator (floats, Decimals, anything
    else Fraction() accepts) are converted to Fraction once.
    """
    try:
        scale = 1
        for row in rows:
            for x in row:
                if scale % x.denominator:
                    scale = lcm(scale, x.denominator)
        if scale == 1:
            return [[x.numerator for x in row] for row in rows], 1
        return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale
    except AttributeError:
        return _scaled_to_integers([[Fraction(x) for x in row] for row in rows])


def _without_zero_lines(m: list[list[int]]) -> list[list[int]]:
    """Drop all-zero rows and all-zero columns, which carry no rank."""
    m = [row for row in m if any(row)]
    if not m:
        return m
    live = [c for c, column in enumerate(zip(*m)) if any(column)]
    if len(live) < len(m[0]):
        m = [[row[c] for c in live] for row in m]
    return m


def _rank_mod_prime(m: list[list[int]]) -> int:
    """Rank of an integer matrix over the field of RANK_PRIME elements."""
    p = RANK_PRIME
    rows = [[x % p for x in row] for row in m]
    n_rows = len(rows)
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inverse = pow(top[col], -1, p)
        tail = top[col + 1:]
        for r in range(rank + 1, n_rows):
            row = rows[r]
            if row[col]:
                f = row[col] * inverse % p
                row[col + 1:] = [(a - f * b) % p for a, b in zip(row[col + 1:], tail)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free Gaussian elimination of an integer matrix, in place.

    Every division is exact. Returns the rank, the sign of the row
    permutation and the last pivot; a square matrix of full rank has
    determinant sign * last pivot.
    """
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    sign = 1
    prev = 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        tail = top[col + 1:]
        for r in range(rank + 1, n_rows):
            row = m[r]
            factor = row[col]
            row[col + 1:] = [
                (a * pivot - factor * b) // prev for a, b in zip(row[col + 1:], tail)
            ]
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank, sign, prev


def rational_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Exact rank over the rationals.

    A full rank modulo RANK_PRIME is returned as certified; otherwise the
    integer matrix is reduced by Bareiss elimination.
    """
    m = _without_zero_lines(_scaled_to_integers(rows)[0])
    if not m:
        return 0
    full = min(len(m), len(m[0]))
    if _rank_mod_prime(m) == full:
        return full
    return _bareiss(m)[0]


def exact_determinant(rows: Sequence[Sequence[Rational]]) -> Fraction:
    """Exact determinant via the Bareiss elimination of the rank kernel."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    m, scale = _scaled_to_integers(rows)
    rank, sign, last_pivot = _bareiss(m)
    if rank < n:
        return Fraction(0)
    return Fraction(sign * last_pivot, scale**n)


@dataclass(frozen=True)
class GramMatrix:
    """Inner-product matrix over the distinct orderings of one multiset."""

    states: tuple[MonomialState, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.states)

    def rank(self) -> int:
        return rational_rank(self.entries)


def permutation_orbit(indices: Iterable[int]) -> tuple[MonomialState, ...]:
    """Distinct orderings of an index multiset, lexicographically sorted.

    Refuses orbits of more than MAX_ORBIT_WORDS words before generating any.
    """
    word = sorted(indices)
    if not word:
        raise ValueError("index multiset must be non-empty")
    multiplicities = Counter(word).values()
    size = factorial(len(word)) // prod(factorial(c) for c in multiplicities)
    if size > MAX_ORBIT_WORDS:
        raise CapacityExceededError(
            f"the orbit of {tuple(word)} has {size} words, more than the "
            f"{MAX_ORBIT_WORDS} a Gram matrix is built for"
        )
    orbit = []
    while True:
        orbit.append(tuple(word))
        # next ordering in lexicographic order
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return tuple(orbit)
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def gram_matrix(
    indices: Iterable[int],
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> GramMatrix:
    """Gram matrix of the multiset's orderings; words failing the rule are
    projected out, i.e. their rows and columns are zeroed."""
    states = permutation_orbit(indices)
    alive = [is_allowed(s, rule) for s in states]
    zero = Fraction(0)
    rows = []
    for i, si in enumerate(states):
        row = [zero] * len(states)
        if alive[i]:
            for j, sj in enumerate(states):
                if alive[j]:
                    row[j] = inner_product(si, sj, alg)
        rows.append(tuple(row))
    return GramMatrix(states=states, entries=tuple(rows))


def sector_dimension(
    indices: Iterable[int],
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> int:
    """Number of independent states the multiset carries: the Gram rank."""
    return gram_matrix(indices, alg, rule).rank()


def one_particle_dimension(
    fixed: Iterable[int],
    lattice: ModeLattice,
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> int:
    """Dimension available to one extra particle given the fixed multiset.

    Defined as the sum over lattice sites of the sector dimension of the
    fixed multiset extended by that site. The fixed multiset may be empty.
    """
    fixed = tuple(fixed)
    for idx in fixed:
        if idx not in lattice:
            raise ValueError(f"fixed index {idx} is not a site of the lattice")
    return sum(sector_dimension(fixed + (j,), alg, rule) for j in lattice)


def extended_g(
    fixed: Iterable[int],
    added: Iterable[int],
    lattice: ModeLattice,
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> Fraction:
    """Exclusion-statistics parameter from one-particle dimension loss.

    Fixing k additional particles on the listed sites shrinks the
    one-particle dimension; the parameter is that loss divided by k.
    """
    fixed = tuple(fixed)
    added = tuple(added)
    if not added:
        raise ValueError("at least one added particle is required")
    for idx in added:
        if idx not in lattice:
            raise ValueError(f"added index {idx} is not a site of the lattice")
    before = one_particle_dimension(fixed, lattice, alg, rule)
    after = one_particle_dimension(fixed + added, lattice, alg, rule)
    return Fraction(before - after, len(added))
