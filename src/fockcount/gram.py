"""Gram matrices of permutation orbits and the exact dimensions they induce.

The N-particle sector spanned by one index multiset is analysed through the
Gram matrix of all distinct orderings of the multiset. Its rank over the
rationals is the number of independent states the multiset contributes;
summing single-site extensions gives the one-particle dimension, and
differences of those give the extended exclusion-statistics parameter.

Gram work is keyed by shape. A multiset is renamed order-preservingly to
the letters 0..k-1, which keeps the lexicographic order of its orbit, so
one q-free structure per canonical word serves every labelling, algebra
and rule: the orbit, the inversion histogram class of each entry (upper
triangle contracted, lower mirrored) and the distinct histograms. A Gram
matrix evaluates one value per distinct histogram and relabels the words;
a rule zeroes the rows and columns of the words it kills. Ranks read
integers scaled by den(q)^(N(N-1)/2) from the live submatrix and are
cached per (canonical word, q, live-word mask), so relabelled sectors and
the repeated sectors of one-particle dimensions are ranked once; the
live-word mask comes from the orbit alone, so a cached rank needs no Gram
structure.

Ranks and determinants share one exact kernel over the integers. The
matrix is scaled to integers by the common denominator of its entries, and
all-zero rows and columns are dropped. A symmetric matrix is then
eliminated modulo the prime RANK_PRIME = 2^30 - 35 on its upper triangle,
pivoting on the diagonal only. If every pivot is nonzero the rank mod p is
n, and rank_p <= rank_Q <= n certifies rank n over Q. Gram matrices are
symmetric, and for |q| < 1 positive definite (Bozejko and Speicher 1991,
Zagier 1992), so over Q no diagonal pivot vanishes and this is the usual
route. Any other matrix (a zero pivot mod p, a deficient rank, a
non-symmetric input), and every determinant, goes through fraction-free
Bareiss elimination, which is exact.
"""

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from fractions import Fraction
from math import factorial, lcm, prod
from numbers import Rational

from .core import AlgebraSpec, Frozen, ModeLattice, MonomialState
from .algebra_engine import (
    _contract,
    check_word_length,
    evaluate,
    letter_names,
    scaled_polynomial,
)
from .restrictions import CapacityExceededError, RestrictionRule, is_allowed

# Largest permutation orbit a Gram matrix is built for: 6! = 720 words.
MAX_ORBIT_WORDS = 720

# Modulus of the certified rank: a prime below 2^30, so every residue is one
# 30-bit CPython digit and a product of two residues has at most two.
RANK_PRIME = (1 << 30) - 35


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


def _is_symmetric(m: list[list[int]]) -> bool:
    """True for a square matrix exactly equal to its transpose."""
    return len(m) == len(m[0]) and all(row == list(col) for row, col in zip(m, zip(*m)))


def _diagonal_pivots_nonzero_mod_prime(m: list[list[int]]) -> bool:
    """Eliminate a symmetric integer matrix modulo RANK_PRIME, pivoting on
    the diagonal only; True when every pivot is nonzero.

    Only the upper triangle is kept: upper[i] holds row i from column i on,
    and step k subtracts m[k][i] / m[k][k] times row k from row i, which
    keeps the remaining matrix symmetric. A row is reduced mod p when it
    becomes the pivot row; until then each step adds less than p**2 to an
    entry's magnitude.
    """
    p = RANK_PRIME
    n = len(m)
    upper = [row[i:] for i, row in enumerate(m)]
    for k in range(n):
        top = [x % p for x in upper[k]]
        if not top[0]:
            return False
        inverse = pow(top[0], -1, p)
        for i in range(1, n - k):
            if top[i]:
                f = top[i] * inverse % p
                upper[k + i] = [a - f * b for a, b in zip(upper[k + i], top[i:])]
    return True


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

    A symmetric matrix whose diagonal pivots are all nonzero modulo
    RANK_PRIME has full rank, certified; any other matrix is reduced by
    Bareiss elimination.
    """
    m = _without_zero_lines(_scaled_to_integers(rows)[0])
    if not m:
        return 0
    if _is_symmetric(m) and _diagonal_pivots_nonzero_mod_prime(m):
        return len(m)
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


class GramMatrix(Frozen):
    """Inner-product matrix over the distinct orderings of one multiset."""

    # states: tuple[MonomialState, ...]; entries: tuple[tuple[Fraction, ...], ...]
    __slots__ = ("states", "entries")

    @property
    def dimension(self) -> int:
        return len(self.states)

    def rank(self) -> int:
        return rational_rank(self.entries)


def orbit_size(indices: Iterable[int]) -> int:
    """Number of distinct orderings of an index multiset (a multinomial)."""
    word = tuple(indices)
    return factorial(len(word)) // prod(factorial(c) for c in Counter(word).values())


def permutation_orbit(indices: Iterable[int]) -> tuple[MonomialState, ...]:
    """Distinct orderings of an index multiset, lexicographically sorted.

    Refuses orbits of more than MAX_ORBIT_WORDS words before generating any.
    """
    word = sorted(indices)
    if not word:
        raise ValueError("index multiset must be non-empty")
    size = orbit_size(word)
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


def _canonical(indices: Iterable[int]) -> tuple[MonomialState, tuple[int, ...]]:
    """The sorted multiset with its letters renamed 0..k-1 in order, and the
    sorted distinct letters (letters[i] is the label renamed i).

    The renaming keeps the order of letters, hence the lexicographic order
    of the orbit: the canonical orbit's word i relabels to the real one.
    Refuses multisets of more than MAX_WORD_LETTERS letters."""
    word = sorted(indices)
    check_word_length(word)
    letters = tuple(sorted(set(word)))
    position = {letter: i for i, letter in enumerate(letters)}
    return tuple([position[x] for x in word]), letters


def _relabelled(orbit: Sequence[MonomialState], letters: tuple[int, ...]) -> list[MonomialState]:
    """The words with letter i renamed letters[i]."""
    # Tuples are built from lists: tuple() of an iterator of unknown length
    # over-allocates and shrinks, which parks up to 2000 blocks per word
    # length on CPython's tuple free lists.
    return [tuple([letters[x] for x in w]) for w in orbit]


@lru_cache(maxsize=64)
def _canonical_orbit(word: MonomialState) -> tuple[MonomialState, ...]:
    """The orbit of a canonical word, cached apart from the Gram structure:
    a cached rank still needs the orbit for its live-word mask. The
    benchmark's operations touch at most 15 shapes each."""
    return permutation_orbit(word)


@lru_cache(maxsize=32)
def _shape_gram(
    word: MonomialState,
) -> tuple[tuple[MonomialState, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """q-free Gram structure of one canonical multiset: its orbit, the
    histogram index of every entry and the distinct packed histograms.

    Only the upper triangle is contracted (<u|v> and <v|u> share one
    histogram, since a bijection and its inverse have equal inversion
    numbers); the lower one is mirrored.
    """
    orbit = _canonical_orbit(word)
    n = len(orbit)
    index: dict[int, int] = {}
    classes = [[0] * n for _ in range(n)]
    for i, bra in enumerate(orbit):
        names = letter_names(bra)
        row = classes[i]
        renamed = tuple([names[x] for x in bra])
        for j in range(i, n):
            hist = _contract(renamed, tuple([names[x] for x in orbit[j]]))
            c = index.setdefault(hist, len(index))
            row[j] = c
            classes[j][i] = c
    return orbit, tuple(map(tuple, classes)), tuple(index)


def gram_matrix(
    indices: Iterable[int],
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> GramMatrix:
    """Gram matrix of the multiset's orderings; words failing the rule are
    projected out, i.e. their rows and columns are zeroed."""
    word, letters = _canonical(indices)
    orbit, classes, hists = _shape_gram(word)
    states = tuple(_relabelled(orbit, letters))
    values = [evaluate(h, alg.q) for h in hists]
    alive = [is_allowed(s, rule) for s in states]
    zero = Fraction(0)
    dead = (zero,) * len(states)
    entries = tuple([
        tuple([values[c] if alive[j] else zero for j, c in enumerate(row)]) if alive[i] else dead
        for i, row in enumerate(classes)
    ])
    return GramMatrix(states=states, entries=entries)


@lru_cache(maxsize=4096)
def _sector_rank(word: MonomialState, q: Fraction, live_mask: int) -> int:
    """Rank of the canonical multiset's Gram matrix restricted to the words
    whose bits are set in live_mask. Entries are scaled by
    den(q)**(N(N-1)/2), the largest inversion number, so they are integers."""
    if not live_mask:
        return 0
    _, classes, hists = _shape_gram(word)
    degree = len(word) * (len(word) - 1) // 2
    values = [scaled_polynomial(h, q, degree) for h in hists]
    live = [i for i in range(len(classes)) if live_mask >> i & 1]
    return rational_rank([[values[classes[i][j]] for j in live] for i in live])


def sector_dimension(
    indices: Iterable[int],
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> int:
    """Number of independent states the multiset carries: the Gram rank."""
    word, letters = _canonical(indices)
    orbit = _canonical_orbit(word)
    if rule is None:
        live_mask = (1 << len(orbit)) - 1
    else:
        states = _relabelled(orbit, letters)
        live_mask = sum(1 << i for i, s in enumerate(states) if rule.allows(s))
    return _sector_rank(word, alg.q, live_mask)


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
