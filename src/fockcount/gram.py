"""Gram matrices of permutation orbits and the exact dimensions they induce.

The N-particle sector spanned by one index multiset is analysed through the
Gram matrix of all distinct orderings of the multiset. Its rank over the
rationals is the number of independent states the multiset contributes.
The one-particle dimension sums the ranks of the single-site extensions;
sites whose extensions share a canonical word and a live-word mask form
one class, ranked once. Differences of one-particle dimensions give the
extended exclusion-statistics parameter.

Gram work is keyed by shape. A multiset is renamed order-preservingly to
the letters 0..k-1, which keeps the lexicographic order of its orbit, so
one q-free structure per canonical word serves every labelling, algebra
and rule: the orbit, the inversion histogram class of each entry and the
distinct histograms. The structure is built row by row from the shapes
one letter shorter: removing the bra's first letter a turns an entry into
a sum, over the positions of a in the ket, of entries of the smaller
structure shifted by the position (upper triangle summed, lower
mirrored). A Gram matrix evaluates one value per distinct histogram and
relabels the words; a rule zeroes the rows and columns of the words
outside its live-word mask. Ranks read integers scaled by
den(q)^(N(N-1)/2) from the live submatrix and are cached per (canonical
word, q, live-word mask), so relabelled sectors are ranked once. The
live-word mask, the one test of which words a rule keeps, needs no Gram
structure either: a gap rule's comes from the canonical orbit and the
letter pairs the rule bans, cached per (canonical word, banned pairs); an
occupancy rule reads only occupation numbers, so it keeps the whole orbit
or none, decided on the canonical word. It takes the rule types of
`restrictions._RULE_TYPES`; any other raises TypeError.

Ranks are certified by one modular kernel; determinants, and ranks it
cannot certify, go through one exact kernel. A matrix is scaled to
integers (a Gram matrix by den(q)^(N(N-1)/2), one value per distinct
histogram). A symmetric matrix is reduced modulo the prime RANK_PRIME =
2^24 - 3 and eliminated on its upper triangle, pivoting on the diagonal
only. Each row is packed into one integer with a 64-bit slot per column:
a step reduces only the pivot row and updates each later row by one
big-integer multiply-add. If every pivot is nonzero the rank mod p is n,
and rank_p <= rank_Q <= n certifies rank n over Q. Gram matrices are
symmetric, and for |q| < 1 positive definite (Bozejko and Speicher 1991,
Zagier 1992), so over Q no diagonal pivot vanishes and this is the usual
route. Any other matrix (a zero pivot mod p, a deficient rank, a
non-symmetric input), and every determinant, goes through fraction-free
Bareiss elimination of the integer matrix without its all-zero rows and
columns, which is exact; a Gram matrix's integer matrix is built only
then.
"""

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from fractions import Fraction
from math import factorial, lcm, prod
from numbers import Rational
from sys import byteorder

from .core import AlgebraSpec, Frozen, ModeLattice, MonomialState
from .algebra_engine import (
    HIST_BITS,
    check_word_length,
    evaluate,
    scaled_polynomial,
)
from .restrictions import (
    AdjacentPairRule,
    CapacityExceededError,
    RestrictionRule,
    _check_rule,
)

# Largest permutation orbit a Gram matrix is built for: 6! = 720 words.
MAX_ORBIT_WORDS = 720

# Modulus of the certified rank. A packed row gives each column a 64-bit
# slot, which holds a residue below p and then gains at most (p - 1)**2 per
# elimination step until its row is reduced as the pivot row. With this
# prime p + (n - 1)(p - 1)**2 < 2**64 for every n <= 2**16 rows, far more
# than MAX_ORBIT_WORDS, so no slot carries into the next.
RANK_PRIME = (1 << 24) - 3

# Slot order of memoryview.cast("Q") on a row's to_bytes in native byte
# order: column order on a little-endian machine, reversed on a big-endian one.
_SLOT_STEP = 1 if byteorder == "little" else -1


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


def _residue_bytes(x: int) -> bytes:
    """One packed-row slot: x mod RANK_PRIME as 8 little-endian bytes."""
    return (x % RANK_PRIME).to_bytes(8, "little")


def _packed(slots: Iterable[bytes]) -> int:
    """A packed row from its slots in column order: slot j in bits [64j, 64j + 64)."""
    return int.from_bytes(b"".join(slots), "little")


def _diagonal_pivots_nonzero_mod_prime(rows: list[int]) -> bool:
    """Eliminate a symmetric matrix modulo RANK_PRIME, pivoting on the
    diagonal only; True when every pivot is nonzero. rows is modified in place.

    rows[i] is row i of the upper triangle, columns i..n-1, packed into one
    int with column i + j in bits [64j, 64j + 64) and every slot below p.
    Step k subtracts m[k][i] / m[k][k] times row k from each later row i,
    which keeps the remaining matrix symmetric. Only the pivot row is
    unpacked, reduced mod p and repacked, once; row k + t then gains
    f * (pivot >> 64t) with f = -m[k][k + t] / m[k][k] mod p, one big-int
    multiply-add whose slots stay nonnegative and, by the bound on
    RANK_PRIME, below 2**64.

    The row is unpacked with to_bytes in the machine's byte order, so
    memoryview.cast("Q") reads each slot right; on a big-endian machine the
    bytes hold the highest column first, so the slots are read from the
    other end (_SLOT_STEP).
    """
    p = RANK_PRIME
    n = len(rows)
    for k in range(n):
        width = n - k
        data = rows[k].to_bytes(8 * width, byteorder)
        top = [x % p for x in memoryview(data).cast("Q")[::_SLOT_STEP].tolist()]
        if not top[0]:
            return False
        negated_inverse = p - pow(top[0], -1, p)
        pivot = _packed([x.to_bytes(8, "little") for x in top])
        for t in range(1, width):
            if top[t]:
                rows[k + t] += top[t] * negated_inverse % p * (pivot >> 64 * t)
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
    if _is_symmetric(m) and _diagonal_pivots_nonzero_mod_prime(
            [_packed(map(_residue_bytes, row[i:])) for i, row in enumerate(m)]):
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


def _check_orbit(word: Sequence[int]) -> None:
    """Refuse a sorted multiset of more than MAX_ORBIT_WORDS orderings, by name."""
    if factorial(len(word)) > MAX_ORBIT_WORDS and (size := orbit_size(word)) > MAX_ORBIT_WORDS:
        raise CapacityExceededError(f"the orbit of {tuple(word)} has {size} words, more than "
                                    f"the {MAX_ORBIT_WORDS} a Gram matrix is built for")


def permutation_orbit(indices: Iterable[int]) -> tuple[MonomialState, ...]:
    """Distinct orderings of an index multiset, lexicographically sorted.

    Refuses orbits of more than MAX_ORBIT_WORDS words before generating any.
    """
    word = sorted(indices)
    if not word:
        raise ValueError("index multiset must be non-empty")
    _check_orbit(word)
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
    Refuses multisets of more than MAX_WORD_LETTERS letters or MAX_ORBIT_WORDS orderings."""
    word = sorted(indices)
    check_word_length(word)
    _check_orbit(word)
    letters = tuple(sorted(set(word)))
    position = {letter: i for i, letter in enumerate(letters)}
    return tuple([position[x] for x in word]), letters


def _relabelled(orbit: Sequence[MonomialState], letters: tuple[int, ...]) -> list[MonomialState]:
    """The words with letter i renamed letters[i]."""
    # Tuples are built from lists: tuple() of an iterator of unknown length
    # over-allocates and shrinks, which parks up to 2000 blocks per word
    # length on CPython's tuple free lists.
    return [tuple([letters[x] for x in w]) for w in orbit]


@lru_cache(maxsize=128)
def _canonical_orbit(word: MonomialState) -> tuple[MonomialState, ...]:
    """The orbit of a canonical word, cached apart from the Gram structure:
    a cached rank still needs the orbit for its live-word mask. A Gram
    build fetches the orbit of each of its sub-shapes (fewer than 64, see
    _shape_gram), so 128 entries hold a whole build and as many shapes
    again for the live masks around it."""
    return permutation_orbit(word)


@lru_cache(maxsize=1024)
def _pair_mask(word: MonomialState, banned: frozenset[tuple[int, int]]) -> int:
    """Bits of the canonical orbit's words with no adjacent letter pair in
    banned."""
    return sum(1 << i for i, w in enumerate(_canonical_orbit(word))
               if banned.isdisjoint(zip(w, w[1:])))


@lru_cache(maxsize=64)
def _shape_gram(
    word: MonomialState,
) -> tuple[tuple[MonomialState, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """q-free Gram structure of one canonical multiset: its orbit, the
    histogram index of every entry and the distinct packed histograms.

    Each row comes from the structure of a shape one letter shorter. The
    annihilator of the bra's first letter a meets each creator a of the
    ket v, so <a u'|v> = sum over v[pos] == a of q**pos <u'|v without pos>:
    the histogram is a sum of sub-histograms shifted by pos coefficients. The
    orbit is lexicographic, so the words that start with a are one block,
    in the order of the sub-orbit of word without one a. Only the upper
    triangle is summed (<u|v> and <v|u> share one histogram, since a
    bijection and its inverse have equal inversion numbers); the lower one
    is mirrored.

    A build recurses into every non-empty sub-multiset of word, at most
    prod(m_i + 1) - 1 < 64 of them within the letter and orbit guards, so
    64 entries hold a whole build and no sub-shape is rebuilt within one.
    """
    orbit = _canonical_orbit(word)
    if len(word) == 1:
        return orbit, ((0,),), (1,)
    n = len(orbit)
    letters = sorted(set(word))
    # Per letter a: the sub-structure's rows as histograms, and the index of
    # each sub-orbit word in this word's letters.
    sub_rows, where = {}, {}
    for a in letters:
        i = word.index(a)
        sub, names = _canonical(word[:i] + word[i + 1:])
        sub_orbit, sub_classes, sub_hists = _shape_gram(sub)
        sub_rows[a] = [[sub_hists[c] for c in row] for row in sub_classes]
        where[a] = {w: k for k, w in enumerate(_relabelled(sub_orbit, names))}
    # terms[a][j]: (shift, sub-word index) for each position of a in word j.
    terms = {a: [[] for _ in range(n)] for a in letters}
    for j, ket in enumerate(orbit):
        for pos, b in enumerate(ket):
            terms[b][j].append((pos * HIST_BITS, where[b][ket[:pos] + ket[pos + 1:]]))
    index: dict[int, int] = {}
    classes = [[0] * n for _ in range(n)]
    i = 0
    for a in letters:
        columns = terms[a]
        for sub_row in sub_rows[a]:
            row = classes[i]
            for j in range(i, n):
                hist = 0
                for shift, k in columns[j]:
                    hist += sub_row[k] << shift
                c = index.setdefault(hist, len(index))
                row[j] = c
                classes[j][i] = c
            i += 1
    return orbit, tuple(map(tuple, classes)), tuple(index)


def gram_matrix(
    indices: Iterable[int],
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> GramMatrix:
    """Gram matrix of the multiset's orderings; words failing the rule are
    projected out, i.e. their rows and columns are zeroed."""
    word, letters = _canonical(indices)
    live_mask = _live_mask(word, letters, rule)
    orbit, classes, hists = _shape_gram(word)
    states = tuple(_relabelled(orbit, letters))
    values = [evaluate(h, alg.q) for h in hists]
    alive = [live_mask >> i & 1 for i in range(len(states))]
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
    den(q)**(N(N-1)/2), the largest inversion number, so they are integers.

    The packed rows are joined from one residue string per distinct value;
    the integer matrix is built only when the modular kernel cannot certify
    full rank."""
    if not live_mask:
        return 0
    _, classes, hists = _shape_gram(word)
    degree = len(word) * (len(word) - 1) // 2
    values = [scaled_polynomial(h, q, degree) for h in hists]
    if not any(values):
        return 0
    residues = list(map(_residue_bytes, values))
    live = [i for i in range(len(classes)) if live_mask >> i & 1]
    rows = [_packed([residues[classes[i][j]] for j in live[a:]]) for a, i in enumerate(live)]
    if _diagonal_pivots_nonzero_mod_prime(rows):
        return len(live)
    return _bareiss(_without_zero_lines([[values[classes[i][j]] for j in live] for i in live]))[0]


def _live_mask(word: MonomialState, letters: tuple[int, ...],
               rule: RestrictionRule | None) -> int:
    """Bits of the canonical orbit's words whose relabelled words pass the
    rule. A gap rule's mask comes from the letter pairs it bans. An
    occupancy rule keeps the whole orbit or none: the renaming keeps every
    occupation number, so it is decided on the canonical word, and a dead
    multiset's mask is 0 without its orbit. Any other rule raises TypeError."""
    if isinstance(rule, AdjacentPairRule):
        # A gap rule allows a word exactly when it allows each adjacent pair.
        banned = frozenset([(a, b) for a, x in enumerate(letters) for b, y in enumerate(letters)
                            if not rule.gap_allowed(y - x)])
        return _pair_mask(word, banned)
    if rule is not None:
        _check_rule(rule)
        if not rule.multiset_allowed(word):
            return 0
    return (1 << len(_canonical_orbit(word))) - 1


def sector_dimension(
    indices: Iterable[int],
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> int:
    """Number of independent states the multiset carries: the Gram rank."""
    word, letters = _canonical(indices)
    return _sector_rank(word, alg.q, _live_mask(word, letters, rule))


def one_particle_dimension(
    fixed: Iterable[int],
    lattice: ModeLattice,
    alg: AlgebraSpec,
    rule: RestrictionRule | None = None,
) -> int:
    """Dimension available to one extra particle given the fixed multiset.

    Defined as the sum over lattice sites of the sector dimension of the
    fixed multiset extended by that site. The fixed multiset may be empty.

    Sites fall into classes that share one rank, and each class is ranked
    once, at its first site. The class of site j is its place s among the
    sorted distinct fixed letters, whether j is one of them, and, for a new
    j under a gap rule, the rule's verdicts on the gaps between j and each
    fixed letter. This is exact: s and presence fix the canonical word; the
    banned pairs are the fixed letters' own, the same at every site, and
    those verdicts; an occupancy rule decides on the canonical word alone;
    and q is the same at every site.
    """
    fixed = tuple(fixed)
    for idx in fixed:
        if idx not in lattice:
            raise ValueError(f"fixed index {idx} is not a site of the lattice")
    letters = sorted(set(fixed))
    by_gap = isinstance(rule, AdjacentPairRule)
    ranks: dict[tuple, int] = {}
    total = 0
    for j in lattice:
        s = bisect_left(letters, j)
        if s < len(letters) and letters[s] == j:
            key = (s, True)
        elif by_gap:
            key = (s, False, *[rule.gap_allowed(j - x) for x in letters],
                   *[rule.gap_allowed(x - j) for x in letters])
        else:
            key = (s, False)
        rank = ranks.get(key)
        if rank is None:
            rank = ranks[key] = sector_dimension(fixed + (j,), alg, rule)
        total += rank
    return total


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
