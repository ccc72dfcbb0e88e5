"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles with a different
algorithm than the implementation under test: inner products via
explicit permutation sums (permanent / determinant / inversion count /
sums of q**inv over letter-preserving permutations) or by applying
annihilators one at a time to linear combinations of words, ranks via
plain Gaussian elimination over Fraction, modular elimination one entry
at a time over lists, counting via filtering the full candidate set, and
one-particle dimensions via one sector rank per lattice site. Slow on
purpose; keep the grids small.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from fockcount.gram import sector_dimension


def permanent(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total


def determinant_bruteforce(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        prod = sign_of(perm)
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total


def sign_of(perm):
    return -1 if inversions(perm) % 2 else 1


def inversions(seq):
    n = len(seq)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j]
    )


def delta_matrix(bra, ket):
    """Coincidence matrix D[i][j] = 1 if bra[i] == ket[j]."""
    return [[1 if b == k else 0 for k in ket] for b in bra]


def quon_overlap_distinct(bra, ket, q):
    """<bra|ket> for words over distinct letters: q**inv(sigma) where
    sigma carries ket positions onto bra positions, 0 if different sets."""
    if sorted(bra) != sorted(ket) or len(set(ket)) != len(ket):
        raise ValueError("words must be permutations of the same distinct letters")
    positions = {letter: i for i, letter in enumerate(bra)}
    sigma = tuple(positions[letter] for letter in ket)
    return q ** inversions(sigma)


def quon_overlap_bruteforce(bra, ket, q):
    """<bra|ket> for any two words: the sum of q**inv(pi) over every
    permutation pi of positions with bra[i] == ket[pi(i)]. No memo."""
    if len(bra) != len(ket):
        return 0 * q
    total = 0 * q
    for pi in permutations(range(len(ket))):
        if all(b == ket[j] for b, j in zip(bra, pi)):
            total += q ** inversions(pi)
    return total


@dataclass(frozen=True)
class LinearCombination:
    """Finite rational linear combination of monomial states.

    Terms are kept lexicographically sorted by state and never carry a zero
    coefficient, so equal combinations compare equal structurally.
    """

    terms: tuple[tuple[tuple, Fraction], ...]

    @classmethod
    def from_dict(cls, coeffs: dict[tuple, Fraction]) -> "LinearCombination":
        return cls(tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)))

    def coefficient(self, state: tuple) -> Fraction:
        for s, c in self.terms:
            if s == state:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[tuple, Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)


def apply_annihilator(mode, state, alg, lattice=None):
    """Normal-ordered image of a_mode acting on a creator word.

    The term dropping the creator at (0-based) position k carries the
    coefficient q**k; terms with equal remainders merge and zeros vanish.
    """
    if lattice is not None:
        if mode not in lattice:
            raise ValueError(f"mode {mode} is not a site of the lattice")
        for idx in state:
            if idx not in lattice:
                raise ValueError(f"index {idx} is not a site of the lattice")
    q = alg.q
    acc: dict[tuple, Fraction] = {}
    coeff = Fraction(1)
    for pos, idx in enumerate(state):
        if idx == mode and coeff:
            rest = state[:pos] + state[pos + 1 :]
            acc[rest] = acc.get(rest, Fraction(0)) + coeff
        coeff = coeff * q
    return LinearCombination.from_dict(acc)


def apply_annihilator_to_combination(mode, combo, alg):
    """Linear extension of apply_annihilator to combinations."""
    acc: dict[tuple, Fraction] = {}
    for state, weight in combo.terms:
        for rest, c in apply_annihilator(mode, state, alg).terms:
            acc[rest] = acc.get(rest, Fraction(0)) + weight * c
    return LinearCombination.from_dict(acc)


def annihilation_overlap(bra, ket, alg):
    """<bra|ket> by annihilation: apply a_bra[0], a_bra[1], ... to |ket>
    one term at a time and read off the coefficient of the vacuum."""
    combo = LinearCombination.from_dict({tuple(ket): Fraction(1)})
    for mode in bra:
        combo = apply_annihilator_to_combination(mode, combo, alg)
    return combo.coefficient(())


def gauss_rank(matrix):
    """Rank by textbook Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def diagonal_pivots_nonzero_mod(matrix, p):
    """Eliminate a square matrix modulo the prime p over lists, one entry
    at a time, pivoting on the diagonal only; True when every pivot is
    nonzero."""
    m = [[x % p for x in row] for row in matrix]
    n = len(m)
    for k in range(n):
        if not m[k][k]:
            return False
        inverse = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            factor = m[i][k] * inverse % p
            for j in range(k, n):
                m[i][j] = (m[i][j] - factor * m[k][j]) % p
    return True


def brute_states(n_sites, n_particles):
    """All canonical (non-decreasing) states on sites 1..n_sites."""
    return list(combinations_with_replacement(range(1, n_sites + 1), n_particles))


def brute_words(n_sites, n_particles):
    """All ordered words over sites 1..n_sites."""
    if n_particles == 0:
        return [()]
    out = [()]
    for _ in range(n_particles):
        out = [w + (s,) for w in out for s in range(1, n_sites + 1)]
    return out


def filter_states(states, predicate):
    return [s for s in states if predicate(s)]


def cs_allowed(state, p, q):
    for a, b in zip(state, state[1:]):
        d = b - a
        if d < p or (d - p) % q != 0:
            return False
    return True


def x_allowed(state, xs):
    return all(b - a in xs for a, b in zip(state, state[1:]))


def x_bose_allowed(state, xs):
    allowed = set(xs) | {0}
    return all(b - a in allowed for a, b in zip(state, state[1:]))


def gentile_allowed(state, max_occupancy):
    return all(state.count(s) <= max_occupancy for s in set(state))


def total_cap_allowed(state, cap):
    return len(state) <= cap


def window_allowed(state, p, mode):
    # distances, so that ordered words are read too
    if mode == "min":
        return all(abs(b - a) >= p for a, b in zip(state, state[1:]))
    if mode == "max":
        return all(abs(b - a) <= p for a, b in zip(state, state[1:]))
    raise ValueError(mode)


def count_by_site_table(n_sites, n_particles, rule, canonical):
    """Words of n_particles sites on 1..n_sites in which site k may follow
    site j when k >= j (canonical) or always (ordered), and the rule, if
    any, allows the gap k - j: the M^2-entry site table of successors,
    walked by the number of words ending at each site."""
    table = [range(1, n_sites + 1)]  # entry 0: the sites a word starts with
    for j in range(1, n_sites + 1):
        sites = range(j if canonical else 1, n_sites + 1)
        table.append([k for k in sites if rule is None or rule.gap_allowed(k - j)])
    counts = [1] + [0] * n_sites
    for _ in range(n_particles):
        extended = [0] * (n_sites + 1)
        for j, ways in enumerate(counts):
            for k in table[j]:
                extended[k] += ways
        counts = extended
    return sum(counts)


def one_particle_by_site(fixed, lattice, alg, rule=None):
    """One-particle dimension as one sector rank per lattice site, with no
    classes of sites: the sum of the ranks of fixed extended by each site."""
    fixed = tuple(fixed)
    return sum(sector_dimension(fixed + (j,), alg, rule) for j in lattice)
