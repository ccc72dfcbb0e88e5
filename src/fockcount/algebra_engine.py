"""Exact contraction engine for Bose, Fermi and quon monomial states.

An annihilator moves right through a creator word, collecting one factor of
the exchange parameter per creator it passes and contracting against every
matching creator. Inner products follow by recursive annihilation: the
sign/phase convention is fixed by this left-to-right order, so individual
values are convention-dependent while norms, Gram ranks and dimensions are
not.

The recursion is q-free. `_contract` returns the inversion-number histogram
of the letter-preserving bijections between the two words (Bozejko and
Speicher 1991, Zagier 1992): <bra|ket> = sum_k c_k q**k, where c_k counts
the bijections with k inversions. One cache therefore serves Bose (q = 1),
Fermi (q = -1) and every quon parameter, and since only letter equality
matters, the words are renamed by first appearance before the lookup.

A histogram is packed into one int (Kronecker substitution): coefficient k
sits in bits [k*HIST_BITS, (k+1)*HIST_BITS), so appending a contraction
shifted by pos inversions is `total += sub << (pos * HIST_BITS)`, and 0
is the empty histogram of orthogonal words. `unpacked` lists the
coefficients. A histogram has N(N-1)/2 + 1 coefficients, so words are
limited to MAX_WORD_LETTERS letters.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import AlgebraSpec, ModeLattice, MonomialState
from .restrictions import CapacityExceededError

# Longest word contracted. A histogram has N(N-1)/2 + 1 coefficients and the
# cache holds one per distinct sub-contraction, so memory grows with N**2
# times the key count: at 12 letters the worst orbit within the 720-word
# Gram guard, (1^9, 2, 2, 3), takes about 190 MB.
MAX_WORD_LETTERS = 12

# Bits per packed histogram coefficient. A coefficient counts bijections of
# at most MAX_WORD_LETTERS letters, and 12! < 2**29, so no sum carries into
# the next coefficient.
HIST_BITS = 32
HIST_MASK = (1 << HIST_BITS) - 1


def check_word_length(word: MonomialState) -> None:
    """Refuse words longer than MAX_WORD_LETTERS before contracting them."""
    if len(word) > MAX_WORD_LETTERS:
        raise CapacityExceededError(
            f"{tuple(word)} has {len(word)} letters, more than the "
            f"{MAX_WORD_LETTERS} a contraction is built for"
        )


@dataclass(frozen=True)
class LinearCombination:
    """Finite rational linear combination of monomial states.

    Terms are kept lexicographically sorted by state and never carry a zero
    coefficient, so equal combinations compare equal structurally.
    """

    terms: tuple[tuple[MonomialState, Fraction], ...]

    @classmethod
    def from_dict(cls, coeffs: dict[MonomialState, Fraction]) -> "LinearCombination":
        return cls(tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)))

    def coefficient(self, state: MonomialState) -> Fraction:
        for s, c in self.terms:
            if s == state:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[MonomialState, Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)


def apply_annihilator(
    mode: int,
    state: MonomialState,
    alg: AlgebraSpec,
    lattice: ModeLattice | None = None,
) -> LinearCombination:
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
    acc: dict[MonomialState, Fraction] = {}
    coeff = Fraction(1)
    for pos, idx in enumerate(state):
        if idx == mode and coeff:
            rest = state[:pos] + state[pos + 1 :]
            acc[rest] = acc.get(rest, Fraction(0)) + coeff
        coeff = coeff * q
    return LinearCombination.from_dict(acc)


def apply_annihilator_to_combination(
    mode: int, combo: LinearCombination, alg: AlgebraSpec
) -> LinearCombination:
    """Linear extension of apply_annihilator to combinations."""
    acc: dict[MonomialState, Fraction] = {}
    for state, weight in combo.terms:
        for rest, c in apply_annihilator(mode, state, alg).terms:
            acc[rest] = acc.get(rest, Fraction(0)) + weight * c
    return LinearCombination.from_dict(acc)


@lru_cache(maxsize=1 << 18)
def _contract(bra: MonomialState, ket: MonomialState) -> int:
    """Packed inversion-number histogram of the letter-preserving bijections.

    Coefficient k, in bits [k*HIST_BITS, (k+1)*HIST_BITS), counts the
    bijections pi with bra[i] == ket[pi(i)] and k inversions, so
    <bra|ket> = sum_k c_k q**k for every algebra. The annihilator for
    bra[0] passes pos creators to reach ket[pos]: the pos inversions (0, j)
    of a pi with pi(0) = pos, i.e. a shift by pos coefficients. 0 means
    orthogonal words.
    """
    # Gram matrices evaluate the same sub-contractions many times over an
    # orbit of permuted words; caching turns the factorial tree into a walk
    # over distinct (sub-bra, sub-ket) pairs.
    if not bra:
        return 1
    mode = bra[0]
    rest = bra[1:]
    total = 0
    for pos, idx in enumerate(ket):
        if idx == mode:
            total += _contract(rest, ket[:pos] + ket[pos + 1 :]) << (pos * HIST_BITS)
    return _interned(total)


@lru_cache(maxsize=1 << 16)
def _interned(hist: int) -> int:
    """One shared copy of each histogram. Distinct sub-contractions often
    have equal histograms (about seven keys per histogram on the sector
    (1^7, 2, 2, 3)), and histograms are most of the cache's memory."""
    return hist


def unpacked(hist: int) -> list[int]:
    """The coefficients c_0, c_1, ... of a packed histogram, up to the last
    nonzero one; [] for 0."""
    coefficients = []
    while hist:
        coefficients.append(hist & HIST_MASK)
        hist >>= HIST_BITS
    return coefficients


def letter_names(bra: MonomialState) -> dict[int, int]:
    """Letters of a word renamed 0, 1, ... in order of first appearance.

    A contraction only compares letters for equality, so renaming both
    words by one bijection keeps every histogram; relabelled and
    same-pattern pairs then share one `_contract` entry.
    """
    names: dict[int, int] = {}
    for letter in bra:
        names.setdefault(letter, len(names))
    return names


def scaled_polynomial(hist: int, q: Fraction, degree: int) -> int:
    """sum_k c_k q**k times den(q)**degree, an integer when degree is at
    least the histogram's top index."""
    coefficients = unpacked(hist)
    num, den = q.numerator, q.denominator
    acc, power = 0, den ** (degree + 1 - len(coefficients))
    for c in reversed(coefficients):
        acc = acc * num + c * power
        power *= den
    return acc


def evaluate(hist: int, q: Fraction) -> Fraction:
    """The exact value sum_k c_k q**k of a packed inversion histogram."""
    degree = max(hist.bit_length() - 1, 0) // HIST_BITS
    return Fraction(scaled_polynomial(hist, q, degree), q.denominator**degree)


def inner_product(bra: MonomialState, ket: MonomialState, alg: AlgebraSpec) -> Fraction:
    """Vacuum expectation value of the bra word's adjoint against the ket word.

    States with different particle numbers are orthogonal. For Bose the
    result equals the permanent of the index-coincidence matrix, for Fermi
    its determinant up to the convention sign, and for quons on distinct
    indices q raised to the inversion number of the relating permutation.
    """
    if sorted(bra) != sorted(ket):
        return Fraction(0)
    check_word_length(bra)
    names = letter_names(bra)
    hist = _contract(tuple([names[x] for x in bra]), tuple([names[x] for x in ket]))
    return evaluate(hist, alg.q)
