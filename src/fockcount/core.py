"""Shared domain types: lattices, monomial states, occupancies, algebras.

Everything downstream (inner products, Gram ranks, counting laws) is built
on exact rational arithmetic; floats appear only in the spectrum module.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

# A monomial state is the ordered word of creation-operator mode indices
# applied to the vacuum; the empty tuple is the vacuum itself.
MonomialState = tuple[int, ...]

BOSE = "bose"
FERMI = "fermi"
QUON = "quon"


@dataclass(frozen=True)
class ModeLattice:
    """Finite ordered set of single-oscillator sites."""

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sites) == 0:
            raise ValueError("lattice must contain at least one site")
        if any(b <= a for a, b in zip(self.sites, self.sites[1:])):
            raise ValueError("site labels must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.sites)

    def __contains__(self, site: object) -> bool:
        return site in self.sites

    def __iter__(self):
        return iter(self.sites)


def build_lattice(n_sites: int) -> ModeLattice:
    """Lattice with sites labelled 1..n_sites."""
    if n_sites < 1:
        raise ValueError(f"lattice size must be >= 1, got {n_sites}")
    return ModeLattice(tuple(range(1, n_sites + 1)))


@dataclass(frozen=True)
class OccupancyConfig:
    """Occupation numbers of a state; only occupied sites are stored."""

    counts: tuple[tuple[int, int], ...]  # (site, multiplicity), site-ascending
    total: int

    def count(self, site: int) -> int:
        for s, c in self.counts:
            if s == site:
                return c
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def occupancy_of(state: MonomialState, lattice: ModeLattice) -> OccupancyConfig:
    """Site multiplicities of a word; insensitive to the word's ordering."""
    for idx in state:
        if idx not in lattice:
            raise ValueError(f"index {idx} is not a site of the lattice")
    counts = tuple(sorted(Counter(state).items()))
    return OccupancyConfig(counts=counts, total=len(state))


@dataclass(frozen=True)
class AlgebraSpec:
    """Exchange kernel of the oscillator algebra.

    The contraction rule is a_i a+_j = delta_ij + q a+_j a_i with q = +1
    (Bose), q = -1 (Fermi) or a rational quon parameter with |q| < 1,
    which guarantees a positive definite Fock space on distinct indices.
    """

    kind: str
    q: Fraction

    def __post_init__(self) -> None:
        if self.kind not in (BOSE, FERMI, QUON):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.kind == BOSE and self.q != 1:
            raise ValueError("Bose algebra requires q = +1")
        if self.kind == FERMI and self.q != -1:
            raise ValueError("Fermi algebra requires q = -1")
        if self.kind == QUON and not abs(self.q) < 1:
            raise ValueError(f"quon parameter must satisfy |q| < 1, got {self.q}")

    @property
    def is_quon_zero(self) -> bool:
        return self.kind == QUON and self.q == 0


def bose() -> AlgebraSpec:
    return AlgebraSpec(BOSE, Fraction(1))


def fermi() -> AlgebraSpec:
    return AlgebraSpec(FERMI, Fraction(-1))


def quon(q) -> AlgebraSpec:
    return AlgebraSpec(QUON, Fraction(q))
