"""Shared domain types: lattices, monomial states, algebras.

Everything downstream (inner products, Gram ranks, counting laws) is built
on exact rational arithmetic; floats appear only in the spectrum module.
"""

from bisect import bisect_left
from fractions import Fraction

# A monomial state is the ordered word of creation-operator mode indices
# applied to the vacuum; the empty tuple is the vacuum itself.
MonomialState = tuple[int, ...]

BOSE = "bose"
FERMI = "fermi"
QUON = "quon"


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of a record."""


class Frozen:
    """Immutable record whose fields are the names in its class's __slots__.

    Fields are given by position or keyword; `_check()` then validates
    them and may normalise one with object.__setattr__. Two records are
    equal when they are of the same class and their field tuples are equal;
    a record hashes as its field tuple, and copies and pickles by calling
    its constructor again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # Each record class gets an __init__ with its fields as parameters,
        # as fast as a hand-written one; a generic loop over *args and
        # **kwargs costs about 0.3 us more per construction.
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if not fields:
            return
        lines = [f"def __init__(self, {', '.join(fields)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in fields]
        lines.append("    self._check()")
        namespace = {"_set": object.__setattr__}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _check(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ModeLattice(Frozen):
    """Finite ordered set of single-oscillator sites."""

    __slots__ = ("sites",)  # tuple[int, ...]

    def _check(self) -> None:
        if len(self.sites) == 0:
            raise ValueError("lattice must contain at least one site")
        if any(b <= a for a, b in zip(self.sites, self.sites[1:])):
            raise ValueError("site labels must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.sites)

    def __contains__(self, site: object) -> bool:
        # Sites are strictly increasing, so a site is found by bisection; an
        # object that does not compare with the sites is not one of them.
        sites = self.sites
        try:
            i = bisect_left(sites, site)
        except TypeError:
            return False
        return i < len(sites) and sites[i] == site

    def __iter__(self):
        return iter(self.sites)


def build_lattice(n_sites: int) -> ModeLattice:
    """Lattice with sites labelled 1..n_sites."""
    if n_sites < 1:
        raise ValueError(f"lattice size must be >= 1, got {n_sites}")
    return ModeLattice(tuple(range(1, n_sites + 1)))


class AlgebraSpec(Frozen):
    """Exchange kernel of the oscillator algebra.

    The contraction rule is a_i a+_j = delta_ij + q a+_j a_i with q = +1
    (Bose), q = -1 (Fermi) or a rational quon parameter with |q| < 1,
    which guarantees a positive definite Fock space on distinct indices.
    """

    __slots__ = ("kind", "q")  # str, Fraction

    def _check(self) -> None:
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
