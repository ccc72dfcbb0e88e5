"""Inverse-square interacting gas on a ring: pseudomomenta and energies.

The only floating-point corner of the package. Pseudomomenta are anchored
symmetrically about zero by default, which reproduces the closed-form
ground-state energy; the asymmetric anchoring that places the lowest
pseudomomentum at kappa*(lam*(N-1)/2 + n_1) is kept as the "literal" mode
for comparison (it shifts the whole set and inflates the energy).
"""

import math
from fractions import Fraction

from .core import Frozen


class Filling(Frozen):
    """Gap excitation numbers (n_1, ..., n_N) with coupling and ring length."""

    __slots__ = ("n", "lam", "ring_length")  # tuple[int, ...], Fraction, float

    def _check(self) -> None:
        object.__setattr__(self, "n", tuple(self.n))
        if any(x < 0 for x in self.n):
            raise ValueError("gap excitations must be non-negative")
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam < 0:
            raise ValueError(f"coupling must be >= 0, got {self.lam}")
        if not self.ring_length > 0:
            raise ValueError(f"ring length must be positive, got {self.ring_length}")
        if not math.isfinite(self.ring_length):
            raise ValueError(f"ring length must be finite, got {self.ring_length}")

    @property
    def n_particles(self) -> int:
        return len(self.n)

    @property
    def kappa(self) -> float:
        return 2 * math.pi / self.ring_length


def ground_filling(n_particles: int, lam, ring_length: float) -> Filling:
    """All gap excitations zero."""
    if n_particles < 1:
        raise ValueError(f"particle number must be >= 1, got {n_particles}")
    return Filling((0,) * n_particles, Fraction(lam), ring_length)


def pseudomomenta(filling: Filling, anchor: str = "symmetric") -> list[float]:
    """Pseudomomenta of a filling: consecutive gaps kappa*(lam + n_{i+1}).

    anchor="symmetric" starts at kappa*(n_1 - lam*(N-1)/2) so the ground
    set is centred on zero; anchor="literal" starts at
    kappa*(lam*(N-1)/2 + n_1).
    """
    n = filling.n
    count = len(n)
    if count == 0:
        return []
    lam = float(filling.lam)
    kappa = filling.kappa
    if anchor == "symmetric":
        k = kappa * (n[0] - lam * (count - 1) / 2)
    elif anchor == "literal":
        k = kappa * (lam * (count - 1) / 2 + n[0])
    else:
        raise ValueError(f"anchor must be 'symmetric' or 'literal', got {anchor!r}")
    ks = [k]
    for shift in n[1:]:
        k += kappa * (lam + shift)
        ks.append(k)
    return ks


def energy(ks: list[float]) -> float:
    """Total energy: the sum of squared pseudomomenta."""
    return sum(k * k for k in ks)


def ground_energy(n_particles: int, lam, ring_length: float) -> float:
    """Closed-form ground-state energy pi^2 lam^2 N(N^2-1) / (3 L^2)."""
    lam = ground_filling(n_particles, lam, ring_length).lam
    return (
        math.pi**2
        * float(lam)**2
        * n_particles
        * (n_particles**2 - 1)
        / (3 * ring_length**2)
    )

