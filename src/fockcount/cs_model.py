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
from .restrictions import GentileRule


class Filling(Frozen):
    """Gap excitation numbers (n_1, ..., n_N) with coupling and ring length."""

    __slots__ = ("n", "lam", "ring_length")  # tuple[int, ...], Fraction, float

    def _check(self) -> None:
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


def blocked_oscillators(
    n_particles: int, p: int, q: int,
    gap_excitations: tuple[int, ...] | None = None,
) -> int:
    """Oscillators made unavailable by an N-particle gap-rule state:
    N*p + (p-1) plus n_a*q per excited internal gap (n_a*(p-1) when the two
    rule parameters coincide or p = 1, where only the packed sites block).

    gap_excitations holds the N-1 internal gap quantum numbers; None means
    the closest-packed ground state.
    """
    if n_particles < 1:
        raise ValueError(f"particle number must be >= 1, got {n_particles}")
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got p={p}, q={q}")
    if gap_excitations is None:
        gap_excitations = (0,) * (n_particles - 1)
    gaps = tuple(gap_excitations)
    if len(gaps) != n_particles - 1:
        raise ValueError(
            f"expected {n_particles - 1} internal gap excitations, got {len(gaps)}"
        )
    if any(g < 0 for g in gaps):
        raise ValueError("gap excitations must be non-negative")
    per_excitation = (p - 1) if (p == q or p == 1) else q
    return n_particles * p + (p - 1) + per_excitation * sum(gaps)


def phi_structure(n: int, max_occupancy: int) -> float:
    """Structure function sin(n*lam/2)/sin(lam/2) at lam = 2*pi/(m+1).

    Positive for 1 <= n <= m and zero at n = m + 1, which truncates the
    single-oscillator ladder at m particles.
    """
    GentileRule(max_occupancy)
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    lam = 2 * math.pi / (max_occupancy + 1)
    return math.sin(n * lam / 2) / math.sin(lam / 2)


def truncated_bose_structure(n: int, max_occupancy: int) -> int:
    """Eigenvalue of a a+ on the n-particle level of the truncated Bose
    oscillator: n + 1 below the cap, 0 exactly at it."""
    GentileRule(max_occupancy)
    if not 0 <= n <= max_occupancy:
        raise ValueError(
            f"level must lie in 0..{max_occupancy}, got {n}"
        )
    return 0 if n == max_occupancy else n + 1
