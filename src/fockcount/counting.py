"""Closed-form state-counting laws and the enumeration-based count.

Every counter returns an exact integer. The closed forms never feed the
enumeration path and vice versa, so each can serve as an independent check
of the other; `count_enumerated` is the definitional side (sum of Gram
ranks over index multisets, with a word count shortcut for the q = 0 quon
algebra where the two provably coincide).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Iterable

from .core import AlgebraSpec, quon
from .gram import sector_dimension
from .restrictions import (
    DEFAULT_CANDIDATE_CAP,
    CapacityExceededError,
    RestrictionRule,
    count_allowed_words,
)


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the counting convention C(n, k) = 0 for
    k < 0, n < 0 or n < k (no generalized negative-argument values)."""
    if k < 0 or n < 0 or n < k:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class CountResult:
    """A counted value plus the closed form that produced it."""

    value: int
    formula: str
    matches_oracle: bool | None = None


def _check_mn(n_sites: int, n_particles: int, min_particles: int = 1) -> None:
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if n_particles < min_particles:
        raise ValueError(
            f"particle number must be >= {min_particles}, got {n_particles}"
        )


def count_cs(n_sites: int, n_particles: int, p: int, q: int) -> int:
    """States with adjacent gaps p + n*q on a finite lattice.

    Equals the sum over the leftmost position i of the number of ways to
    distribute the remaining slack among N-1 gap increments:
    sum_i C(floor((M - i - p(N-1))/q) + N - 1, N - 1).
    """
    _check_mn(n_sites, n_particles)
    if p < 0 or q < 1:
        raise ValueError(f"need p >= 0 and q >= 1, got p={p}, q={q}")
    span = p * (n_particles - 1)
    return sum(
        binom((n_sites - i - span) // q + n_particles - 1, n_particles - 1)
        for i in range(1, n_sites - span + 1)
    )


def count_cs_closed(n_sites: int, n_particles: int, p: int, q: int) -> int:
    """Two-binomial closed form of count_cs (diagnostic cross-check)."""
    _check_mn(n_sites, n_particles)
    if p < 0 or q < 1:
        raise ValueError(f"need p >= 0 and q >= 1, got p={p}, q={q}")
    n = n_particles - 1
    t = n_sites - p * n
    if t < 1:
        return 0
    alpha = (t - 1) // q
    return t * binom(n + alpha, n) - q * n * binom(n + alpha, n + 1)


def count_cs_equal_pq(n_sites: int, n_particles: int, q: int) -> int:
    """Closed form for the p = q case (diagnostic cross-check)."""
    _check_mn(n_sites, n_particles)
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    n = n_particles - 1
    alpha = (n_sites - 1) // q - n
    return n_sites * binom(n + alpha, n) - q * n * binom(n_particles + alpha, n_particles)


def count_cs_bose(n_sites: int, n_particles: int, q: int) -> int:
    """Generalized Bose counting: gaps 0, q, 2q, ... (the p = 0 case)."""
    _check_mn(n_sites, n_particles)
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    n = n_particles - 1
    alpha = (n_sites - 1) // q
    return n_sites * binom(n + alpha, n) - q * n * binom(n + alpha, n_particles)


def count_haldane_wu(n_sites: int, n_particles: int, g) -> int:
    """Interpolating counting law C(M + (N-1)(1-g), N).

    Requires (N-1)(1-g) to be an integer; fractional g is admitted only
    when the product clears the denominator.
    """
    if n_sites < 0 or n_particles < 0:
        raise ValueError("arguments must be non-negative")
    shift = (n_particles - 1) * (1 - Fraction(g))
    if shift.denominator != 1:
        raise ValueError(
            f"(N-1)(1-g) = {shift} is not an integer; counting law undefined"
        )
    return binom(n_sites + int(shift), n_particles)


def count_real(n_sites: int, n_particles: int, lam, literal_bottom: bool = False) -> int:
    """Counting law for a real coupling: C(M + N - 1 - ceil((N-1)*lam), N).

    At integer lam this reproduces the integer-gap law. `literal_bottom`
    switches the lower binomial index to N - 1, a printed variant kept for
    diagnostics only; it breaks the integer-lam coincidence.
    """
    if n_sites < 1 or n_particles < 0:
        raise ValueError("need M >= 1 and N >= 0")
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"coupling must be >= 0, got {lam}")
    top = n_sites + n_particles - 1 - math.ceil((n_particles - 1) * lam)
    bottom = n_particles - 1 if literal_bottom else n_particles
    return binom(top, bottom)


def lambda_eff(n_particles: int, lam) -> Fraction:
    """Effective coupling ceil((N-1)*lam)/(N-1) whose integer-gap count
    coincides with the real-coupling count."""
    if n_particles < 2:
        raise ValueError("effective coupling needs at least two particles")
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"coupling must be >= 0, got {lam}")
    return Fraction(math.ceil((n_particles - 1) * lam), n_particles - 1)


def count_x_fermi(n_sites: int, n_particles: int, gaps: Iterable[int]) -> int:
    """Strictly ordered states whose adjacent gaps lie in the given set."""
    if n_sites < 1 or n_particles < 0:
        raise ValueError("need M >= 1 and N >= 0")
    xs = sorted(set(gaps))
    if not xs or xs[0] < 1:
        raise ValueError("gap set must be non-empty positive integers")
    if n_particles == 0:
        return 1
    # walk the lattice: ways[s] = ordered states of the current length ending at s
    ways = [1] * (n_sites + 1)
    ways[0] = 0
    for _ in range(n_particles - 1):
        new = [0] * (n_sites + 1)
        for s in range(1, n_sites + 1):
            new[s] = sum(ways[s - g] for g in xs if s - g >= 1)
        ways = new
    return sum(ways)


def count_x_bose(n_sites: int, n_particles: int, gaps: Iterable[int]) -> int:
    """Reoccupation-allowed count via the binomial convolution
    sum_k C(N-1, k-1) * D_fermi(M, k): choose the occupied support with
    gaps from the set, then distribute multiplicities."""
    if n_sites < 1 or n_particles < 0:
        raise ValueError("need M >= 1 and N >= 0")
    if n_particles == 0:
        return 1
    return sum(
        binom(n_particles - 1, k - 1) * count_x_fermi(n_sites, k, gaps)
        for k in range(1, n_particles + 1)
    )


def count_gentile(n_sites: int, n_particles: int, max_occupancy: int) -> int:
    """States with at most m particles per oscillator, as the multinomial
    sum over occupation-number histograms (n_0, ..., n_m) with
    sum n_a = M and sum a*n_a = N."""
    if n_sites < 1 or n_particles < 0:
        raise ValueError("need M >= 1 and N >= 0")
    if max_occupancy < 1:
        raise ValueError(f"max occupancy must be >= 1, got {max_occupancy}")
    fact = math.factorial
    total = 0

    def descend(level: int, sites_left: int, particles_left: int, denom: int) -> None:
        nonlocal total
        if level == 0:
            if particles_left == 0:
                total += fact(n_sites) // (denom * fact(sites_left))
            return
        max_n = min(sites_left, particles_left // level)
        for n_a in range(max_n + 1):
            descend(
                level - 1,
                sites_left - n_a,
                particles_left - level * n_a,
                denom * fact(n_a),
            )

    descend(max_occupancy, n_sites, n_particles, 1)
    return total


def count_para_restricted(n_sites: int, n_particles: int, p: int, kind: str) -> int:
    """Counting for algebras that die beyond p particles: ordinary Fermi or
    Bose counting up to N = p, zero above."""
    if n_sites < 1 or n_particles < 0:
        raise ValueError("need M >= 1 and N >= 0")
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if kind not in ("fermi", "bose"):
        raise ValueError(f"kind must be 'fermi' or 'bose', got {kind!r}")
    if n_particles == 0:
        return 1
    if n_particles > p:
        return 0
    if kind == "fermi":
        return binom(n_sites, n_particles)
    return binom(n_sites + n_particles - 1, n_particles)


def count_window_min(n_sites: int, n_particles: int, p: int) -> int:
    """Canonical (sorted) states whose neighbouring sites lie at least p
    apart: C(M + (1-p)(N-1), N), since removing the p - 1 sites each gap
    must leave empty maps them onto N-subsets of the shortened lattice.
    At p = 0 every multiset qualifies: C(M + N - 1, N)."""
    if n_sites < 1 or n_particles < 0:
        raise ValueError("need M >= 1 and N >= 0")
    if p < 0:
        raise ValueError(f"window width must be >= 0, got {p}")
    return binom(n_sites + (1 - p) * (n_particles - 1), n_particles)


def avg_g_identity_holds(p: int, q: int, n_sites: int) -> bool:
    """Floor-difference block identity:
    sum_{i=1..q} floor((M-i)/q) - floor((M-i-p)/q) == p."""
    if p < 0 or q < 1:
        raise ValueError(f"need p >= 0 and q >= 1, got p={p}, q={q}")
    total = sum(
        (n_sites - i) // q - (n_sites - i - p) // q for i in range(1, q + 1)
    )
    return total == p


def binomial_identity_holds(n: int, alpha: int) -> bool:
    """Hockey-stick identity in its three equivalent forms:
    sum_{i<alpha} C(n+i, n) == alpha*C(n+alpha, n) - n*C(n+alpha, n+1)
    == C(n+alpha, n+1)."""
    if n < 0 or alpha < 1:
        raise ValueError(f"need n >= 0 and alpha >= 1, got n={n}, alpha={alpha}")
    lhs = sum(binom(n + i, n) for i in range(alpha))
    mid = alpha * binom(n + alpha, n) - n * binom(n + alpha, n + 1)
    rhs = binom(n + alpha, n + 1)
    return lhs == mid == rhs


def verify_identity(kind: str, **params) -> bool:
    """Dispatch for the named arithmetic identities used by the counters."""
    if kind in ("avg-g", "avgG"):
        return avg_g_identity_holds(params["p"], params["q"], params["M"])
    if kind == "binom":
        return binomial_identity_holds(params["n"], params["alpha"])
    raise ValueError(f"unknown identity kind {kind!r}")


def count_enumerated(
    n_sites: int,
    n_particles: int,
    rule: RestrictionRule | None = None,
    alg: AlgebraSpec | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> int:
    """Definitional dimension count: sum of sector dimensions over all index
    multisets.

    For the q = 0 quon algebra the Gram matrix is the identity on surviving
    words, so the sum of ranks equals the number of allowed words and is
    computed directly; other algebras take the explicit Gram-rank route.
    """
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if n_particles < 0:
        raise ValueError(f"particle number must be >= 0, got {n_particles}")
    if n_particles == 0:
        return 1
    if alg is None:
        alg = quon(0)
    if alg.is_quon_zero:
        return count_allowed_words(n_sites, n_particles, rule)
    n_multisets = comb(n_sites + n_particles - 1, n_particles)
    if n_multisets > cap:
        raise CapacityExceededError(
            f"{n_multisets} index multisets for {n_particles} particles on "
            f"{n_sites} sites exceeds cap {cap}"
        )
    return sum(
        sector_dimension(ms, alg, rule)
        for ms in combinations_with_replacement(range(1, n_sites + 1), n_particles)
    )
