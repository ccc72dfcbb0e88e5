"""Closed-form state-counting laws and the enumeration-based count.

Every counter returns an exact integer. The closed forms never feed the
enumeration path and vice versa, so each can serve as an independent check
of the other; `count_enumerated` is the definitional side (sum of Gram
ranks over index multisets, with a word count shortcut for the q = 0 quon
algebra where the two provably coincide). A closed form checks its rule
parameter by building the rule record its oracle uses, so the two refuse
the same values with the same message.
"""

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .core import AlgebraSpec, quon
from .gram import sector_dimension
from .restrictions import (
    DEFAULT_CANDIDATE_CAP,
    CSRule,
    GentileRule,
    RestrictionRule,
    TotalCapRule,
    WindowRule,
    XBoseRule,
    XFermiRule,
    _check_candidates,
    _check_rule,
    _check_sizes,
    count_allowed_words,
)


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the counting convention C(n, k) = 0 for
    k < 0, n < 0 or n < k (no generalized negative-argument values)."""
    if k < 0 or n < 0 or n < k:
        return 0
    return comb(n, k)


def count_cs(n_sites: int, n_particles: int, p: int, q: int) -> int:
    """States with adjacent gaps p + n*q on a finite lattice.

    Equals the sum over the leftmost position i of the number of ways to
    distribute the remaining slack among N-1 gap increments:
    sum_i C(floor((M - i - p(N-1))/q) + N - 1, N - 1).
    """
    _check_sizes(n_sites, n_particles, least=1)
    CSRule(p, q)
    span = p * (n_particles - 1)
    return sum(
        binom((n_sites - i - span) // q + n_particles - 1, n_particles - 1)
        for i in range(1, n_sites - span + 1)
    )


def count_cs_closed(n_sites: int, n_particles: int, p: int, q: int) -> int:
    """Two-binomial closed form of count_cs (diagnostic cross-check)."""
    _check_sizes(n_sites, n_particles, least=1)
    CSRule(p, q)
    n = n_particles - 1
    t = n_sites - p * n
    if t < 1:
        return 0
    alpha = (t - 1) // q
    return t * binom(n + alpha, n) - q * n * binom(n + alpha, n + 1)


def count_cs_equal_pq(n_sites: int, n_particles: int, q: int) -> int:
    """Closed form for the p = q case (diagnostic cross-check)."""
    _check_sizes(n_sites, n_particles, least=1)
    CSRule(q, q)
    n = n_particles - 1
    alpha = (n_sites - 1) // q - n
    return n_sites * binom(n + alpha, n) - q * n * binom(n_particles + alpha, n_particles)


def count_cs_bose(n_sites: int, n_particles: int, q: int) -> int:
    """Generalized Bose counting: gaps 0, q, 2q, ... (the p = 0 case)."""
    return count_cs_closed(n_sites, n_particles, 0, q)


def count_haldane_wu(n_sites: int, n_particles: int, g) -> int:
    """Interpolating counting law C(M + (N-1)(1-g), N).

    Requires (N-1)(1-g) to be an integer; fractional g is admitted only
    when the product clears the denominator.
    """
    _check_sizes(n_sites, n_particles)
    shift = (n_particles - 1) * (1 - Fraction(g))
    if shift.denominator != 1:
        raise ValueError(
            f"(N-1)(1-g) = {shift} is not an integer; counting law undefined"
        )
    return binom(n_sites + int(shift), n_particles)


def count_real(n_sites: int, n_particles: int, lam) -> int:
    """Counting law for a real coupling: C(M + N - 1 - ceil((N-1)*lam), N).

    At integer lam this reproduces the integer-gap law.
    """
    _check_sizes(n_sites, n_particles)
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"coupling must be >= 0, got {lam}")
    top = n_sites + n_particles - 1 - math.ceil((n_particles - 1) * lam)
    return binom(top, n_particles)


def count_x_fermi(n_sites: int, n_particles: int, gaps: Iterable[int]) -> int:
    """Strictly ordered states whose adjacent gaps lie in the given set, as
    the gap sum sum_{s<M} c_s (M - s): c_s is the coefficient of t**s in
    (sum_{x in X} t**x)**(N-1), the ways the N - 1 gaps add up to the span
    s, and a state of span s has M - s first sites."""
    _check_sizes(n_sites, n_particles)
    xs = XFermiRule(gaps).gaps
    if n_particles == 0:
        return 1
    # spans[s]: the ways the gaps so far add up to s, for s < M
    spans = [1] + [0] * (n_sites - 1)
    for _ in range(n_particles - 1):
        spans = [sum(spans[s - x] for x in xs if x <= s) for s in range(n_sites)]
    return sum(c * (n_sites - s) for s, c in enumerate(spans))


def count_x_bose(n_sites: int, n_particles: int, gaps: Iterable[int]) -> int:
    """Reoccupation-allowed count via the binomial convolution
    sum_k C(N-1, k-1) * D_fermi(M, k): choose the occupied support with
    gaps from the set, then distribute multiplicities."""
    _check_sizes(n_sites, n_particles)
    xs = XBoseRule(gaps).gaps
    if n_particles == 0:
        return 1
    return sum(
        binom(n_particles - 1, k - 1) * count_x_fermi(n_sites, k, xs)
        for k in range(1, n_particles + 1)
    )


def count_gentile(n_sites: int, n_particles: int, max_occupancy: int) -> int:
    """States with at most m particles per oscillator, as the multinomial
    sum over occupation-number histograms (n_0, ..., n_m) with
    sum n_a = M and sum a*n_a = N."""
    _check_sizes(n_sites, n_particles)
    GentileRule(max_occupancy)
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
    _check_sizes(n_sites, n_particles)
    TotalCapRule(p)
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
    _check_sizes(n_sites, n_particles)
    WindowRule(p, "min")
    return binom(n_sites + (1 - p) * (n_particles - 1), n_particles)


def avg_g_identity_holds(p: int, q: int, n_sites: int) -> bool:
    """Floor-difference block identity:
    sum_{i=1..q} floor((M-i)/q) - floor((M-i-p)/q) == p."""
    CSRule(p, q)
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
    _check_sizes(n_sites, n_particles)
    _check_rule(rule)
    if n_particles == 0:
        return 1
    if alg is None:
        alg = quon(0)
    if alg.is_quon_zero:
        return count_allowed_words(n_sites, n_particles, rule)
    _check_candidates(n_sites, n_particles, cap)
    return sum(
        sector_dimension(ms, alg, rule)
        for ms in combinations_with_replacement(range(1, n_sites + 1), n_particles)
    )
