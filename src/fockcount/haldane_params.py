"""Closed-form exclusion-statistics parameters and definitional comparisons.

Each family pairs a closed form with the definitional value obtained from
one-particle dimension differences (module gram). The comparison helpers
return a GReport: where the two disagree the report says so; the
definitional enumeration is authoritative and discrepancies are surfaced,
never reconciled silently.

Bracket convention: the finite-lattice gap-rule parameter is quoted with
standard (non-strict) floors. The definitional enumeration instead matches
the strict reading floor((x-1)/q) on both boundary terms; `strict=True`
selects it. The two differ by a phase shift of the lattice size and share
the same average.
"""

from collections.abc import Sequence
from fractions import Fraction

from .core import Frozen, ModeLattice, bose, build_lattice, fermi, quon
from .gram import extended_g
from .restrictions import CSRule, GentileRule, TotalCapRule, _check_sizes


class GReport(Frozen):
    """Closed-form vs definitional statistics parameter at one grid point."""

    # Fraction | None, Fraction | None, bool | None, dict (fresh when omitted)
    __slots__ = ("g_closed_form", "g_definitional", "agrees", "context")
    _defaults = {"context": dict}


def g_cs_finite(
    n_sites: int, i1: int, n_particles: int, p: int, q: int, side: str,
    strict: bool = False,
) -> int:
    """One-particle dimension loss when the closest-packed state grows by
    one particle on the given side of the pack starting at i1.

    Right side: floor((M-i1-Np+1)/q) - floor((M-i1-(N+1)p+1)/q);
    left side: floor((i1-p)/q) - floor((i1-2p)/q).

    Both sides are bulk expressions. Near a wall (left: i1 <= 2p; right:
    M - i1 - (N+1)p < 0) the bracket arguments stop counting real sites
    and the value departs from the dimension difference on the finite
    lattice; compare_cs_finite surfaces any such departure.
    """
    CSRule(p, q)
    _check_sizes(n_sites, n_particles, least=1)
    if i1 < 1 or i1 + (n_particles - 1) * p > n_sites:
        raise ValueError(
            f"closest-packed state from i1={i1} with N={n_particles}, p={p} "
            f"does not fit on {n_sites} sites"
        )

    def bracket(x: int) -> int:
        return (x - 1) // q if strict else x // q

    if side == "right":
        return bracket(n_sites - i1 - n_particles * p + 1) - bracket(
            n_sites - i1 - (n_particles + 1) * p + 1
        )
    if side == "left":
        return bracket(i1 - p) - bracket(i1 - 2 * p)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def g_average_cs(p: int, q: int, m0: int, n_particles: int, i1: int) -> Fraction:
    """Finite-lattice parameter averaged over q consecutive lattice sizes
    m0..m0+q-1 (right side); the block average collapses to p/q exactly."""
    CSRule(p, q)
    if m0 < n_particles * p + q + i1:
        raise ValueError(
            f"lattice window m0={m0} too small for N={n_particles}, p={p}, "
            f"q={q}, i1={i1}"
        )
    total = sum(
        g_cs_finite(m0 + a, i1, n_particles, p, q, "right") for a in range(q)
    )
    return Fraction(total, q)


def g_haldane_cs(p: int, q: int, n_last: int) -> Fraction:
    """Large-lattice parameter p/q shifted by the outermost gap excitation."""
    CSRule(p, q)
    if n_last < 0:
        raise ValueError(f"gap excitation must be >= 0, got {n_last}")
    return Fraction(p, q) + n_last


def _check_pattern(pattern: Sequence[int], n_sites: int) -> int:
    """Validate an occupancy histogram (n_0, ..., n_m); returns m."""
    GentileRule(len(pattern) - 1)
    if any(n < 0 for n in pattern):
        raise ValueError("histogram entries must be non-negative")
    if sum(pattern) != n_sites:
        raise ValueError(
            f"histogram {tuple(pattern)} does not distribute {n_sites} oscillators"
        )
    return len(pattern) - 1


def g_gentile(pattern: Sequence[int], n_sites: int, target_fill: int) -> int:
    """Parameter for adding one particle to an oscillator currently holding
    target_fill particles: 1 when that oscillator is one below the cap,
    0 for any lower filling."""
    m = _check_pattern(pattern, n_sites)
    if not 0 <= target_fill <= m - 1:
        raise ValueError(
            f"target filling must lie in 0..{m - 1}, got {target_fill}"
        )
    if pattern[target_fill] < 1:
        raise ValueError(f"no oscillator currently holds {target_fill} particles")
    return 1 if target_fill == m - 1 else 0


def g_gentile_average(pattern: Sequence[int], n_sites: int) -> Fraction:
    """Parameter averaged over all admissible one-particle additions:
    n_{m-1} / (M - n_m). Depends on the configuration, not just on m."""
    m = _check_pattern(pattern, n_sites)
    open_sites = n_sites - pattern[m]
    if open_sites == 0:
        raise ValueError("every oscillator is full; no addition is possible")
    return Fraction(pattern[m - 1], open_sites)


def g_single_gentile(filling: int, max_occupancy: int) -> int:
    """Single capped oscillator: the parameter jumps to 1 only on the last
    admissible addition."""
    GentileRule(max_occupancy)
    if not 0 <= filling < max_occupancy:
        raise ValueError(
            f"filling must lie in 0..{max_occupancy - 1}, got {filling}"
        )
    return 1 if filling + 1 == max_occupancy else 0


def g_single_gentile_average(max_occupancy: int) -> Fraction:
    """Average of the single-oscillator parameter over one full fill: 1/m."""
    GentileRule(max_occupancy)
    total = sum(g_single_gentile(n, max_occupancy) for n in range(max_occupancy))
    return Fraction(total, max_occupancy)


def g_para_restricted(n_sites: int, n: int, k: int, p: int, kind: str) -> Fraction:
    """Parameter of order-p capped algebras for the transition n -> n+k.

    Fermi kind: 1 inside the cap, (M-n+1)/(p-n+1) on the last admissible
    step; Bose kind: 0 inside the cap, M/(p-n+1) on the last step.
    """
    _check_sizes(n_sites, n, least=1)
    TotalCapRule(p)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n + k > p + 1:
        raise ValueError(
            f"transition to {n + k} particles exceeds the order-{p} cutoff"
        )
    if kind == "fermi":
        if n + k <= p:
            return Fraction(1)
        return Fraction(n_sites - n + 1, p - n + 1)
    if kind == "bose":
        if n + k <= p:
            return Fraction(0)
        return Fraction(n_sites, p - n + 1)
    raise ValueError(f"kind must be 'fermi' or 'bose', got {kind!r}")


def closest_pack(i1: int, n_particles: int, p: int) -> tuple[int, ...]:
    """The closest-packed state (i1, i1+p, ..., i1+(N-1)p)."""
    return tuple(i1 + j * p for j in range(n_particles))


def compare_cs_finite(
    n_sites: int, i1: int, n_particles: int, p: int, q: int, side: str
) -> GReport:
    """Closed-form finite-lattice parameter vs the definitional dimension
    difference for the closest-packed state grown by its nearest admissible
    site on the chosen side."""
    closed = g_cs_finite(n_sites, i1, n_particles, p, q, side)
    closed_strict = g_cs_finite(n_sites, i1, n_particles, p, q, side, strict=True)
    pack = closest_pack(i1, n_particles, p)
    added = pack[-1] + p if side == "right" else i1 - p
    if not 1 <= added <= n_sites:
        raise ValueError(
            f"nearest {side} site {added} falls outside the {n_sites}-site lattice"
        )
    lattice = build_lattice(n_sites)
    definitional = extended_g(pack, (added,), lattice, quon(0), CSRule(p, q))
    return GReport(
        g_closed_form=Fraction(closed),
        g_definitional=definitional,
        agrees=closed == definitional,
        context={
            "M": n_sites,
            "i1": i1,
            "N": n_particles,
            "p": p,
            "q": q,
            "side": side,
            "strict_closed_form": closed_strict,
        },
    )


def compare_para(n_sites: int, n: int, k: int, p: int, kind: str) -> GReport:
    """Closed-form capped-algebra parameter vs the definitional dimension
    difference with n-1 particles fixed on distinct sites and k more added."""
    closed = g_para_restricted(n_sites, n, k, p, kind)
    if n - 1 + k > n_sites:
        raise ValueError(
            f"{n - 1 + k} distinct sites needed but only {n_sites} available"
        )
    fixed = tuple(range(1, n))
    added = tuple(range(n, n + k))
    lattice = build_lattice(n_sites)
    alg = fermi() if kind == "fermi" else bose()
    definitional = extended_g(fixed, added, lattice, alg, TotalCapRule(p))
    return GReport(
        g_closed_form=closed,
        g_definitional=definitional,
        agrees=closed == definitional,
        context={"M": n_sites, "n": n, "k": k, "p": p, "kind": kind},
    )


def _pattern_state(pattern: Sequence[int]) -> tuple[int, ...]:
    """A concrete multiset realizing the occupancy histogram: the first n_0
    sites empty, the next n_1 singly occupied, and so on."""
    word: list[int] = []
    site = 1
    for filling, n_sites_at in enumerate(pattern):
        for _ in range(n_sites_at):
            word.extend([site] * filling)
            site += 1
    return tuple(word)


def compare_gentile_average(pattern: Sequence[int], n_sites: int) -> GReport:
    """Closed-form averaged capped-oscillator parameter vs the mean of the
    definitional dimension differences over all admissible additions."""
    closed = g_gentile_average(pattern, n_sites)
    m = len(pattern) - 1
    fixed = _pattern_state(pattern)
    lattice = build_lattice(n_sites)
    rule = GentileRule(m)
    alg = bose()
    occupancy = {site: fixed.count(site) for site in lattice}
    open_sites = [site for site in lattice if occupancy[site] < m]
    losses = [extended_g(fixed, (site,), lattice, alg, rule) for site in open_sites]
    definitional = Fraction(sum(losses), len(open_sites))
    return GReport(
        g_closed_form=closed,
        g_definitional=definitional,
        agrees=closed == definitional,
        context={"pattern": tuple(pattern), "M": n_sites},
    )


def compare_single_gentile(filling: int, max_occupancy: int) -> GReport:
    """Closed-form single-oscillator parameter vs the definitional value on
    a one-site lattice."""
    closed = g_single_gentile(filling, max_occupancy)
    lattice = build_lattice(1)
    fixed = (1,) * filling
    definitional = extended_g(
        fixed, (1,), lattice, bose(), GentileRule(max_occupancy)
    )
    return GReport(
        g_closed_form=Fraction(closed),
        g_definitional=definitional,
        agrees=closed == definitional,
        context={"n": filling, "m": max_occupancy},
    )
