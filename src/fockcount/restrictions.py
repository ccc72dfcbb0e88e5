"""Restriction rules that project monomial states out of the Fock space.

A rule decides which creator words survive projection. Gap rules constrain
every adjacent ordered pair of the word (nearest-neighbour reading); the
occupancy and total-number rules look at the word as a whole. Words failing
a rule become null states.
"""

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

from .core import MonomialState

DEFAULT_CANDIDATE_CAP = 2_000_000


class CapacityExceededError(RuntimeError):
    """An enumeration would visit more candidates than the configured cap."""


def theta_cs(p: int, q: int) -> Callable[[int, int], bool]:
    """Pair test allowing ordered separations p, p+q, p+2q, ...

    p = 0, q = 1 admits every non-negative gap (Bose); p = 0 with q > 1
    admits the gaps 0, q, 2q, ...; p = q = 1 is the Fermi ladder.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")

    def theta(j: int, k: int) -> bool:
        gap = k - j
        return gap >= p and (gap - p) % q == 0

    return theta


def _validated_gaps(gaps: Iterable[int]) -> tuple[int, ...]:
    xs = tuple(gaps)
    if not xs:
        raise ValueError("gap set must be non-empty")
    if any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] < 1:
        raise ValueError("gap set must be strictly increasing positive integers")
    return xs


def theta_x(gaps: Iterable[int]) -> Callable[[int, int], bool]:
    """Pair test allowing exactly the ordered separations in the gap set."""
    allowed = frozenset(_validated_gaps(tuple(sorted(set(gaps)))))
    return lambda j, k: (k - j) in allowed


def theta_x_bose(gaps: Iterable[int]) -> Callable[[int, int], bool]:
    """Like theta_x but with gap 0 adjoined, so sites may be reoccupied."""
    allowed = frozenset(_validated_gaps(tuple(sorted(set(gaps)))))
    return lambda j, k: k == j or (k - j) in allowed


def theta_window(p: int, mode: str) -> Callable[[int, int], bool]:
    """Two-sided pair test |k - j| >= p (min, p >= 0) or |k - j| <= p
    (max, p >= 1). The min window of width 0 allows every pair."""
    if mode not in ("min", "max"):
        raise ValueError(f"window mode must be 'min' or 'max', got {mode!r}")
    least = 0 if mode == "min" else 1
    if p < least:
        raise ValueError(f"window width must be >= {least}, got {p}")
    if mode == "min":
        return lambda j, k: abs(k - j) >= p
    return lambda j, k: abs(k - j) <= p


class RestrictionRule:
    """Base predicate on creator words."""

    def allows(self, state: MonomialState) -> bool:
        raise NotImplementedError

    # Pruning hook for the canonical-state search; prefix is non-decreasing.
    def _extension_ok(self, prefix, site: int) -> bool:
        return True


class AdjacentPairRule(RestrictionRule):
    """Rule constraining every adjacent ordered pair of the word."""

    def pair_allowed(self, j: int, k: int) -> bool:
        raise NotImplementedError

    def allows(self, state: MonomialState) -> bool:
        return all(self.pair_allowed(a, b) for a, b in zip(state, state[1:]))

    def _extension_ok(self, prefix, site: int) -> bool:
        return not prefix or self.pair_allowed(prefix[-1], site)


@dataclass(frozen=True)
class CSRule(AdjacentPairRule):
    """Lattice gap rule: adjacent separations must equal p + n*q, n >= 0."""

    p: int
    q: int

    def __post_init__(self) -> None:
        theta_cs(self.p, self.q)

    def pair_allowed(self, j: int, k: int) -> bool:
        gap = k - j
        return gap >= self.p and (gap - self.p) % self.q == 0


@dataclass(frozen=True)
class XFermiRule(AdjacentPairRule):
    """Adjacent separations restricted to an explicit positive-gap set."""

    gaps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gaps", _validated_gaps(tuple(sorted(set(self.gaps)))))

    def pair_allowed(self, j: int, k: int) -> bool:
        return (k - j) in self.gaps


@dataclass(frozen=True)
class XBoseRule(AdjacentPairRule):
    """Gap-set rule with reoccupation: gap 0 is adjoined to the set."""

    gaps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gaps", _validated_gaps(tuple(sorted(set(self.gaps)))))

    def pair_allowed(self, j: int, k: int) -> bool:
        return k == j or (k - j) in self.gaps


@dataclass(frozen=True)
class WindowRule(AdjacentPairRule):
    """Two-sided neighbour window on adjacent pairs.

    Composition for more than two particles follows the adjacent-pair
    convention; see the verification output for the all-pairs alternative
    on the max window, where the two readings differ.
    """

    p: int
    mode: str

    def __post_init__(self) -> None:
        theta_window(self.p, self.mode)

    def pair_allowed(self, j: int, k: int) -> bool:
        if self.mode == "min":
            return abs(k - j) >= self.p
        return abs(k - j) <= self.p


@dataclass(frozen=True)
class GentileRule(RestrictionRule):
    """At most max_occupancy particles per oscillator."""

    max_occupancy: int

    def __post_init__(self) -> None:
        if self.max_occupancy < 1:
            raise ValueError(f"max occupancy must be >= 1, got {self.max_occupancy}")

    def allows(self, state: MonomialState) -> bool:
        if not state:
            return True
        return max(Counter(state).values()) <= self.max_occupancy

    def _extension_ok(self, prefix, site: int) -> bool:
        run = 0
        for idx in reversed(prefix):
            if idx != site:
                break
            run += 1
        return run < self.max_occupancy


@dataclass(frozen=True)
class TotalCapRule(RestrictionRule):
    """At most cap particles in total, any placement."""

    cap: int

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"total cap must be >= 1, got {self.cap}")

    def allows(self, state: MonomialState) -> bool:
        return len(state) <= self.cap


def is_allowed(state: MonomialState, rule: RestrictionRule | None) -> bool:
    """Whether a word survives projection; no rule means everything does."""
    return rule is None or rule.allows(state)


def enumerate_allowed(
    n_sites: int,
    n_particles: int,
    rule: RestrictionRule | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[MonomialState]:
    """All canonical (sorted) states passing the rule, in lexicographic order.

    The raw candidate space is the set of index multisets; if it exceeds the
    cap the search is refused rather than silently truncated.
    """
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if n_particles < 0:
        raise ValueError(f"particle number must be >= 0, got {n_particles}")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    if comb(n_sites + n_particles - 1, n_particles) > cap:
        raise CapacityExceededError(
            f"{comb(n_sites + n_particles - 1, n_particles)} candidate states "
            f"for {n_particles} particles on {n_sites} sites exceeds cap {cap}"
        )
    if n_particles == 0:
        return [()] if is_allowed((), rule) else []

    results: list[MonomialState] = []
    prefix: list[int] = []

    def extend(min_site: int) -> None:
        if len(prefix) == n_particles:
            word = tuple(prefix)
            if is_allowed(word, rule):
                results.append(word)
            return
        for s in range(min_site, n_sites + 1):
            if rule is None or rule._extension_ok(prefix, s):
                prefix.append(s)
                extend(s)
                prefix.pop()

    extend(1)
    return results


def count_allowed_words(
    n_sites: int, n_particles: int, rule: RestrictionRule | None = None
) -> int:
    """Number of ordered creator words surviving the rule.

    This is the dimension of the projected N-particle space for the q = 0
    quon algebra, whose unprojected Gram matrix is the identity on words.
    """
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if n_particles < 0:
        raise ValueError(f"particle number must be >= 0, got {n_particles}")
    if n_particles == 0:
        return 1
    if rule is None:
        return n_sites**n_particles
    if isinstance(rule, TotalCapRule):
        return n_sites**n_particles if n_particles <= rule.cap else 0
    if isinstance(rule, GentileRule):
        m = rule.max_occupancy
        # words with every letter used at most m times, counted site by site
        dp = [0] * (n_particles + 1)
        dp[0] = 1
        for _ in range(n_sites):
            new = [0] * (n_particles + 1)
            for used, ways in enumerate(dp):
                if ways:
                    for c in range(min(m, n_particles - used) + 1):
                        new[used + c] += ways * comb(n_particles - used, c)
            dp = new
        return dp[n_particles]
    if isinstance(rule, AdjacentPairRule):
        sites = range(1, n_sites + 1)
        ok = [[rule.pair_allowed(j, k) for k in sites] for j in sites]
        counts = [1] * n_sites
        for _ in range(n_particles - 1):
            counts = [
                sum(counts[j] for j in range(n_sites) if ok[j][t])
                for t in range(n_sites)
            ]
        return sum(counts)
    raise TypeError(f"unsupported rule type {type(rule).__name__}")
