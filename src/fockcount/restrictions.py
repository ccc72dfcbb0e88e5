"""Restriction rules that project monomial states out of the Fock space.

A rule decides which creator words survive projection. Gap rules constrain
every adjacent ordered pair of the word (nearest-neighbour reading); the
occupancy and total-number rules look at the word as a whole. Words failing
a rule become null states.
"""

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from math import comb

from .core import Frozen, MonomialState

DEFAULT_CANDIDATE_CAP = 2_000_000


class CapacityExceededError(RuntimeError):
    """An enumeration would visit more candidates than the configured cap."""


def _validated_gaps(gaps: Iterable[int]) -> tuple[int, ...]:
    xs = tuple(gaps)
    if not xs:
        raise ValueError("gap set must be non-empty")
    if any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] < 1:
        raise ValueError("gap set must be strictly increasing positive integers")
    return xs


class RestrictionRule(Frozen):
    """Base predicate on creator words."""

    __slots__ = ()

    def allows(self, state: MonomialState) -> bool:
        raise NotImplementedError


class AdjacentPairRule(RestrictionRule):
    """Rule constraining every adjacent ordered pair of the word."""

    __slots__ = ()

    def pair_allowed(self, j: int, k: int) -> bool:
        raise NotImplementedError

    def allows(self, state: MonomialState) -> bool:
        return all(self.pair_allowed(a, b) for a, b in zip(state, state[1:]))


class CSRule(AdjacentPairRule):
    """Lattice gap rule: adjacent separations must equal p + n*q, n >= 0.

    p = 0, q = 1 admits every non-negative gap (Bose); p = 0 with q > 1
    admits the gaps 0, q, 2q, ...; p = q = 1 is the Fermi ladder.
    """

    __slots__ = ("p", "q")  # int, int

    def _check(self) -> None:
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")

    def pair_allowed(self, j: int, k: int) -> bool:
        gap = k - j
        return gap >= self.p and (gap - self.p) % self.q == 0


class XFermiRule(AdjacentPairRule):
    """Adjacent separations restricted to an explicit positive-gap set."""

    __slots__ = ("gaps",)  # tuple[int, ...]

    def _check(self) -> None:
        object.__setattr__(self, "gaps", _validated_gaps(tuple(sorted(set(self.gaps)))))

    def pair_allowed(self, j: int, k: int) -> bool:
        return (k - j) in self.gaps


class XBoseRule(AdjacentPairRule):
    """Gap-set rule with reoccupation: gap 0 is adjoined to the set."""

    __slots__ = ("gaps",)  # tuple[int, ...]

    def _check(self) -> None:
        object.__setattr__(self, "gaps", _validated_gaps(tuple(sorted(set(self.gaps)))))

    def pair_allowed(self, j: int, k: int) -> bool:
        return k == j or (k - j) in self.gaps


class WindowRule(AdjacentPairRule):
    """Two-sided neighbour window on adjacent pairs.

    Composition for more than two particles follows the adjacent-pair
    convention; see the verification output for the all-pairs alternative
    on the max window, where the two readings differ.
    """

    __slots__ = ("p", "mode")  # int, "min" or "max"

    def _check(self) -> None:
        if self.mode not in ("min", "max"):
            raise ValueError(f"window mode must be 'min' or 'max', got {self.mode!r}")
        least = 0 if self.mode == "min" else 1
        if self.p < least:
            raise ValueError(f"window width must be >= {least}, got {self.p}")

    def pair_allowed(self, j: int, k: int) -> bool:
        if self.mode == "min":
            return abs(k - j) >= self.p
        return abs(k - j) <= self.p


class GentileRule(RestrictionRule):
    """At most max_occupancy particles per oscillator."""

    __slots__ = ("max_occupancy",)  # int

    def _check(self) -> None:
        if self.max_occupancy < 1:
            raise ValueError(f"max occupancy must be >= 1, got {self.max_occupancy}")

    def allows(self, state: MonomialState) -> bool:
        if not state:
            return True
        return max(Counter(state).values()) <= self.max_occupancy


class TotalCapRule(RestrictionRule):
    """At most cap particles in total, any placement."""

    __slots__ = ("cap",)  # int

    def _check(self) -> None:
        if self.cap < 1:
            raise ValueError(f"total cap must be >= 1, got {self.cap}")

    def allows(self, state: MonomialState) -> bool:
        return len(state) <= self.cap


def is_allowed(state: MonomialState, rule: RestrictionRule | None) -> bool:
    """Whether a word survives projection; no rule means everything does."""
    return rule is None or rule.allows(state)


def _check_sizes(n_sites: int, n_particles: int, least: int = 0) -> None:
    """The domain of every count: M >= 1 sites and N >= least particles."""
    if n_sites < 1 or n_particles < least:
        raise ValueError(f"need M >= 1 and N >= {least}")


def _check_candidates(n_sites: int, n_particles: int, cap: int) -> None:
    """Refuse a cap below 1, or more than cap index multisets C(M+N-1, N) to
    walk. Without sites there is at most one multiset, the empty one."""
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    n_multisets = comb(n_sites + n_particles - 1, n_particles) if n_sites >= 1 else 1
    if n_multisets > cap:
        raise CapacityExceededError(
            f"{n_multisets} candidate states for {n_particles} particles on "
            f"{n_sites} sites exceeds cap {cap}"
        )


def _successors(
    n_sites: int, rule: RestrictionRule | None, canonical: bool
) -> list[Sequence[int]]:
    """The site table: entry j lists the sites that may follow site j in a
    word, in increasing order, and entry 0 the sites a word may start with.

    Canonical words take only sites k >= j. An AdjacentPairRule keeps the k
    with pair_allowed(j, k); every other rule keeps every k.
    """
    table: list[Sequence[int]] = [range(1, n_sites + 1)]
    for j in range(1, n_sites + 1):
        sites = range(j if canonical else 1, n_sites + 1)
        if isinstance(rule, AdjacentPairRule):
            sites = [k for k in sites if rule.pair_allowed(j, k)]
        table.append(sites)
    return table


def _count_by_last_site(n_particles: int, successors: list[Sequence[int]]) -> int:
    """Number of words of n_particles sites that follow the site table."""
    # counts[j]: the words of the current length that end at site j (0: empty)
    counts = [1] + [0] * (len(successors) - 1)
    for _ in range(n_particles):
        extended = [0] * len(successors)
        for j, ways in enumerate(counts):
            if ways:
                for k in successors[j]:
                    extended[k] += ways
        counts = extended
    return sum(counts)


def _check_listing(
    n_sites: int, n_particles: int, rule: RestrictionRule | None, cap: int
) -> None:
    """Every refusal of one listing, before any state is made: the (M, N)
    domain, the candidate cap, and TypeError for a rule other than an
    AdjacentPairRule, a GentileRule or a TotalCapRule."""
    _check_sizes(n_sites, n_particles)
    _check_candidates(n_sites, n_particles, cap)
    if rule is not None and not isinstance(rule, (AdjacentPairRule, GentileRule, TotalCapRule)):
        raise TypeError(f"unsupported rule type {type(rule).__name__}")


def _allowed_states(
    n_sites: int, n_particles: int, rule: RestrictionRule | None
) -> Iterator[MonomialState]:
    """The states of `enumerate_allowed`, one at a time, for a point that
    `_check_listing` passed.

    Words grow one site per level: each word of a level, in order, is
    extended by the successors of its last site (`_successors`, canonical),
    so every level stays in lexicographic order. For an AdjacentPairRule the
    successor lists are the rule; a TotalCapRule passes every word or none;
    a GentileRule drops each extension to m + 1 copies of one site. Levels
    below N are lists; the words of level N are yielded as they are made.
    """
    if isinstance(rule, TotalCapRule):
        # The cap reads only a word's length: every word passes, or none.
        if n_particles > rule.cap:
            return
        rule = None
    if n_particles == 0:
        yield ()
        return
    words: list[MonomialState] = [(j,) for j in range(1, n_sites + 1)]
    if n_particles == 1:
        # One-site words extend nothing; only longer ones need the table,
        # whose M^2 / 2 entries then stay below the candidate count.
        yield from words
        return
    successors = _successors(n_sites, rule, canonical=True)
    if isinstance(rule, GentileRule):
        m = rule.max_occupancy
        # A sorted word w ends in m copies of k >= w[-1] exactly when w[-m] == k.
        for _ in range(n_particles - 2):
            words = [w + (k,) for w in words for k in successors[w[-1]]
                     if len(w) < m or w[-m] != k]
        for w in words:
            for k in successors[w[-1]]:
                if len(w) < m or w[-m] != k:
                    yield w + (k,)
        return
    for _ in range(n_particles - 2):
        words = [w + (k,) for w in words for k in successors[w[-1]]]
    for w in words:
        for k in successors[w[-1]]:
            yield w + (k,)


def enumerate_allowed(
    n_sites: int,
    n_particles: int,
    rule: RestrictionRule | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[MonomialState]:
    """All canonical (sorted) states passing the rule, in lexicographic order.

    The raw candidate space is the set of index multisets; if it exceeds the
    cap the search is refused rather than silently truncated. Rules other
    than an AdjacentPairRule, a GentileRule or a TotalCapRule raise
    TypeError. The listing is `_allowed_states`.
    """
    _check_listing(n_sites, n_particles, rule, cap)
    return list(_allowed_states(n_sites, n_particles, rule))


def count_allowed_states(
    n_sites: int, n_particles: int, rule: AdjacentPairRule | None = None
) -> int:
    """Number of canonical (sorted) states passing a gap rule, or no rule:
    the length of `enumerate_allowed`'s list, counted on the same site table
    with no listing and no candidate cap. Other rules raise TypeError."""
    _check_sizes(n_sites, n_particles)
    if rule is not None and not isinstance(rule, AdjacentPairRule):
        raise TypeError(f"unsupported rule type {type(rule).__name__}")
    return _count_by_last_site(n_particles, _successors(n_sites, rule, canonical=True))


def count_allowed_words(
    n_sites: int, n_particles: int, rule: RestrictionRule | None = None
) -> int:
    """Number of ordered creator words surviving the rule.

    This is the dimension of the projected N-particle space for the q = 0
    quon algebra, whose unprojected Gram matrix is the identity on words.
    """
    _check_sizes(n_sites, n_particles)
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
        return _count_by_last_site(n_particles, _successors(n_sites, rule, canonical=False))
    raise TypeError(f"unsupported rule type {type(rule).__name__}")
