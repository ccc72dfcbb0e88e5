"""Restriction rules that project monomial states out of the Fock space.

A rule decides which creator words survive projection. Gap rules constrain
every adjacent ordered pair of the word (nearest-neighbour reading); the
occupancy and total-number rules read only the word's occupation numbers,
so they decide on its sorted multiset and keep a whole permutation orbit
or none of it. Words failing a rule become null states. A rule of any
other type is refused with TypeError wherever words are listed, counted or
projected.
"""

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate
from math import comb, log10
from operator import add, sub

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
    """Rule constraining the gap b - a of every adjacent ordered pair (a, b)
    of the word."""

    __slots__ = ()

    def gap_allowed(self, gap: int) -> bool:
        raise NotImplementedError

    def allows(self, state: MonomialState) -> bool:
        return all(self.gap_allowed(b - a) for a, b in zip(state, state[1:]))


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

    def gap_allowed(self, gap: int) -> bool:
        return gap >= self.p and (gap - self.p) % self.q == 0


class XFermiRule(AdjacentPairRule):
    """Adjacent separations restricted to an explicit positive-gap set."""

    __slots__ = ("gaps",)  # tuple[int, ...]

    def _check(self) -> None:
        object.__setattr__(self, "gaps", _validated_gaps(tuple(sorted(set(self.gaps)))))

    def gap_allowed(self, gap: int) -> bool:
        return gap in self.gaps


class XBoseRule(AdjacentPairRule):
    """Gap-set rule with reoccupation: gap 0 is adjoined to the set."""

    __slots__ = ("gaps",)  # tuple[int, ...]

    def _check(self) -> None:
        object.__setattr__(self, "gaps", _validated_gaps(tuple(sorted(set(self.gaps)))))

    def gap_allowed(self, gap: int) -> bool:
        return gap == 0 or gap in self.gaps


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

    def gap_allowed(self, gap: int) -> bool:
        if self.mode == "min":
            return abs(gap) >= self.p
        return abs(gap) <= self.p


class OccupancyRule(RestrictionRule):
    """Rule reading only a word's occupation numbers: it allows a word
    exactly when it allows the sorted multiset, so it keeps every ordering
    of one multiset or none."""

    __slots__ = ()

    def multiset_allowed(self, word: Sequence[int]) -> bool:
        """Decision on a sorted word."""
        raise NotImplementedError

    def allows(self, state: MonomialState) -> bool:
        return self.multiset_allowed(sorted(state))


class GentileRule(OccupancyRule):
    """At most max_occupancy particles per oscillator."""

    __slots__ = ("max_occupancy",)  # int

    def _check(self) -> None:
        if self.max_occupancy < 1:
            raise ValueError(f"max occupancy must be >= 1, got {self.max_occupancy}")

    def multiset_allowed(self, word: Sequence[int]) -> bool:
        # A sorted word takes some site m + 1 times exactly when it has
        # w[i] == w[i + m] for some i.
        return all(a != b for a, b in zip(word, word[self.max_occupancy:]))


class TotalCapRule(OccupancyRule):
    """At most cap particles in total, any placement."""

    __slots__ = ("cap",)  # int

    def _check(self) -> None:
        if self.cap < 1:
            raise ValueError(f"total cap must be >= 1, got {self.cap}")

    def multiset_allowed(self, word: Sequence[int]) -> bool:
        return len(word) <= self.cap


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
        # A count past 30 digits reads poorly, and past 4300 str() may refuse it.
        amount = n_multisets if n_multisets < 10**30 else f"about 10^{log10(n_multisets):.0f}"
        raise CapacityExceededError(
            f"{amount} candidate states for {n_particles} particles on "
            f"{n_sites} sites exceeds cap {cap}"
        )


def _steps(n_sites: int, rule: RestrictionRule | None, canonical: bool) -> Sequence[int]:
    """The gaps k - j from a word's site j to its next site k, in increasing
    order: 0..M-1 for canonical words, 1-M..M-1 for ordered ones, less
    those an AdjacentPairRule bans."""
    steps = range(0 if canonical else 1 - n_sites, n_sites)
    if isinstance(rule, AdjacentPairRule):
        return [d for d in steps if rule.gap_allowed(d)]
    return steps


# The longest run of consecutive gaps that `_count_by_last_site` adds gap by
# gap: on a lattice of a dozen sites, prefix sums cost more than the
# additions they save on a run of three gaps.
_GAP_BY_GAP = 3


def _count_by_last_site(
    n_sites: int, n_particles: int, rule: AdjacentPairRule | None, canonical: bool
) -> int:
    """Number of words of n_particles sites, each one of the steps
    `_steps(n_sites, rule, canonical)` after the last."""
    if n_particles <= 1:
        return n_sites**n_particles  # no word takes a step
    gaps = _steps(n_sites, rule, canonical)
    # A run of more than _GAP_BY_GAP consecutive gaps is added at once
    # through prefix sums, the other gaps one by one, so that each run costs
    # O(M) additions per level. The gaps are sorted and distinct, so a gap
    # _GAP_BY_GAP places on is larger by exactly _GAP_BY_GAP only inside
    # such a run.
    spans: list[tuple[int, int]] = []
    if _GAP_BY_GAP in map(sub, gaps[_GAP_BY_GAP:], gaps):
        runs: list[list[int]] = []  # maximal runs [first, last] of consecutive gaps
        for d in gaps:
            if runs and runs[-1][1] == d - 1:
                runs[-1][1] = d
            else:
                runs.append([d, d])
        spans = [(lo, hi) for lo, hi in runs if hi - lo >= _GAP_BY_GAP]
        gaps = [d for lo, hi in runs if hi - lo < _GAP_BY_GAP for d in range(lo, hi + 1)]
    m = n_sites
    # counts[k]: the words of the current length that end at site k + 1
    counts = [1] * m
    for _ in range(n_particles - 1):
        extended = [0] * m
        if spans:
            # below[m + i]: counts[0] + ... + counts[i - 1], i clipped to 0..m
            below = [0] * m + list(accumulate(counts, initial=0))
            below += [below[-1]] * m
            for lo, hi in spans:
                # extended[k] gains the words ending at k - hi .. k - lo:
                # none outside start <= k < stop
                start, stop = max(lo, 0), min(m, m + hi)
                gains = map(sub, below[m + start - lo + 1:m + stop - lo + 1],
                            below[m + start - hi:m + stop - hi])
                extended[start:stop] = map(add, extended[start:stop], gains)
        for d in gaps:
            for k in range(max(d, 0), min(m, m + d)):
                extended[k] += counts[k - d]
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


def _allowed_groups(
    n_sites: int, n_particles: int, rule: RestrictionRule | None
) -> Iterator[tuple[MonomialState, int, Sequence[int]]]:
    """The states of `enumerate_allowed` for N >= 1, in groups, for a point
    that `_check_listing` passed. A group (prefix, j, steps) is a word of
    N - 1 sites, its last site j and, in increasing order, the steps d it
    may take from there; its states are prefix + (j + d,). At N = 1 the one
    group is the empty prefix, j = 0 and the steps 1..M.

    Words grow one site per level: each word of a level, in order, is
    extended by the canonical steps (`_steps`) that stay on the lattice from
    its last site, so every level, and so the states, stay in
    lexicographic order. For an AdjacentPairRule the steps are the rule; a
    TotalCapRule passes every word or none; a GentileRule drops step 0, the
    first, from a word that ends in m copies of one site. Levels below
    N - 1 are lists; the groups are yielded as they are made.
    """
    if isinstance(rule, TotalCapRule) and n_particles > rule.cap:
        # The cap reads only a word's length: every word passes, or none.
        return
    if n_particles == 1:
        yield (), 0, range(1, n_sites + 1)
        return
    steps = _steps(n_sites, rule, canonical=True)
    # nexts[j]: the steps that stay on the lattice from site j; a gap rule's
    # hold no more entries than there are two-particle states
    nexts = [steps[:bisect_right(steps, n_sites - j)] for j in range(n_sites + 1)]
    words: list[MonomialState] = [(j,) for j in range(1, n_sites + 1)]
    if isinstance(rule, GentileRule):
        m = rule.max_occupancy
        # A sorted word w ends in m copies of its last site exactly when
        # w[-m] == w[-1]; it then takes no step 0.
        for _ in range(n_particles - 2):
            words = [w + (w[-1] + d,) for w in words for d in nexts[w[-1]]
                     if d or len(w) < m or w[-m] != w[-1]]
        for w in words:
            j = w[-1]
            yield w, j, nexts[j][1:] if len(w) >= m and w[-m] == j else nexts[j]
        return
    for _ in range(n_particles - 2):
        words = [w + (w[-1] + d,) for w in words for d in nexts[w[-1]]]
    for w in words:
        j = w[-1]
        yield w, j, nexts[j]


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
    TypeError. The listing is the states of `_allowed_groups`, in order.
    """
    _check_listing(n_sites, n_particles, rule, cap)
    if n_particles == 0:
        return [()]
    return [prefix + (j + d,) for prefix, j, steps in _allowed_groups(n_sites, n_particles, rule)
            for d in steps]


def count_allowed_states(
    n_sites: int, n_particles: int, rule: AdjacentPairRule | None = None
) -> int:
    """Number of canonical (sorted) states passing a gap rule, or no rule:
    the length of `enumerate_allowed`'s list, counted from the same steps
    with no listing and no candidate cap. Other rules raise TypeError."""
    _check_sizes(n_sites, n_particles)
    if rule is not None and not isinstance(rule, AdjacentPairRule):
        raise TypeError(f"unsupported rule type {type(rule).__name__}")
    return _count_by_last_site(n_sites, n_particles, rule, canonical=True)


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
        return _count_by_last_site(n_sites, n_particles, rule, canonical=False)
    raise TypeError(f"unsupported rule type {type(rule).__name__}")
