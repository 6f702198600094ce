"""Elections, configurations, and the generic configuration-containment oracle.

A ranking is a tuple of candidates, best first.  An election is a labeled
candidate set [m] plus an ordered tuple of voters' rankings, each a
permutation of 1..m; the election's constructor is the one place a ranking is
checked.  A configuration is a small election used as a forbidden
sub-structure: an election contains it when injective voter and candidate
maps preserve every stated preference.  Voters are significant as tuple
positions; elections with equal ranking multisets in different orders are
distinct objects.  :func:`contains_configuration` is one set lookup: the
configuration's canonical key among the host's key set, each built once and
kept on its election (``kernels.configuration_keys``).  The search is
``kernels.configuration_embeddings``; :func:`find_embedding` takes its first
embedding, voters made 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as _itertools_permutations, product
from typing import Iterable, Iterator, Optional, Sequence

from votelace import kernels
from votelace.errors import GuardExceeded, ParseError
from votelace.guards import brute_call_guard
from votelace.perms import Permutation


@dataclass(frozen=True)
class Election:
    """A candidate set [m] plus an ordered tuple of n rankings over it."""

    num_candidates: int
    preferences: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        prefs = tuple(map(tuple, self.preferences))
        object.__setattr__(self, "preferences", prefs)
        m = self.num_candidates
        if m < 1 or not prefs:
            raise ValueError("an election needs at least one candidate and one voter")
        ident = list(range(1, m + 1))
        for r in prefs:
            if sorted(r) != ident:
                raise ValueError(f"ranking {r} is not a permutation of 1..{m}")

    @property
    def num_voters(self) -> int:
        return len(self.preferences)

    def rank_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Per voter, the 0-based position of each candidate (indexed by candidate-1).

        Built on first use and kept on the election, which is immutable.
        """
        ranks = self.__dict__.get("_rank_vectors")
        if ranks is None:
            ranks = self.__dict__["_rank_vectors"] = tuple(map(_rank_vector, self.preferences))
        return ranks

    @cached_property
    def configuration_keys(self) -> dict:
        """Per shape (l, h), the canonical keys of the configurations of l
        voters and h candidates that embed in this election
        (``kernels.configuration_keys``).

        Each key set is built on first use and kept on the election.
        """
        return _KeySets(self.rank_vectors())

    @cached_property
    def configuration_key(self) -> tuple:
        """This election's own canonical key as a configuration, kept on it."""
        return kernels.configuration_key(self.rank_vectors())

    def to_text(self) -> str:
        """One voter per line, candidates space-separated best-to-worst."""
        return "\n".join(" ".join(map(str, r)) for r in self.preferences)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> Election:
        rows = tuple(rows)
        return cls(len(rows[0]) if rows else 0, rows)


class _KeySets(dict):
    # key sets by (l, h), each built when first looked up
    def __init__(self, ranks: tuple[tuple[int, ...], ...]):
        super().__init__()
        self.ranks = ranks

    def __missing__(self, shape: tuple[int, int]) -> set:
        keys = self[shape] = kernels.configuration_keys(self.ranks, *shape)
        return keys


@lru_cache(maxsize=None)
def _rank_vector(order: tuple[int, ...]) -> tuple[int, ...]:
    ranks = [0] * len(order)
    for pos, c in enumerate(order):
        ranks[c - 1] = pos
    return tuple(ranks)


def parse_election(text: str) -> Election:
    """Parse the election file format.

    One voter per line, candidates space-separated best-to-worst; blank lines
    are ignored and "#" starts a comment line.  All lines must be permutations
    of the same set {1..m}.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = tuple(int(tok) for tok in stripped.split())
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed ranking {stripped!r}") from exc
        rows.append((lineno, row))
    if not rows:
        raise ParseError("no rankings found")
    m = len(rows[0][1])
    full = frozenset(range(1, m + 1))
    for lineno, row in rows:
        if len(set(row)) != len(row):
            raise ParseError(f"line {lineno}: duplicate candidate in {row}")
        if frozenset(row) != full:
            raise ParseError(f"line {lineno}: inconsistent candidate set {sorted(set(row))}, expected 1..{m}")
    return Election(m, tuple(row for _, row in rows))


def restrict(e: Election, subset: Iterable[int]) -> Election:
    """Restrict to a candidate subset, relabeling to 1..|subset| in identifier order."""
    chosen = sorted(set(subset))
    if not chosen:
        raise ValueError("cannot restrict to an empty candidate set")
    if chosen[0] < 1 or chosen[-1] > e.num_candidates:
        raise ValueError(f"subset {chosen} out of range 1..{e.num_candidates}")
    relabel = {c: i + 1 for i, c in enumerate(chosen)}
    keep = set(chosen)
    return Election(len(chosen), tuple(tuple(relabel[c] for c in r if c in keep) for r in e.preferences))


def sub_election(e: Election, voters: Iterable[int], candidates: Iterable[int]) -> Election:
    """The election induced by a subset of voters (1-based indices) and candidates."""
    chosen = sorted(set(voters))
    if not chosen:
        raise ValueError("cannot keep zero voters")
    if chosen[0] < 1 or chosen[-1] > e.num_voters:
        raise ValueError(f"voter indices {chosen} out of range 1..{e.num_voters}")
    picked = Election(e.num_candidates, tuple(e.preferences[i - 1] for i in chosen))
    return restrict(picked, candidates)


def contains_configuration(e: Election, cfg: Election) -> bool:
    """True iff injective voter and candidate maps embed ``cfg`` into ``e``
    preserving all stated preferences: the configuration's key among the
    election's keys for its shape."""
    return cfg.configuration_key in e.configuration_keys[len(cfg.preferences), cfg.num_candidates]


def find_embedding(
    e: Election, cfg: Election
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First embedding of ``cfg`` into ``e``, or None.

    Returns (f, g): f[i] is the 1-based election voter hosting configuration
    voter i+1, g[s] the election candidate hosting configuration candidate s+1.
    """
    for f, g in kernels.configuration_embeddings(e.rank_vectors(), cfg.rank_vectors()):
        return tuple(i + 1 for i in f), g
    return None


@lru_cache(maxsize=1 << 10)
def _pair_perm_values(ref_order: tuple[int, ...], other_order: tuple[int, ...]) -> tuple[int, ...]:
    # bounded: an enumeration relabels against one first ranking at a time
    # (at most 720 pairs for m <= 6), while a sweep of every pair at m = 5
    # would keep 14,400 entries that are never hit again
    ranks = _rank_vector(ref_order)
    return tuple(ranks[c - 1] + 1 for c in other_order)


def pair_permutation(reference: Sequence[int], other: Sequence[int]) -> Permutation:
    """The permutation ranking ``other`` becomes after relabeling candidates
    so that ranking ``reference`` reads 1 2 ... m best-to-worst.

    >>> pair_permutation((1, 3, 2, 4), (2, 4, 1, 3))
    Permutation((3, 4, 1, 2))
    """
    reference, other = Election.from_rows([reference, other]).preferences
    return Permutation(_pair_perm_values(reference, other))


def _unchecked_election(m: int, prefs: tuple[tuple[int, ...], ...]) -> Election:
    # an Election built without __post_init__, for rankings that are
    # permutations of 1..m by construction
    e = object.__new__(Election)
    fields = e.__dict__
    fields["num_candidates"] = m
    fields["preferences"] = prefs
    return e


def _rankings(m: int, n: int) -> list[tuple[int, ...]]:
    # the m! rankings, for an enumeration of n voters; both must be at least 1
    if m < 1 or n < 1:
        raise ValueError("an election needs at least one candidate and one voter")
    return list(_itertools_permutations(range(1, m + 1)))


def all_elections(m: int, n: int, limit: Optional[int] = None) -> Iterator[Election]:
    """Every ordered tuple of n rankings over [m], in lexicographic order."""
    if limit is None:
        limit = brute_call_guard()
    total = math.factorial(m) ** n
    if total > limit:
        raise GuardExceeded(f"(m!)^n = {total} elections at (m,n)=({m},{n}) exceeds the guard {limit}")
    for prefs in product(_rankings(m, n), repeat=n):
        yield _unchecked_election(m, prefs)


def elections_with_first(m: int, n: int, first: Sequence[int]) -> Iterator[Election]:
    """The lexicographic slice of :func:`all_elections` with a fixed first voter.

    This is the splitting point for parallel consumption: slices are disjoint,
    cover everything, and merge deterministically in first-ranking order.
    """
    rankings = _rankings(m, n)
    first = Election(m, (first,)).preferences[0]
    for rest in product(rankings, repeat=n - 1):
        yield _unchecked_election(m, (first, *rest))
