"""Elections, configurations, and the generic configuration-containment oracle.

A ranking is a tuple of candidates, best first.  An election is a labeled
candidate set [m] plus an ordered tuple of voters' rankings, each a
permutation of 1..m.  Rankings are checked where they enter: by the
election's constructor (``kernels._check_rankings``), and by
:func:`parse_election`, which names the offending line.  Elections derived
from a valid one (:func:`restrict`, :func:`sub_election`, the enumerations)
are built unchecked.  A configuration is a small election used as a forbidden
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

from functools import cached_property
from itertools import chain, permutations as _itertools_permutations, product, repeat
from typing import Iterable, Iterator, Optional, Sequence

from votelace import kernels
from votelace.kernels import _pair_perm_values, _rank_vector
from votelace.errors import GuardExceeded, ParseError
from votelace.guards import brute_call_guard
from votelace.perms import Frozen, Permutation


class Election(Frozen):
    """A candidate set [m] plus an ordered tuple of n rankings over it.

    Equal elections have equal ``num_candidates`` and ``preferences``.  The
    constructor takes any iterable of rankings and refuses an election
    without a candidate or a voter, or with a ranking that is not a
    permutation of 1..m.  An election keeps a ``__dict__``, which holds its
    fields and its cached key sets; a pickle or copy holds only the fields,
    and rebuilds the key sets on first use.
    """

    _fields = ("num_candidates", "preferences")
    num_candidates: int
    preferences: tuple[tuple[int, ...], ...]

    def __init__(self, num_candidates: int, preferences: Iterable[Iterable[int]]):
        prefs = tuple(map(tuple, preferences))
        if num_candidates < 1 or not prefs:
            raise ValueError("an election needs at least one candidate and one voter")
        kernels._check_rankings(prefs, num_candidates)
        object.__setattr__(self, "num_candidates", num_candidates)
        object.__setattr__(self, "preferences", prefs)

    @property
    def num_voters(self) -> int:
        return len(self.preferences)

    def rank_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Per voter, the 0-based position of each candidate (indexed by candidate-1)."""
        return tuple(map(_rank_vector, self.preferences))

    @cached_property
    def configuration_keys(self) -> dict:
        """Per shape (l, h), the canonical keys of the configurations of l
        voters and h candidates that embed in this election
        (``kernels.configuration_keys``).

        Each key set is built on first use and kept on the election.
        """
        return _KeySets(self.preferences)

    @cached_property
    def configuration_key(self) -> tuple:
        """This election's own canonical key as a configuration, kept on it."""
        return kernels.configuration_key(self.preferences)

    def to_text(self) -> str:
        """One voter per line, candidates space-separated best-to-worst."""
        return "\n".join(" ".join(map(str, r)) for r in self.preferences)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> Election:
        rows = tuple(rows)
        return cls(len(rows[0]) if rows else 0, rows)


class _KeySets(dict):
    # key sets by (l, h), each built when first looked up
    def __init__(self, preferences: tuple[tuple[int, ...], ...]):
        super().__init__()
        self.preferences = preferences

    def __missing__(self, shape: tuple[int, int]) -> set:
        keys = self[shape] = kernels.configuration_keys(self.preferences, *shape)
        return keys


def parse_election(text: str) -> Election:
    """Parse the election file format.

    One voter per line, candidates space-separated best-to-worst; blank lines
    are ignored and "#" starts a comment line.  All lines must be permutations
    of the same set {1..m}, checked here line by line, so the election is
    built unchecked.
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
    return _unchecked_election(m, tuple(row for _, row in rows))


def restrict(e: Election, subset: Iterable[int]) -> Election:
    """Restrict to a candidate subset, relabeling to 1..|subset| in identifier order."""
    return sub_election(e, range(1, e.num_voters + 1), subset)


def sub_election(e: Election, voters: Iterable[int], candidates: Iterable[int]) -> Election:
    """The election induced by a subset of voters (1-based indices) and
    candidates, relabeled as :func:`restrict` relabels them."""
    kept = sorted(set(voters))
    if not kept:
        raise ValueError("cannot keep zero voters")
    if kept[0] < 1 or kept[-1] > e.num_voters:
        raise ValueError(f"voter indices {kept} out of range 1..{e.num_voters}")
    chosen = sorted(set(candidates))
    if not chosen:
        raise ValueError("cannot restrict to an empty candidate set")
    if chosen[0] < 1 or chosen[-1] > e.num_candidates:
        raise ValueError(f"subset {chosen} out of range 1..{e.num_candidates}")
    return _unchecked_election(len(chosen), _restricted([e.preferences[v - 1] for v in kept], chosen))


def _restricted(preferences: Sequence[tuple[int, ...]], candidates: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The rankings with every candidate outside ``candidates`` (listed in
    increasing order) dropped, and the kept ones renumbered 1..k in that order."""
    label = {c: i for i, c in enumerate(candidates, start=1)}
    return tuple(tuple(label[c] for c in r if c in label) for r in preferences)


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
    for f, g in kernels.configuration_embeddings(e.preferences, cfg.preferences):
        return tuple(i + 1 for i in f), g
    return None


def pair_permutation(reference: Sequence[int], other: Sequence[int]) -> Permutation:
    """The permutation ranking ``other`` becomes after relabeling candidates
    so that ranking ``reference`` reads 1 2 ... m best-to-worst.

    >>> pair_permutation((1, 3, 2, 4), (2, 4, 1, 3))
    Permutation((3, 4, 1, 2))
    """
    reference, other = Election.from_rows([reference, other]).preferences
    return Permutation(_pair_perm_values(reference, other))


def _unchecked_election(m: int, prefs: tuple[tuple[int, ...], ...]) -> Election:
    # an Election whose rankings are permutations of 1..m by construction,
    # so its constructor's checks are skipped
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
    # (m!)^n is multiplied out only until it passes the guard, and never printed
    total = 1
    for k in chain.from_iterable(repeat(range(2, m + 1), n if m > 1 else 0)):
        total *= k
        if total > limit:
            raise GuardExceeded(f"(m!)^n elections at (m,n)=({m},{n}) exceed the guard {limit}")
    for prefs in product(_rankings(m, n), repeat=n):
        yield _unchecked_election(m, prefs)


def elections_with_first(m: int, n: int, first: Sequence[int]) -> Iterator[Election]:
    """The lexicographic slice of :func:`all_elections` with a fixed first voter.

    The slices are disjoint and cover everything.  Nothing in the package
    calls it; it is kept because ``perfbench/tracer.py`` wraps it by name.
    """
    rankings = _rankings(m, n)
    first = Election(m, (first,)).preferences[0]
    for rest in product(rankings, repeat=n - 1):
        yield _unchecked_election(m, (first, *rest))
