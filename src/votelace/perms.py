"""Permutations in one-line notation, pattern containment, and avoidance counts.

A permutation of length n is stored as the tuple of its values at positions
1..n; the empty permutation is legal and is a pattern of everything.
Values and positions are 1-indexed throughout.  The search is
``kernels.pattern_occurrences``; :func:`occurrences` only shifts its indices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from collections import Counter
from functools import reduce
from itertools import chain, compress, permutations as _itertools_permutations, product
from typing import Callable, Iterable, Iterator

from votelace import kernels
from votelace.errors import GuardExceeded, ParseError

#: default exhaustive-generation cap: 9! permutations enumerate instantly,
#: anything larger needs an explicit opt-in
DEFAULT_MAX_N = 9


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n} in one-line notation.

    >>> Permutation((2, 4, 1, 3)).inverse()
    Permutation((3, 1, 4, 2))
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {values}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __repr__(self) -> str:
        return f"Permutation({self.values!r})"

    def __str__(self) -> str:
        return self.to_line()

    def reverse(self) -> Permutation:
        """The permutation read right-to-left."""
        return Permutation(self.values[::-1])

    def inverse(self) -> Permutation:
        """The group-theoretic inverse: q with q[p[i]] = i."""
        inv = [0] * len(self.values)
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def to_line(self) -> str:
        """Space-separated one-line notation; empty permutation is an empty line."""
        return " ".join(str(v) for v in self.values)

    @classmethod
    def from_line(cls, text: str) -> Permutation:
        """Parse space-separated one-line notation."""
        stripped = text.strip()
        if not stripped:
            return cls(())
        try:
            values = tuple(int(tok) for tok in stripped.split())
        except ValueError as exc:
            raise ParseError(f"bad permutation line {text!r}") from exc
        try:
            return cls(values)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def identity(n: int) -> Permutation:
    """The identity permutation 1 2 ... n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return Permutation(tuple(range(1, n + 1)))


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """Right-to-left composition: result[i] = outer[inner[i]].

    >>> compose(Permutation((3, 1, 2)), Permutation((2, 3, 1)))
    Permutation((1, 2, 3))
    """
    if len(outer) != len(inner):
        raise ValueError(f"length mismatch: {len(outer)} vs {len(inner)}")
    return Permutation(tuple(outer.values[v - 1] for v in inner.values))


def contains_pattern(pattern: Permutation, host: Permutation) -> bool:
    """True iff some index-increasing subsequence of ``host`` is order-isomorphic to ``pattern``.

    >>> contains_pattern(Permutation((3, 1, 2)), Permutation((5, 2, 6, 1, 4, 3)))
    True
    >>> contains_pattern(Permutation((1, 2, 3)), Permutation((5, 2, 6, 1, 4, 3)))
    False
    """
    return kernels.contains_pattern(host.values, pattern.values)


def occurrences(pattern: Permutation, host: Permutation) -> Iterator[tuple[int, ...]]:
    """Yield every strictly increasing index tuple (1-based) whose values
    are order-isomorphic to ``pattern``, in lexicographic order.

    The stream is empty iff :func:`contains_pattern` is false.
    """
    for occ in kernels.pattern_occurrences(host.values, pattern.values):
        yield tuple(i + 1 for i in occ)


def count_avoiders(n: int, forbidden: Iterable[Permutation], max_n: int = DEFAULT_MAX_N) -> int:
    """|S_n(forbidden)| by exhaustive generation.

    >>> count_avoiders(3, [Permutation((1, 2))])
    1
    """
    if n > max_n:
        raise GuardExceeded(f"refusing to enumerate {n}! permutations (cap {max_n}); raise max_n to opt in")
    pats = [p.values for p in forbidden if len(p) <= n]
    ck = kernels.contains_pattern
    count = 0
    for values in _itertools_permutations(range(1, n + 1)):
        if not any(ck(values, pat) for pat in pats):
            count += 1
    return count


class FoldRule:
    """A test that folds over the voters' signatures, which are ints.

    ``op`` (``operator.or_`` or ``operator.and_``) folds every voter but the
    last into a state, from 0 or from all bits; the tuple is accepted iff the
    last signature misses ``mask(state)`` (an OR fold) or meets it (an AND
    fold); calling the rule on the signatures tests them.  An AND fold's
    ``mask(state)`` lies within ``state``, so an empty fold fails whatever
    follows.  For a count with ``jobs > 1``, ``mask`` must be a module-level
    function or a ``partial`` of one, so that the rule pickles.
    """

    __slots__ = ("op", "mask")

    def __init__(self, op: Callable[[int, int], int], mask: Callable[[int], int]):
        self.op = op
        self.mask = mask

    def __call__(self, sigs) -> bool:
        """The verdict on an iterable of at least one signature."""
        meets = self.op is operator.and_
        state = -1 if meets else 0
        for last in sigs:
            prefix, state = state, self.op(state, last)
            # an AND fold that is already empty fails whatever follows, so
            # the signatures of later voters are never computed
            if meets and not state:
                return False
        return bool(self.mask(prefix) & last) == meets


def verdicts(m: int, n: int, signature: Callable, test: Callable[..., bool]) -> Iterator[bool]:
    """The verdict of ``test`` on every n-tuple of permutations of 1..m, in
    lexicographic order, as :func:`count_accepted` reads them.

    ``signature`` runs once per permutation.  For a :class:`FoldRule` each
    (n-1)-prefix is folded once and its last voters are decided with one
    C-level pass of ``mask(state) & last``; any other test runs on every
    tuple of signatures.  The verdicts are streamed, not stored.  The
    callers guard the size.

    >>> list(verdicts(2, 2, tuple, lambda pair: pair[0] < pair[1]))
    [False, True, False, False]
    >>> list(verdicts(3, 1, lambda values: 1 << values[0], FoldRule(operator.and_, lambda state: state & 0b1010)))
    [True, True, False, False, True, True]
    """
    table = [signature(values) for values in _itertools_permutations(range(1, m + 1))]
    return _verdicts(table, table, n, test)


def _verdicts(heads: list, table: list, n: int, test: Callable[..., bool]) -> Iterator[bool]:
    # the verdicts on the n-tuples of signatures whose first is one of ``heads``
    # and whose others are any of ``table``, in lexicographic order
    *layers, last = [heads, *[table] * (n - 1)]
    if not isinstance(test, FoldRule):
        return map(test, product(*layers, last))
    op, mask = test.op, test.mask
    init, decide = (-1, bool) if op is operator.and_ else (0, operator.not_)
    return chain.from_iterable(
        map(decide, map(mask(reduce(op, prefix, init)).__and__, last)) for prefix in product(*layers)
    )


def count_accepted(m: int, n: int, signature: Callable, test: Callable[..., bool], jobs: int = 1) -> int:
    """Number of n-tuples of permutations of 1..m whose signatures pass ``test``.

    ``signature`` maps a permutation (a tuple of values) to what ``test``
    reads; it runs once per permutation.  ``test`` maps a tuple of signatures
    to a verdict.  A :class:`FoldRule` is walked over the distinct signatures
    instead, each with the number of permutations that share it: each
    distinct (n-1)-signature prefix is folded once, depth first, carrying the
    product of its weights, and the distinct last signatures are decided with
    one C-level pass of ``mask(state) & last``.  So each distinct signature
    tuple is tested once and counted with the number of tuples that share
    it, and no fold state is merged.  Any other test runs on every one of the
    (m!)^n tuples, in lexicographic order, through the walk of
    :func:`verdicts`.  With ``jobs > 1`` the tuples are
    partitioned by their first permutation into one share per worker, at
    most m! of them: worker i of J takes the first permutations at
    lexicographic positions i, i + J, ...  Partial counts merge by addition,
    so the result is independent of the worker count; ``signature`` and
    ``test`` must then pickle.  ``jobs`` below 1 raises ``ValueError``.  The
    callers guard the size.

    >>> count_accepted(3, 2, tuple, lambda pair: pair[0] < pair[1])
    15
    >>> count_accepted(3, 2, lambda values: 1 << values[0], FoldRule(operator.or_, lambda state: state))
    24
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, math.factorial(m))
    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return sum(pool.map(_count_slice, ((m, n, signature, test, i, jobs) for i in range(jobs))))
    return _count_slice((m, n, signature, test, 0, 1))


def _count_slice(args) -> int:
    # the accepted tuples whose first permutation sits at a lexicographic
    # position congruent to ``share`` modulo ``shares``
    m, n, signature, test, share, shares = args
    table = [signature(values) for values in _itertools_permutations(range(1, m + 1))]
    heads = table[share::shares]
    if not isinstance(test, FoldRule):
        return sum(_verdicts(heads, table, n, test))
    # tuples with equal signatures get equal verdicts, so each layer holds
    # the distinct signatures with their multiplicities (in first-seen order)
    *prefix, last = [Counter(heads), *[Counter(table)] * (n - 1)]
    sigs, weights = list(last), list(last.values())
    op, mask = test.op, test.mask
    meets = op is operator.and_

    def met(state, depth: int) -> int:
        # the tuples, below a prefix folded to ``state``, whose last signature
        # meets its mask, each distinct one counted with its weight
        if depth == len(prefix):
            return sum(compress(weights, map(mask(state).__and__, sigs)))
        if depth + 1 < len(prefix):
            return sum(w * met(op(state, s), depth + 1) for s, w in prefix[depth].items())
        return sum(w * sum(compress(weights, map(mask(op(state, s)).__and__, sigs))) for s, w in prefix[depth].items())

    hits = met(-1 if meets else 0, 0)
    return hits if meets else len(heads) * len(table) ** (n - 1) - hits
