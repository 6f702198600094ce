"""The record bases, permutations and pattern containment, and the count walks.

:class:`Record` and :class:`Frozen` are the bases of the package's records:
each declares its fields once, and equality, hashing, pickling and the
repr follow from them.  A permutation of length n is stored as the tuple
of its values at positions 1..n; the empty permutation is legal and is a
pattern of everything.  Values and positions are 1-indexed throughout.
The search is ``kernels._pattern_search``; :func:`occurrences` only
shifts its indices.  :func:`count_accepted` and :func:`verdicts` walk the
n-tuples of permutations of 1..m through a table of their m! signatures
and a :class:`FoldRule` or :class:`MultisetRule`: :func:`verdicts` every
tuple, and :func:`count_accepted` only those of one first permutation,
times m!.  Both walk in the calling process.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import reduce
from itertools import chain, combinations_with_replacement, compress, product, repeat
from itertools import permutations as _itertools_permutations
from typing import Callable, Iterable, Iterator

from votelace import kernels
from votelace.kernels import _pattern_search
from votelace.errors import GuardExceeded, ParseError

#: default exhaustive-generation cap.  The count runs one pattern search
#: per permutation and pattern: n = 9 takes 9-11 s for the four enriched
#: patterns (2 shared cores), and anything larger needs an explicit opt-in
DEFAULT_MAX_N = 9


class Record:
    """Base of the package's records: a subclass names its fields, in
    constructor order, in the class attribute ``_fields``, and two records
    are equal when they are of the same class with equal field tuples.  The
    repr is the class name with the fields as keywords.  The field getter,
    ``_astuple`` (called as ``r._astuple(r)``), is an ``attrgetter`` built
    once per class, which keeps hashing and comparing records cheap."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            get = operator.attrgetter(*cls._fields)
            cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self)))
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """Base of the package's immutable records: assigning or deleting any
    attribute raises ``AttributeError``, so constructors set their fields
    with ``object.__setattr__``.  The hash is that of the field tuple, and
    a record pickles and copies through its constructor, called with the
    field tuple.  Each declares its fields as ``__slots__`` and keeps
    nothing else: no instance ``__dict__``, so no per-object cache."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __reduce__(self):
        return self.__class__, self._astuple(self)


class Permutation(Frozen):
    """A bijection on {1..n} in one-line notation.

    Equal permutations have equal ``values``; the constructor takes any
    iterable of them and refuses one that is not a permutation of 1..n.

    >>> Permutation((2, 4, 1, 3)).inverse()
    Permutation((3, 1, 4, 2))
    """

    __slots__ = _fields = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        values = tuple(values)
        kernels._check_rankings((values,), len(values))
        object.__setattr__(self, "values", values)

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
    # the permutations were checked when they were built
    return next(_pattern_search(host.values, pattern.values), None) is not None


def occurrences(pattern: Permutation, host: Permutation) -> Iterator[tuple[int, ...]]:
    """Yield every strictly increasing index tuple (1-based) whose values
    are order-isomorphic to ``pattern``, in lexicographic order.

    The stream is empty iff :func:`contains_pattern` is false.
    """
    for occ in _pattern_search(host.values, pattern.values):
        yield tuple(i + 1 for i in occ)


def count_avoiders(n: int, forbidden: Iterable[Permutation], max_n: int = DEFAULT_MAX_N) -> int:
    """|S_n(forbidden)| by exhaustive generation.

    >>> count_avoiders(3, [Permutation((1, 2))])
    1
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > max_n:
        raise GuardExceeded(f"refusing to enumerate {n}! permutations (cap {max_n}); raise max_n to opt in")
    pats = [p.values for p in forbidden if len(p) <= n]
    search = _pattern_search
    count = 0
    for values in _itertools_permutations(range(1, n + 1)):
        if not any(next(search(values, pat), None) is not None for pat in pats):
            count += 1
    return count


class FoldRule:
    """A test that ORs the voters' signatures, which are ints.

    The signatures of every voter but the last are ORed into ``state``,
    from 0; the tuple is accepted iff the last signature misses
    ``mask(state)``, and calling the rule on the signatures tests them.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: Callable[[int], int]):
        self.mask = mask

    def __call__(self, sigs) -> bool:
        """The verdict on an iterable of at least one signature."""
        state = 0
        for last in sigs:
            prefix, state = state, state | last
        return not self.mask(prefix) & last

    def accepted(self, head: tuple, lasts: Iterable) -> Iterator[bool]:
        """The verdicts on ``head`` followed by each of ``lasts``."""
        return map(operator.not_, map(self.mask(reduce(operator.or_, head, 0)).__and__, lasts))


class MultisetRule:
    """A test that reads the voters' signatures as a multiset.

    Calling the rule sorts the signatures and passes the sorted tuple to
    ``combine``, so no verdict can depend on which voter holds which
    signature.  The signatures must be mutually orderable.
    """

    __slots__ = ("combine",)

    def __init__(self, combine: Callable[[tuple], bool]):
        self.combine = combine

    def __call__(self, sigs) -> bool:
        """The verdict on an iterable of signatures."""
        return self.combine(tuple(sorted(sigs)))

    def accepted(self, head: tuple, lasts: Iterable) -> Iterator[bool]:
        """The verdicts on the sorted tuple ``head`` followed by each of
        ``lasts``, none of which may sort below the largest of ``head``."""
        return map(self.combine, map(head.__add__, zip(lasts)))


def _check_walk(n: int, test) -> None:
    # what every walk refuses: no voters, or a test it cannot walk
    if n < 1:
        raise ValueError(f"an election needs at least one voter, got n = {n}")
    if not isinstance(test, (FoldRule, MultisetRule)):
        raise TypeError(f"a test is a FoldRule or a MultisetRule, got {type(test).__name__}")


def verdicts(table: list, n: int, test: Callable[..., bool]) -> Iterator[bool]:
    """The verdict of ``test`` on every n-tuple of permutations of 1..m, in
    lexicographic order, where ``table`` lists the signatures of the m!
    permutations in that order.  A :class:`FoldRule` ORs each (n-1)-tuple
    prefix once and decides the last signatures in one C-level pass; a
    :class:`MultisetRule` runs its combine once per sorted signature tuple,
    and every tuple that sorts to it repeats that verdict.  ``n`` below 1
    raises ``ValueError``, and a test of neither kind ``TypeError``.  The
    callers guard the size.

    >>> list(verdicts([(1, 2), (2, 1)], 2, MultisetRule(lambda pair: pair[0] < pair[1])))
    [False, True, True, False]
    >>> list(verdicts([2, 2, 4, 4, 8, 8], 1, FoldRule(lambda state: state | 0b1010)))
    [False, False, True, True, False, False]
    """
    _check_walk(n, test)
    if isinstance(test, MultisetRule):
        memo, combine = {}, test.combine
        keys = map(tuple, map(sorted, product(table, repeat=n)))
        return (memo[key] if key in memo else memo.setdefault(key, combine(key)) for key in keys)
    return chain.from_iterable(map(test.accepted, product(table, repeat=n - 1), repeat(table)))


def count_accepted(table: list, n: int, test: Callable[..., bool]) -> int:
    """Number of n-tuples of permutations of 1..m whose signatures pass
    ``test``, where ``table`` lists the signatures of the m! permutations.

    ``test`` must be voter-symmetric: its verdict may depend only on the
    multiset of the signatures, not on which voter holds which.  A
    :class:`MultisetRule` is so by construction; a :class:`FoldRule` is so
    when its verdict is a property of the OR of all the signatures, as
    every fold in :data:`votelace.domains.DOMAINS` is.  ``test`` must also
    be neutral: relabeling the candidates, the same permutation applied to
    the values of every voter's permutation, may change no verdict, as it
    changes none of a domain in :data:`votelace.domains.DOMAINS`.

    The table's entries are what ``test`` reads, one per permutation, in
    any order.  By neutrality, every first permutation is accepted with as
    many (n-1)-tuples of the other voters as any other, so the walk fixes
    the first voter to one permutation of the least signature and returns
    m! times its count.  It reads the distinct signatures, sorted, with the
    number of permutations that share each, and visits each multiset of the
    other n-1 signatures once: one step per sorted (n-2)-prefix, then one
    C-level pass of ``test.accepted`` over the last signatures, none below
    the prefix's largest.  It counts
    each accepted multiset with its multinomial coefficient times the
    product of its signatures' weights.  The walk runs in the calling
    process.  ``n`` below 1 raises ``ValueError``, and a test of neither
    kind ``TypeError``.  The callers guard the size.

    >>> count_accepted([(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)], 2,
    ...                MultisetRule(lambda pair: pair[0] < pair[1]))
    30
    >>> count_accepted([2, 2, 4, 4, 8, 8], 2, FoldRule(lambda state: state))
    24
    """
    _check_walk(n, test)
    counts = Counter(table)
    sigs = sorted(counts)
    if n == 1:
        return len(table) * test(sigs[:1])
    # each head is ``sigs[0]`` followed by a sorted prefix of the other
    # voters, so it is sorted.  A prefix with multiplicities c gives
    # (others-1)! / prod(c!) orderings; appending signature s, which the
    # prefix holds c_s times, multiplies that by others / (c_s + 1), and c_s
    # is 0 for every last signature but the prefix's largest
    others = n - 1
    weights = [counts[s] for s in sigs]
    factorials = [math.factorial(c) for c in range(others)]
    first = (sigs[0],)
    prefixes = zip(
        combinations_with_replacement(range(len(sigs)), others - 1), combinations_with_replacement(sigs, others - 1)
    )
    total = 0
    for index, prefix in prefixes:
        low = index[-1] if index else 0
        orderings = factorials[others - 1] // math.prod(map(factorials.__getitem__, map(index.count, set(index))))
        scale = others * orderings * math.prod(map(weights.__getitem__, index))
        accepted = test.accepted(first + prefix, sigs[low:])
        if next(accepted):
            total += scale * weights[low] // (index.count(low) + 1)
        total += scale * sum(compress(weights[low + 1 :], accepted))
    return len(table) * total
