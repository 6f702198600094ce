"""The strong order on pairs of permutations and the weak Bruhat order.

A pair pattern [small.first, small.second] is strongly contained in
[big.first, big.second] when one common set of values realizes the first
component inside big.first and the second component inside big.second.
Witnesses are therefore reported as value sets, not index tuples: the same
values sit at different positions in the two host permutations.  The search
is ``kernels._strong_search``; :func:`strong_occurrences` only makes sets.
:func:`strong_contains` and :func:`count_pair_avoiders` read value-subset
signatures instead (``kernels.strong_signature``): per pattern, the value
subsets on which a permutation forms it.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import compress, permutations
from math import comb, factorial
from typing import Iterable, Iterator

from votelace import kernels
from votelace.domains import _pair_bits
from votelace.errors import GuardExceeded, ParseError
from votelace.perms import Frozen, Permutation

#: default cap for pair enumeration: m = 7 sums its (7!)^2 pairs over
#: strong-order signatures in about a second, but no second route has
#: checked its count yet, so it needs an explicit opt-in
DEFAULT_MAX_M = 6


class PairPattern(Frozen):
    """An ordered pair of equal-length permutations.

    Equal pair patterns have equal components; the constructor refuses
    components of different lengths.
    """

    __slots__ = _fields = ("first", "second")
    first: Permutation
    second: Permutation

    def __init__(self, first: Permutation, second: Permutation):
        if len(first) != len(second):
            raise ValueError(f"components differ in length: {len(first)} vs {len(second)}")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __len__(self) -> int:
        return len(self.first)

    def __str__(self) -> str:
        return self.to_line()

    def to_line(self) -> str:
        """Serialize as two one-line permutations separated by " | "."""
        return f"{self.first.to_line()} | {self.second.to_line()}"

    @classmethod
    def from_line(cls, text: str) -> PairPattern:
        parts = text.split("|")
        if len(parts) != 2:
            raise ParseError(f"expected 'perm | perm', got {text!r}")
        return cls(Permutation.from_line(parts[0]), Permutation.from_line(parts[1]))

    @classmethod
    def of(cls, first: Iterable[int], second: Iterable[int]) -> PairPattern:
        return cls(Permutation(tuple(first)), Permutation(tuple(second)))


def strong_contains(small: PairPattern, big: PairPattern) -> bool:
    """True iff some value set realizes small.first in big.first and
    small.second in big.second simultaneously.

    >>> strong_contains(PairPattern.of((2, 1, 3), (1, 3, 2)),
    ...                 PairPattern.of((6, 1, 4, 2, 3, 5), (1, 2, 6, 5, 3, 4)))
    True
    """
    # the pair patterns were checked when they were built
    return kernels._strong_lookup(big.first.values, big.second.values, small.first.values, small.second.values)


def strong_occurrences(small: PairPattern, big: PairPattern) -> Iterator[frozenset[int]]:
    """Yield every witnessing value set, smallest values first.

    The stream is empty iff :func:`strong_contains` is false.
    """
    # the pair patterns were checked when they were built
    for values in kernels._strong_search(big.first.values, big.second.values, small.first.values, small.second.values):
        yield frozenset(values)


def inversion_set(p: Permutation) -> frozenset[tuple[int, int]]:
    """All (i, j) with i < j and p[i] > p[j], 1-indexed.

    >>> sorted(inversion_set(Permutation((2, 4, 1, 3))))
    [(1, 3), (2, 3), (2, 4)]
    """
    v = p.values
    n = len(v)
    return frozenset((i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if v[i] > v[j])


def weak_bruhat_le(lo: Permutation, hi: Permutation) -> bool:
    """True iff ``lo`` is below ``hi`` in the weak Bruhat order.

    Comparability is containment of the out-of-order VALUE pairs, i.e. of the
    positional inversion sets of the inverses.  (Comparing positional
    inversion sets directly would give the mirror-image order, which does not
    match strong [12,21]-avoidance: (231, 132) separates the two.)  Decided
    on the complementary bitmasks: ``lo``'s out-of-order value pairs lie
    among ``hi``'s exactly when ``hi``'s in-order pairs, its cached
    ``domains._pair_bits``, lie among ``lo``'s.

    >>> weak_bruhat_le(Permutation((2, 1, 3)), Permutation((2, 3, 1)))
    True
    >>> weak_bruhat_le(Permutation((2, 3, 1)), Permutation((2, 1, 3)))
    False
    """
    if len(lo) != len(hi):
        raise ValueError(f"length mismatch: {len(lo)} vs {len(hi)}")
    return not _pair_bits(hi.values) & ~_pair_bits(lo.values)


def count_pair_avoiders(m: int, forbidden: Iterable[PairPattern], max_m: int = DEFAULT_MAX_M) -> int:
    """Number of pairs (pi, rho) in S_m x S_m avoiding every forbidden pair pattern.

    Each permutation's signature is a pair of ints: per pattern, the value
    subsets on which it forms the pattern's first component, then the same
    for the second components.  A pair (pi, rho) avoids every pattern iff
    pi's first half misses rho's second half.  The rule is ordered, since
    (pi, rho) and (rho, pi) can differ, so the sum runs over ordered pairs
    of distinct signatures, each weighted by the permutations that share
    it: one C-level pass over the second signatures per first one.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > max_m:
        raise GuardExceeded(f"refusing to enumerate (m!)^2 pairs at m={m} (cap {max_m})")
    pats = tuple((q.first.values, q.second.values) for q in forbidden)
    counts = Counter(map(partial(_pair_signature, pats), permutations(range(1, m + 1))))
    seconds, weights = [second for _, second in counts], list(counts.values())
    met = sum(w * sum(compress(weights, map(first.__and__, seconds))) for (first, _), w in counts.items())
    return factorial(m) ** 2 - met


def _pair_signature(pats: tuple, values: tuple) -> tuple[int, int]:
    # the bits of every pattern's first component on ``values``, and those
    # of every second component, in the same layout
    firsts = seconds = shift = 0
    for first, second in pats:
        signature = kernels.strong_signature(values, len(first))
        firsts |= signature.get(first, 0) << shift
        seconds |= signature.get(second, 0) << shift
        shift += comb(len(values), len(first))
    return firsts, seconds
