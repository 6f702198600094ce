"""Exact counting: brute-force counters, recurrences, closed forms, and bounds.

All counts are exact arbitrary-precision integers; closed forms with
irrational roots are evaluated in the matching quadratic integer ring and
validated against the integer recurrences (the recurrences are canonical).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import and_
from typing import Callable, Iterable, Optional

from votelace import kernels
from votelace.domains import check_cap
from votelace.elections import DEFAULT_GUARD, Election, check_guard
from votelace.errors import GuardExceeded
from votelace.pairs import DEFAULT_MAX_M, PairPattern, count_pair_avoiders
from votelace.perms import Frozen, Permutation, compose, count_accepted

METHODS = ("brute-force", "recurrence", "formula")

#: the widest count or bound computed and printed, in bits: about 315,000
#: decimal digits, which take about a second to compute and print
MAX_COUNT_BITS = 1 << 20


def check_width(m: int, n: int, extra_bits: int, what: str) -> None:
    """Raise ``GuardExceeded`` when a value of at least m! * 2**extra_bits,
    for m >= 1, is wider than :data:`MAX_COUNT_BITS`.  log2(m!) is taken from
    ``lgamma`` less a bit, so float error never refuses a value within the cap."""
    if math.lgamma(m + 1) / math.log(2) - 1 + extra_bits > MAX_COUNT_BITS:
        raise GuardExceeded(f"{what} at (m,n)=({m},{n}) is wider than MAX_COUNT_BITS = {MAX_COUNT_BITS} bits")


def _digits(count: int) -> str:
    """``count`` in decimal, at any width.

    ``str`` of an int stops at 4,300 digits, and ``Decimal(count)`` takes
    time quadratic in the width (about 28 s at 1.2M digits), so a wide count
    is split in halves by bits and rejoined by products in an exact decimal
    context, which libmpdec computes by number-theoretic transform (under
    1 s at 1.2M digits).
    """
    if count.bit_length() <= 4096:
        return str(count)
    # imported here: the import alone would add about 6% to every command's
    # start-up (2.5 of 41 ms, 2 shared cores)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX)

    def convert(x: int) -> Decimal:
        if x.bit_length() <= 4096:
            return Decimal(x)
        half = x.bit_length() // 2
        return exact.add(exact.multiply(convert(x >> half), exact.power(2, half)), convert(x & ((1 << half) - 1)))

    return str(convert(count))


class CountReport(Frozen):
    """One exact count, with the method that produced it recorded truthfully.

    Equal reports have equal fields.  The constructor refuses a count that
    is not an int (a bool included) or is negative, and a method outside
    :data:`METHODS`.
    """

    __slots__ = _fields = ("m", "n", "label", "count", "method")
    m: int
    n: int
    label: str
    count: int
    method: str

    def __init__(self, m: int, n: int, label: str, count: int, method: str):
        if not isinstance(count, int) or isinstance(count, bool):
            raise TypeError(f"counts are exact integers, got {count!r}")
        if count < 0:
            raise ValueError("counts are nonnegative")
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "method", method)

    def to_json(self) -> str:
        """Single-line JSON; the count is a decimal string to survive any integer width."""
        # imported here: only count and bound print JSON, and the import alone
        # would add about 9% to every command's start-up (3.9 of 41 ms)
        import json

        return json.dumps(
            {"m": self.m, "n": self.n, "label": self.label, "count": _digits(self.count), "method": self.method}
        )


def brute_force_count(
    m: int,
    n: int,
    recognizer: Callable[[Election], object],
    label: Optional[str] = None,
    guard: int = DEFAULT_GUARD,
) -> CountReport:
    """Count the (m,n)-elections accepted by ``recognizer``, exhaustively.

    ``recognizer`` is one of :data:`votelace.domains.DOMAINS` (or a
    ``functools.wraps`` wrapper of one), and only its ``table`` and
    ``rule`` are read.  :func:`votelace.perms.count_accepted` runs
    ``rule(m)`` over ``table(m)``, the signatures of the m! rankings,
    without building the elections.  Every domain is neutral, so each first
    ranking is accepted with as many elections of the other voters as any
    other: the count fixes the first voter to one ranking and multiplies by
    m!.  Every domain is voter-symmetric, so the rule tests each distinct
    multiset of the other voters' signatures once, counted with the number
    of elections that share it.  Nothing is pruned and no fold state is
    merged, so the count is brute force.  It runs in the calling process.
    A ``guard`` below 1 raises ``ValueError``, and more than ``guard``
    elections at (m,n) raise ``GuardExceeded``.
    """
    if label is None:
        label = getattr(recognizer, "__name__", "recognizer")
    if not (callable(getattr(recognizer, "table", None)) and callable(getattr(recognizer, "rule", None))):
        raise TypeError(f"{label} has no signature table and rule; pass a recognizer from DOMAINS")
    if m < 1 or n < 1:
        raise ValueError("an election needs at least one candidate and one voter")
    if guard < 1:
        raise ValueError(f"the brute-force guard must be positive, got {guard}")
    check_cap(m, n)  # first, so that a cell past the recognizers' cap is refused by the cap
    check_guard(m, n, guard)
    count = count_accepted(recognizer.table(m), n, recognizer.rule(m))
    return CountReport(m, n, label, count, "brute-force")


# ---------------------------------------------------------------------------
# enriched-count recurrence and closed forms


def reduced_enriched_count(m: int, n: int) -> int:
    """Number of enriched group-separable (m,n)-elections with the first
    preference fixed, by the integer recurrence
    f(m) = 2^n f(m-1) - 2^(n-1) f(m-2), f(0) = f(1) = 1.
    """
    if n < 1:
        raise ValueError("need at least one voter")
    if m < 0:
        raise ValueError("sizes are nonnegative")
    prev, cur = 1, 1
    for _ in range(m - 1):
        prev, cur = cur, 2**n * cur - 2 ** (n - 1) * prev
    return cur if m >= 1 else prev


def enriched_count(m: int, n: int) -> int:
    """Number of enriched group-separable (m,n)-elections: m! times the reduced count."""
    return math.factorial(m) * reduced_enriched_count(m, n)


def reduced_enriched_count_closed(m: int, n: int) -> int:
    """Closed form of :func:`reduced_enriched_count`, evaluated exactly.

    With h = 2^(n-1) the characteristic roots are h +- r, r^2 = D = h(h-1),
    and f(m) = c+ (h+r)^m + c- (h-r)^m with c+- = (r +- (1-h)) / 2r.  Writing
    (h+r)^m = a + b r in Z[sqrt D], so that (h-r)^m = a - b r, the r parts
    cancel and f(m) = a + (1-h) b.  At n = 1 the roots coincide (D = 0) and
    the value is 1 for every m.
    """
    if n < 1:
        raise ValueError("need at least one voter")
    if m < 0:
        raise ValueError("sizes are nonnegative")
    h = 2 ** (n - 1)
    d = h * (h - 1)
    a, b = 1, 0
    for _ in range(m):
        a, b = h * a + d * b, a + h * b
    return a + (1 - h) * b


_FORMULAS = ("m3", "m4", "m5", "n2")


def enriched_count_formula(which: str, index: int) -> int:
    """Closed formulas for slices of the enriched count.

    ``m3``/``m4``/``m5`` take the number of voters n and count elections with
    3, 4, 5 candidates; ``n2`` takes the number of candidates m and counts
    2-voter elections (evaluated exactly in Z[sqrt(2)]).
    """
    if which == "m3":
        _require(index >= 1, "m3 needs n >= 1")
        return 6 * 2 ** (index - 1) * (2**index - 1)
    if which == "m4":
        _require(index >= 1, "m4 needs n >= 1")
        return 24 * 4 ** (index - 1) * (2 ** (index + 1) - 3)
    if which == "m5":
        _require(index >= 1, "m5 needs n >= 1")
        return 120 * 4 ** (index - 1) * (2 ** (2 * index + 1) - 2 ** (index + 2) + 1)
    if which == "n2":
        _require(index >= 0, "n2 needs m >= 0")
        # m!/4 ((2+r)(2-r)^m + (2-r)(2+r)^m) with r = sqrt(2): the closed
        # form of the reduced count at h = 2^(n-1) = 2
        return math.factorial(index) * reduced_enriched_count_closed(index, 2)
    raise ValueError(f"unknown formula selector {which!r}; have {_FORMULAS}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# three-voter configurations and the strong order


@lru_cache(maxsize=None)
def three_voter_pattern_set(tau: Permutation, sigma: Permutation) -> tuple[PairPattern, ...]:
    """The six pair patterns whose strong containment in [pi, rho]
    characterizes containment of the 3-voter configuration (id, tau, sigma)
    in the 3-voter election (id, pi, rho).  Duplicates are removed, and the
    rest are sorted by their components' values.
    """
    if len(tau) != len(sigma):
        raise ValueError(f"length mismatch: {len(tau)} vs {len(sigma)}")
    tau_inv = tau.inverse()
    sigma_inv = sigma.inverse()
    tau_inv_sigma = compose(tau_inv, sigma)
    sigma_inv_tau = compose(sigma_inv, tau)
    pairs = (
        (tau, sigma),
        (sigma, tau),
        (tau_inv, tau_inv_sigma),
        (tau_inv_sigma, tau_inv),
        (sigma_inv, sigma_inv_tau),
        (sigma_inv_tau, sigma_inv),
    )
    # deduped on the components' values, so only the distinct patterns are built
    distinct = {(first.values, second.values): (first, second) for first, second in pairs}
    return tuple(PairPattern(*distinct[key]) for key in sorted(distinct))


@lru_cache(maxsize=None)
def _pattern_components(tau: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[tuple, tuple]:
    # the first components of the pattern set, and its second components
    pats = three_voter_pattern_set(Permutation(tau), Permutation(sigma))
    return tuple(q.first.values for q in pats), tuple(q.second.values for q in pats)


def contains_3voter(pi: Permutation, rho: Permutation, tau: Permutation, sigma: Permutation) -> bool:
    """Containment of the 3-voter configuration (id, tau, sigma) in the
    3-voter election (id, pi, rho), decided through the strong order: one
    signature per host component, looked up for every pattern of the set.
    A configuration larger than the election is not contained, unless it
    is past the kernels' 32-entry cap, which refuses it."""
    pv, rv, k = pi.values, rho.values, len(tau.values)
    if len(pv) != len(rv):
        raise ValueError(f"election lengths differ: {len(pv)} vs {len(rv)}")
    firsts, seconds = _pattern_components(tau.values, sigma.values)
    if not 0 < math.comb(len(pv), k) <= kernels.MAX_SUBSETS:
        return any(map(kernels._strong_lookup, repeat(pv), repeat(rv), firsts, seconds))
    first, second = kernels.strong_signature(pv, k), kernels.strong_signature(rv, k)
    return any(map(and_, map(first.get, firsts, repeat(0)), map(second.get, seconds, repeat(0))))


def count_avoiding_pairs(m: int, tau: Permutation, sigma: Permutation) -> CountReport:
    """Number of pairs (V2, V3) such that the 3-voter election (id, V2, V3)
    avoids the configuration (id, tau, sigma), counted through the strong order."""
    count = count_pair_avoiders(m, three_voter_pattern_set(tau, sigma))
    label = f"avoiding-pairs[{tau.to_line()} | {sigma.to_line()}]"
    return CountReport(m, 3, label, count, "brute-force")


def upper_bound_3config(m: int, n: int, pi_set: Iterable[PairPattern], max_m: int = DEFAULT_MAX_M) -> int:
    """m! times |S_m(pi_set)| to the power C(n-1, 2), exactly.

    At n <= 2 the exponent is zero and the pair count is not evaluated at
    all.  A bound wider than :data:`MAX_COUNT_BITS` is refused by
    :func:`check_width` before the factorial or the power is computed.
    The value is exact, but as a bound it is loose.  When |S_m(pi_set)|
    exceeds m!, as it does for the single-crossing patterns at every m >= 2,
    the value exceeds the trivial bound (m!)^n from n = 4 on: at m = 3, n = 4
    it is 279,936, while 6^4 = 1,296.
    """
    if m < 1:
        raise ValueError("need at least one candidate")
    if n < 1:
        raise ValueError("need at least one voter")
    exponent = math.comb(n - 1, 2)
    base = count_pair_avoiders(m, pi_set, max_m=max_m) if exponent else 1
    check_width(m, n, exponent * (base.bit_length() - 1), "the bound")
    return math.factorial(m) * base**exponent


def single_crossing_pair_patterns() -> tuple[PairPattern, ...]:
    """The six pair patterns every single-crossing election must avoid:
    those of its forbidden 3-voter configuration (id, 1432, 2431)."""
    return three_voter_pattern_set(Permutation((1, 4, 3, 2)), Permutation((2, 4, 3, 1)))
