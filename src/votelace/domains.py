"""Recognizers for the restricted election domains, one per formulation.

Each restriction the package knows about is implemented in every formulation
available for it (direct definition, forbidden configurations, recursive
characterization, ...), so the formulations can be tested against each other.
Recognizers are exponential-time by design: subset and axis exhaustion at
desk scale, guarded by a hard cap.

Every recognizer is a per-ranking ``signature(order)`` plus a test over the
voters' signatures, both attached to the recognizer function.  Five domains
fold over their voters: the signature is one int, and ``rule(m)`` is a
:class:`votelace.perms.FoldRule` that folds all voters but the last with one
bitwise op and tests the last signature against a mask of the fold.  The
others carry an ``accepts(sigs)`` combine.  The recognizer checks the cap,
runs the test on its voters' signatures and, when that fails, returns a
verdict with a lazy witness; exhaustive counting computes the m! signatures
once and, building no election, folds each (n-1)-voter prefix once and
decides each of its m! completions with one mask AND (a fold rule) or runs
``accepts`` on every tuple.  Per-ranking masks that cost more than a lookup,
the packed signatures among them, are cached on the ranking, and each fold
rule once per number of candidates.

* medium: three masks over the triples, one per middle-element position,
  side by side; an election fails iff the AND of their ORs is nonzero.  The
  OR fold of a prefix forbids a triple's middle position wherever the other
  two are set;
* em: {top, bottom} and middle-pair masks over (4-subset, pair) slots, side
  by side; an election fails iff the OR of the first meets the OR of the
  second, so a prefix forbids each field where the other is set;
* group-separable (direct): the signature is the ranking; per subset size,
  one segment per subset holds the bipartitions a ranking keeps apart, and
  the AND over the voters leaves a segment empty exactly for a subset no
  split serves;
* group-separable-bh: the three medium masks, then a mask with one bit per
  4-subset for the order (of 24) the ranking gives it and a mask of the orders
  that would form 2413/3142 with that order (one 24x24 table, built at
  import); an election fails iff the medium part fails or the OR of the
  first pair field meets the OR of the second;
* enriched: the three medium masks, then the em masks; medium-restriction
  plus the em condition, which is pairwise avoidance of the four enriched
  patterns;
* enriched-recursive: the signature is the ranking; the combine is the
  recursive characterization of the tuple of rankings;
* single-peaked: a mask over the m! oriented axes, indexed by lexicographic
  rank, of the 2^(m-1) axes a ranking fits, built by peeling the ranking
  from the bottom onto the two ends of the axis; an election holds iff the
  AND of the masks is nonzero, so the last mask must meet the AND of the
  others;
* single-crossing: one bit per candidate pair, set when the ranking puts the
  smaller candidate first; the election holds iff the XORs of the voters'
  bits with a voter farthest (most bits apart) from the first voter form a
  chain under inclusion.

A failing verdict carries a witness naming voters (1-based) and candidates
whose induced sub-election still violates the domain condition; witnesses are
read in a fixed scan order when first asked for, so bulk counting only pays
for the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from itertools import combinations, permutations
from math import comb, factorial
from operator import and_, or_
from typing import Callable, Optional

from votelace.elections import Election, _pair_perm_values, _rank_vector, sub_election
from votelace.errors import GuardExceeded
from votelace.perms import FoldRule, PatternSet, Permutation, occurrences

MAX_CANDIDATES = 8
MAX_VOTERS = 6

#: pairwise voter patterns forbidden in group-separable elections
GROUP_SEPARABLE_FORBIDDEN = PatternSet([Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2))])

#: pairwise voter patterns forbidden in enriched group-separable elections;
#: closed under inversion, counted by OEIS A006012
ENRICHED_FORBIDDEN = PatternSet(
    [
        Permutation((2, 4, 1, 3)),
        Permutation((3, 1, 4, 2)),
        Permutation((2, 1, 4, 3)),
        Permutation((3, 4, 1, 2)),
    ]
)

#: the four 2-voter, 4-candidate configurations whose avoidance (on top of
#: medium-restriction) defines the enriched domain
ENRICHED_FORBIDDEN_CONFIGURATIONS = (
    Election.from_rows([(1, 2, 3, 4), (2, 1, 4, 3)]),
    Election.from_rows([(1, 2, 3, 4), (2, 4, 1, 3)]),
    Election.from_rows([(1, 3, 2, 4), (2, 1, 4, 3)]),
    Election.from_rows([(1, 3, 2, 4), (2, 4, 1, 3)]),
)

_GS_PATS = tuple(p.values for p in GROUP_SEPARABLE_FORBIDDEN)
_ENRICHED_PATS = tuple(p.values for p in ENRICHED_FORBIDDEN)


@dataclass(frozen=True)
class Witness:
    """Voters and candidates of a sub-election violating a domain condition."""

    voters: tuple[int, ...]
    candidates: tuple[int, ...]


class DomainVerdict:
    """Boolean verdict plus, when false, a violating-substructure witness.

    The witness is materialized on first access: replaying it (restricting the
    election to the named voters and candidates) must reproduce the violation.
    """

    __slots__ = ("holds", "_witness", "_finder")

    def __init__(self, holds: bool, finder: Optional[Callable[[], Witness]] = None):
        if holds and finder is not None:
            raise ValueError("a holding verdict cannot carry a witness")
        if not holds and finder is None:
            raise ValueError("a failing verdict needs a witness finder")
        self.holds = holds
        self._witness = None
        self._finder = finder

    @property
    def witness(self) -> Optional[Witness]:
        if self.holds:
            return None
        if self._witness is None:
            self._witness = self._finder()
        return self._witness

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        return f"DomainVerdict(holds={self.holds})"


def format_verdict(domain: str, verdict: DomainVerdict) -> str:
    """Structured text report: domain name, boolean, witness when present."""
    lines = [f"domain: {domain}", f"holds: {'true' if verdict.holds else 'false'}"]
    if not verdict.holds:
        w = verdict.witness
        lines.append("violating voters: " + " ".join(map(str, w.voters)))
        lines.append("violating candidates: " + " ".join(map(str, w.candidates)))
    return "\n".join(lines)


def replay_witness(recognizer: Callable[[Election], DomainVerdict], e: Election, verdict: DomainVerdict) -> bool:
    """True iff the verdict's witness still violates under the same recognizer."""
    w = verdict.witness
    return not recognizer(sub_election(e, w.voters, w.candidates)).holds


def check_cap(m: int, n: int) -> None:
    """Raise GuardExceeded unless (m, n) is within the recognizers' cap."""
    if m > MAX_CANDIDATES or n > MAX_VOTERS:
        raise GuardExceeded(
            f"recognizers are capped at m <= {MAX_CANDIDATES}, n <= {MAX_VOTERS}; got (m,n)=({m},{n})"
        )


def _recognizer(
    signature: Callable,
    accepts: Optional[Callable[..., bool]] = None,
    rule: Optional[Callable[[int], FoldRule]] = None,
):
    """Decorator turning a witness finder into the recognizer whose verdict is
    ``accepts`` on the voters' signatures, or for a domain that folds over
    its voters ``rule(m).accepts``, where ``rule`` maps the number of
    candidates to its fold rule.

    The decorated function maps an election the test rejects to its
    witness; it runs when the witness is first read.  The test takes an
    iterable of signatures in voter order and may stop before consuming it.
    """

    def build(find_witness: Callable[[Election], Witness]) -> Callable[[Election], DomainVerdict]:
        @wraps(find_witness, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def recognize(e: Election) -> DomainVerdict:
            check_cap(e.num_candidates, e.num_voters)
            test = accepts or rule(e.num_candidates).accepts
            if test(map(signature, e.preferences)):
                return DomainVerdict(True)
            return DomainVerdict(False, finder=lambda: find_witness(e))

        recognize.signature = signature
        if rule is None:
            recognize.accepts = accepts
        else:
            recognize.rule = rule
        return recognize

    return build


def _order(order: tuple[int, ...]) -> tuple[int, ...]:
    # the signature of the domains that combine the rankings themselves
    return order


@lru_cache(maxsize=None)
def _subsets(m: int, size: int) -> tuple[tuple[int, ...], ...]:
    # the candidate subsets of this size, in the order the signatures index them
    return tuple(combinations(range(1, m + 1), size))


# ---------------------------------------------------------------------------
# medium restriction


@lru_cache(maxsize=None)
def _middle_masks(order: tuple[int, ...]) -> tuple[int, int, int]:
    # bit t of mask k: the middle of triple t (in _subsets order) is its k-th member
    ranks = _rank_vector(order)
    masks = [0, 0, 0]
    for t, (a, b, c) in enumerate(_subsets(len(order), 3)):
        ra, rb, rc = ranks[a - 1], ranks[b - 1], ranks[c - 1]
        if ra < rb:
            k = 1 if rb < rc else (2 if ra < rc else 0)
        else:
            k = 0 if ra < rc else (2 if rb < rc else 1)
        masks[k] |= 1 << t
    return masks[0], masks[1], masks[2]


def _medium_conflicts(tables) -> int:
    # the triples (as bits) whose middle takes all three positions over the
    # voters, from their _middle_masks
    any0 = any1 = any2 = 0
    for m0, m1, m2 in tables:
        any0 |= m0
        any1 |= m1
        any2 |= m2
    return any0 & any1 & any2


@lru_cache(maxsize=None)
def _medium_sig(order: tuple[int, ...]) -> int:
    # the three _middle_masks side by side
    t = comb(len(order), 3)
    m0, m1, m2 = _middle_masks(order)
    return m0 | m1 << t | m2 << 2 * t


def _forbid(t: int, p: int, state: int) -> int:
    """The bits a next ranking must not set, given the OR ``state`` of the
    signatures so far: three medium fields of ``t`` bits, then two pair
    fields of ``p`` bits (either part may be empty).  All bits when the
    voters so far already conflict.

    A medium field is forbidden on a triple where the other two are set, and
    each pair field wherever the other is set.  That is exact because a
    single ranking never conflicts with itself: it sets exactly one medium
    field per triple, and its two pair fields are disjoint (its ends and its
    mids are, and no order clashes with itself).
    """
    full = (1 << t) - 1
    a0, a1, a2 = state & full, (state >> t) & full, (state >> 2 * t) & full
    pairs = state >> 3 * t
    seen, clash = pairs & ((1 << p) - 1), pairs >> p
    if a0 & a1 & a2 or seen & clash:
        return -1
    return (a1 & a2) | (a0 & a2) << t | (a0 & a1) << 2 * t | (clash | seen << p) << 3 * t


@lru_cache(maxsize=None)
def _or_rule(medium: bool, pair_slots: int, m: int) -> FoldRule:
    # the rule of medium-restriction (when ``medium``) plus a pair condition
    # with ``pair_slots`` slots per 4-subset (when nonzero), for m candidates
    return FoldRule(or_, partial(_forbid, comb(m, 3) if medium else 0, pair_slots * comb(m, 4)))


def _medium_witness(e: Election) -> Witness:
    # the first conflicting triple, with the first voter for each middle
    table = [_middle_masks(r) for r in e.preferences]
    bad = _medium_conflicts(table)
    t = (bad & -bad).bit_length() - 1
    first_voter_for = {}
    for v, masks in enumerate(table, start=1):
        first_voter_for.setdefault(next(k for k in range(3) if masks[k] >> t & 1), v)
        if len(first_voter_for) == 3:
            break
    return Witness(tuple(sorted(first_voter_for.values())), _subsets(e.num_candidates, 3)[t])


@_recognizer(_medium_sig, rule=partial(_or_rule, True, 0))
def is_medium_restricted(e: Election) -> Witness:
    """No candidate triple has three voters each placing a different member in the middle."""
    return _medium_witness(e)


# ---------------------------------------------------------------------------
# group-separability, direct definition


def _first_unsplit(orders: tuple[tuple[int, ...], ...]) -> Optional[tuple[int, int]]:
    # (size, j): the first subset, in scan order, that no bipartition splits
    # for every voter.  Every 2-subset splits, so the scan starts at size 3;
    # sizes go up one at a time so that a failing election stops at the
    # first size that fails
    m = len(orders[0])
    for size in range(3, m + 1):
        common = -1
        for order in orders:
            common &= _split_mask(order, size)
        # fold each segment's bits down onto its lowest bit
        width = 1 << (size - 1)
        shift = 1
        while shift < width:
            common |= common >> shift
            shift <<= 1
        empty = _segment_lows(m, size) & ~common
        if empty:
            return size, ((empty & -empty).bit_length() - 1) >> (size - 1)
    return None


def _group_separable_accepts(orders) -> bool:
    return _first_unsplit(tuple(orders)) is None


@_recognizer(_order, _group_separable_accepts)
def is_group_separable_direct(e: Election) -> Witness:
    """Every candidate subset of size >= 2 splits into two blocks that each
    voter ranks entirely above or entirely below one another."""
    size, j = _first_unsplit(e.preferences)
    return Witness(tuple(range(1, e.num_voters + 1)), _subsets(e.num_candidates, size)[j])


@lru_cache(maxsize=None)
def _segment_lows(m: int, size: int) -> int:
    # the lowest bit of every subset's segment in a _split_mask
    width = 1 << (size - 1)
    return sum(1 << (j * width) for j in range(len(_subsets(m, size))))


@lru_cache(maxsize=None)
def _split_mask(order: tuple[int, ...], size: int) -> int:
    """The bipartitions of each candidate subset of this size that this
    ranking keeps apart: those cut at a proper prefix of the ranking
    restricted to the subset.

    Subset j (in _subsets order) owns the 2^(size-1) bits from j * 2^(size-1)
    on.  An unordered bipartition is keyed by the members other than the
    subset's smallest (bit i for subset[i + 1]) that share that member's
    block, so the all-ones key (an empty second block) never occurs.
    """
    ranks = _rank_vector(order)
    width = 1 << (size - 1)
    full = width - 1
    mask = 0
    for j, subset in enumerate(_subsets(len(order), size)):
        r = [ranks[c - 1] for c in subset]
        by_rank = sorted(range(size), key=r.__getitem__)
        base = j * width
        prefix = 0
        pivot_in_prefix = False
        for i in by_rank[:-1]:
            if i:
                prefix |= 1 << (i - 1)
            else:
                pivot_in_prefix = True
            mask |= 1 << (base + (prefix if pivot_in_prefix else full ^ prefix))
    return mask


# ---------------------------------------------------------------------------
# forbidden-configuration formulations (pairwise voter permutations)


#: the relative ranks a ranking gives a 4-subset's members (smallest candidate
#: first), in the order the 24 slots of a subset's segment index them
_QUAD_ORDERS = tuple(permutations(range(4)))


#: row o: the orders that form 2413/3142 with order o, as the pair permutation
#: of two voters on a 4-subset.  For pattern p, the other voter's k-th member
#: is the one this voter ranks p[k] - 1, so a member of rank r comes at
#: position p.index(r + 1); the pattern set is closed under inversion, so the
#: rows do not depend on which voter is the reference
_GS_CLASH_ROWS = tuple(
    sum(1 << _QUAD_ORDERS.index(tuple(p.index(r + 1) for r in qa)) for p in _GS_PATS)
    for qa in _QUAD_ORDERS
)


@lru_cache(maxsize=None)
def _quad_masks(order: tuple[int, ...]) -> tuple[int, int]:
    # bit 24s+o of seen: the ranking gives 4-subset s (in _subsets order) order o;
    # bit 24s+o of clash: order o on subset s would form 2413/3142 with it
    ranks = _rank_vector(order)
    seen = clash = 0
    for s, (a, b, c, d) in enumerate(_subsets(len(order), 4)):
        ra, rb, rc, rd = ranks[a - 1], ranks[b - 1], ranks[c - 1], ranks[d - 1]
        o = 6 * ((rb < ra) + (rc < ra) + (rd < ra)) + 2 * ((rc < rb) + (rd < rb)) + (rd < rc)
        seen |= 1 << (24 * s + o)
        clash |= _GS_CLASH_ROWS[o] << (24 * s)
    return seen, clash


@lru_cache(maxsize=None)
def _bh_sig(order: tuple[int, ...]) -> int:
    # the medium fields, then the two _quad_masks side by side
    m = len(order)
    seen, clash = _quad_masks(order)
    return _medium_sig(order) | (seen | clash << 24 * comb(m, 4)) << 3 * comb(m, 3)


@lru_cache(maxsize=None)
def _enriched_sig(order: tuple[int, ...]) -> int:
    # the medium fields, then the em fields
    return _medium_sig(order) | _em_sig(order) << 3 * comb(len(order), 3)


def _first_bad_pair(tables: list) -> tuple[int, int]:
    # the first ordered voter pair (1-based) whose permutation contains a
    # pattern, from their pair masks (_quad_masks or _em_masks)
    n = len(tables)
    for i in range(n):
        for j in range(n):
            if i != j and tables[i][0] & tables[j][1]:
                return (i + 1, j + 1)
    raise AssertionError("pair witness requested for a clean election")


def _medium_and_pairs_witness(e: Election, pair_masks: Callable, pats: tuple) -> Witness:
    orders = e.preferences
    if _medium_conflicts(map(_middle_masks, orders)):
        return _medium_witness(e)
    i, j = _first_bad_pair(list(map(pair_masks, orders)))
    other = orders[j - 1]
    perm = Permutation(_pair_perm_values(orders[i - 1], other))
    for pat in pats:
        for occ in occurrences(Permutation(pat), perm):
            candidates = tuple(sorted(other[k - 1] for k in occ))
            return Witness(tuple(sorted((i, j))), candidates)
    raise AssertionError("pair witness requested for a clean pair")


@_recognizer(_bh_sig, rule=partial(_or_rule, True, 24))
def is_group_separable_bh(e: Election) -> Witness:
    """Group-separability via medium-restriction plus the forbidden 2-voter,
    4-candidate configuration (pairwise voter permutations avoiding 2413/3142)."""
    return _medium_and_pairs_witness(e, _quad_masks, _GS_PATS)


@_recognizer(_enriched_sig, rule=partial(_or_rule, True, 6))
def is_enriched_group_separable(e: Election) -> Witness:
    """Group-separable and additionally avoiding the two extra 2-voter
    configurations: pairwise voter permutations avoid all four forbidden
    patterns, and the election stays medium-restricted.  Decided as medium
    plus the em condition, which is the same pairwise condition."""
    return _medium_and_pairs_witness(e, _em_masks, _ENRICHED_PATS)


# ---------------------------------------------------------------------------
# enriched domain, recursive characterization


def _recursive_accepts(orders) -> bool:
    # relabel the candidates once so that the first preference is the identity;
    # every restriction _recursive_ok makes keeps it the identity
    orders = tuple(orders)
    return _recursive_ok(tuple(_pair_perm_values(orders[0], p) for p in orders))


@_recognizer(_order, _recursive_accepts)
def is_enriched_recursive(e: Election) -> Witness:
    """Recursive characterization of the enriched domain.

    After relabeling candidates so the first preference is the identity, some
    split point k < m must sort every preference into either the identity /
    reverse-identity block or one of two branch shapes (fixed prefix or fixed
    suffix), with the restriction to the free candidates again enriched.
    """
    return _minimized_witness(e, is_enriched_recursive)


@lru_cache(maxsize=1 << 17)
def _recursive_ok(normalized: tuple[tuple[int, ...], ...]) -> bool:
    # normalized[0] is the identity
    m = len(normalized[0])
    if m <= 1:
        return True
    ident = tuple(range(1, m + 1))
    rev = ident[::-1]
    moving = [p for p in normalized if p != ident and p != rev]
    for k in range(1, m):
        # high block free: preferences open with 1..k or close with k..1
        if all(p[:k] == ident[:k] or p[m - k:] == rev[m - k:] for p in moving):
            restricted = tuple(tuple(c - k for c in p if c > k) for p in normalized)
            if _recursive_ok(restricted):
                return True
        # low block free: preferences close with k+1..m or open with m..k+1
        if all(p[k:] == ident[k:] or p[: m - k] == rev[: m - k] for p in moving):
            restricted = tuple(tuple(c for c in p if c <= k) for p in normalized)
            if _recursive_ok(restricted):
                return True
    return False


# ---------------------------------------------------------------------------
# extremes-vs-middles condition


#: slot of each pair of positions within a 4-subset, keyed both ways round;
#: pair slots p and 5 - p are complementary
_QUAD_PAIRS = {
    key: p for p, (i, j) in enumerate(combinations(range(4), 2)) for key in ((i, j), (j, i))
}


@lru_cache(maxsize=None)
def _em_masks(order: tuple[int, ...]) -> tuple[int, int]:
    # bit 6s+p of ends (mids): pair p of 4-subset s (in _subsets order) is this
    # ranking's {top, bottom} (middle pair) within the subset
    ranks = _rank_vector(order)
    ends = mids = 0
    for s, (a, b, c, d) in enumerate(_subsets(len(order), 4)):
        r = (ranks[a - 1], ranks[b - 1], ranks[c - 1], ranks[d - 1])
        p = _QUAD_PAIRS[r.index(min(r)), r.index(max(r))]
        ends |= 1 << (6 * s + p)
        mids |= 1 << (6 * s + 5 - p)
    return ends, mids


@lru_cache(maxsize=None)
def _em_sig(order: tuple[int, ...]) -> int:
    # the two _em_masks side by side
    ends, mids = _em_masks(order)
    return ends | mids << 6 * comb(len(order), 4)


@_recognizer(_em_sig, rule=partial(_or_rule, False, 6))
def em_condition(e: Election) -> Witness:
    """For every 4-subset and ordered voter pair, one voter's {top, bottom}
    differs from the other's middle pair.  Equivalent to avoiding the four
    enriched forbidden configurations (without medium-restriction)."""
    # the first (gamma, delta, 4-subset) in scan order whose ends and mids meet
    tables = [_em_masks(r) for r in e.preferences]
    for gamma, (ends, _) in enumerate(tables):
        for delta, (_, mids) in enumerate(tables):
            bad = ends & mids
            if bad:
                s = ((bad & -bad).bit_length() - 1) // 6
                return Witness(tuple(sorted({gamma + 1, delta + 1})), _subsets(e.num_candidates, 4)[s])
    raise AssertionError("em witness requested for a holding election")


# ---------------------------------------------------------------------------
# single-peaked


@lru_cache(maxsize=None)
def _peak_mask(order: tuple[int, ...]) -> int:
    # bit r: the oriented axis of lexicographic rank r among the orderings of
    # the candidates fits the ranking (every prefix of the ranking is an
    # interval on it).  Those axes are built by peeling the ranking from the
    # bottom, each candidate taking the next free position at the left or
    # the right end of the axis, and the top one the last position: 2^(m-1)
    # of them, each unoriented axis both ways round.  The rank adds up on
    # the way: the candidate at position i adds (m-1-i)! times the smaller
    # candidates not left of it, which are the smaller ones not yet placed
    # on the left for a left placement and the smaller ones already placed
    # on the right for a right placement
    m = len(order)
    weights = [factorial(k) for k in range(m)]
    partial_axes = [(0, 0, 0)]  # (rank so far, left-placed bits, right-placed bits), bit c per candidate c
    for c in order[:0:-1]:
        smaller = (1 << c) - 1
        grown = []
        for rank, left, right in partial_axes:
            grown.append((rank + (c - 1 - (left & smaller).bit_count()) * weights[m - 1 - left.bit_count()],
                          left | 1 << c, right))
            grown.append((rank + (right & smaller).bit_count() * weights[right.bit_count()], left, right | 1 << c))
        partial_axes = grown
    smaller = (1 << order[0]) - 1
    mask = 0
    for rank, left, right in partial_axes:
        mask |= 1 << (rank + (right & smaller).bit_count() * weights[m - 1 - left.bit_count()])
    return mask


def _axes_all_fit(state: int) -> int:
    # the AND fold of the peak masks so far: the last voter's must meet it
    return state


@lru_cache(maxsize=None)
def _single_peaked_rule(m: int) -> FoldRule:
    return FoldRule(and_, _axes_all_fit)


@_recognizer(_peak_mask, rule=_single_peaked_rule)
def is_single_peaked(e: Election) -> Witness:
    """Some candidate axis exists on which every prefix of every voter's
    ranking is an interval.  Exhaustive over the 2^(m-1) axes each ranking fits."""
    return _minimized_witness(e, is_single_peaked)


# ---------------------------------------------------------------------------
# single-crossing


@lru_cache(maxsize=None)
def _pair_bits(order: tuple[int, ...]) -> int:
    # bit t: the ranking puts the smaller candidate of pair t (in _subsets order) first
    ranks = _rank_vector(order)
    bits = 0
    for t, (a, b) in enumerate(_subsets(len(order), 2)):
        if ranks[a - 1] < ranks[b - 1]:
            bits |= 1 << t
    return bits


def _single_crossing_accepts(sigs) -> bool:
    # the election is single-crossing iff its disagreement sets with a voter
    # farthest from the first voter, ordered by size, are nested.  Along a
    # valid voter ordering the disagreement of two voters is the disjoint
    # union of the flips between them, so such a voter ranks like an end of
    # the line, and the sets seen from an end grow along it; conversely,
    # nested sets ordered by size flip every pair at most once
    sigs = tuple(sigs)
    if len(sigs) <= 2:
        return True
    first = far = sigs[0]
    most = 0
    for s in sigs:
        d = (s ^ first).bit_count()
        if d > most:
            far, most = s, d
    inner = 0
    for d in sorted([s ^ far for s in sigs], key=int.bit_count):
        if inner & ~d:
            return False
        inner = d
    return True


@_recognizer(_pair_bits, _single_crossing_accepts)
def is_single_crossing(e: Election) -> Witness:
    """Some ordering of the voter tuple makes every candidate pair switch at
    most once.  Decided without trying orderings: the voters' disagreement
    sets with a voter farthest from the first one must be nested."""
    return _minimized_witness(e, is_single_crossing)


# ---------------------------------------------------------------------------
# generic witness minimizer


def _minimized_witness(e: Election, recognizer) -> Witness:
    """Greedily shrink the election while the recognizer still rejects it."""
    voters = list(range(1, e.num_voters + 1))
    candidates = list(range(1, e.num_candidates + 1))
    changed = True
    while changed:
        changed = False
        for v in list(voters):
            if len(voters) > 1:
                trial = [x for x in voters if x != v]
                if not recognizer(sub_election(e, trial, candidates)).holds:
                    voters = trial
                    changed = True
        for c in list(candidates):
            if len(candidates) > 1:
                trial = [x for x in candidates if x != c]
                if not recognizer(sub_election(e, voters, trial)).holds:
                    candidates = trial
                    changed = True
    return Witness(tuple(voters), tuple(candidates))


#: recognizers by their command-line names
DOMAINS: dict[str, Callable[[Election], DomainVerdict]] = {
    "medium": is_medium_restricted,
    "group-separable": is_group_separable_direct,
    "group-separable-bh": is_group_separable_bh,
    "enriched": is_enriched_group_separable,
    "enriched-recursive": is_enriched_recursive,
    "em": em_condition,
    "single-peaked": is_single_peaked,
    "single-crossing": is_single_crossing,
}
