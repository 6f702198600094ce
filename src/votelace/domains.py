"""Recognizers for the restricted election domains, one per formulation.

Each restriction the package knows about is implemented in every formulation
available for it (direct definition, forbidden configurations, recursive
characterization, ...), so the formulations can be tested against each other.
Recognizers are exponential-time by design: subset exhaustion at desk
scale, guarded by a hard cap.

Every recognizer carries two attributes, and its callers read nothing else:
a per-ranking ``signature(order)`` and ``rule(m)``, the test over the voters'
signatures for m candidates.  No domain's verdict depends on which voter
holds which ranking.  Five domains fold over their voters: the signature
is one int, and ``rule(m)`` is a :class:`votelace.perms.FoldRule` that ORs
all voters but the last and tests the last signature against a mask of
the OR; the verdict is a property of the OR of all the signatures, so the
order of the voters does not matter.  For the other three it is a
:class:`votelace.perms.MultisetRule`, which runs a combine on the sorted
tuple; the witness searches call the combine itself.
The recognizer checks the cap, runs ``rule(m)`` on its voters' signatures
and, when that fails, returns a verdict with a lazy witness; exhaustive
counting and the verification suites compute the m! signatures once and
build no election, and a count tests each multiset of distinct signatures
once, as :func:`votelace.perms.count_accepted` describes.  Per-ranking masks that
cost more than a lookup, the packed signatures among them, are cached on
the ranking, and each fold rule once per number of candidates.

* medium, em, group-separable-bh, enriched and single-peaked share one
  signature layout, each deciding its domain by forbidden configurations:
  three triple fields of C(m,3) bits (empty for em), then two pair fields
  of slots * C(m,4) bits (none for medium).  One loop over the triples and
  one over the 4-subsets build every signature from per-order tables.  Bit
  i of triple field k is set when the table picks the k-th member of triple
  i: its middle for medium, its last for single-peaked.  Per 4-subset, the
  first pair field marks the slot of the order the ranking gives it, and
  the second the slots it conflicts with.  em has 6 slots, one per pair of
  members: the first field marks the ranking's {top, bottom}, the second
  its middle pair.  group-separable-bh has 24, one per order of the subset:
  the second field marks the orders that would form 2413/3142 with the
  ranking's (one 24x24 table, built at import).  single-peaked has 12, one
  per (third, last) pair of members: the second field marks those with the
  same third and another last, which is Ballester and Haeringer's
  alpha-configuration, and its triple fields are worst-restriction.
  enriched is the medium fields, then em's.  An election fails iff some
  triple is set in the OR of all three triple fields, or the OR of the
  first pair field meets the OR of the second; so the OR fold of a prefix
  forbids a triple field wherever the other two are set, and each pair
  field wherever the other is set.  enriched is medium-restriction plus the
  em condition, which is pairwise avoidance of the four enriched patterns;
* group-separable (direct): the signature is the ranking up to reversal,
  m!/2 of them; per subset size, one segment per subset holds the
  bipartitions a ranking keeps apart, and the AND over the voters leaves a
  segment empty exactly for a subset no split serves;
* enriched-recursive: the signature is the ranking up to reversal, which
  the domain is closed under; the combine is the recursive characterization;
* single-crossing: one bit per candidate pair, set when the ranking puts the
  smaller candidate first; the election holds iff the XORs of the voters'
  bits with a voter farthest (most bits apart) from the first voter form a
  chain under inclusion.

A failing verdict carries a witness naming voters (1-based) and candidates
whose induced sub-election still violates the domain condition; witnesses are
read in a fixed scan order when first asked for, so bulk counting only pays
for the verdict.  Witness searches read the signatures the verdict computed.
Single-peaked, single-crossing and enriched-recursive shrink the election
greedily, and each trial decides a sub-election without building one.
Forbidden configurations are hereditary: dropping a candidate only drops
the configurations that contain it.  So single-peaked and single-crossing
rerun their rule on those signatures with the bits of every triple,
4-subset or pair that holds a dropped candidate cleared; enriched-recursive
runs its rule on the kept rankings, relabeled as a sub-election relabels
them.  Only :func:`replay_witness` builds sub-elections.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce, wraps
from itertools import combinations, permutations, product
from math import comb
from operator import or_
from typing import Callable, Optional, Sequence

from votelace.elections import Election, _pair_perm_values, _rank_vector, _restricted, sub_election
from votelace.errors import GuardExceeded
from votelace.perms import FoldRule, Frozen, MultisetRule, Permutation, occurrences

MAX_CANDIDATES = 8
MAX_VOTERS = 6

#: pairwise voter patterns forbidden in group-separable elections
GROUP_SEPARABLE_FORBIDDEN = (Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2)))

#: pairwise voter patterns forbidden in enriched group-separable elections;
#: closed under inversion, counted by OEIS A006012
ENRICHED_FORBIDDEN = (
    Permutation((2, 1, 4, 3)),
    Permutation((2, 4, 1, 3)),
    Permutation((3, 1, 4, 2)),
    Permutation((3, 4, 1, 2)),
)

#: the four 2-voter, 4-candidate configurations whose avoidance (on top of
#: medium-restriction) defines the enriched domain
ENRICHED_FORBIDDEN_CONFIGURATIONS = (
    Election.from_rows([(1, 2, 3, 4), (2, 1, 4, 3)]),
    Election.from_rows([(1, 2, 3, 4), (2, 4, 1, 3)]),
    Election.from_rows([(1, 3, 2, 4), (2, 1, 4, 3)]),
    Election.from_rows([(1, 3, 2, 4), (2, 4, 1, 3)]),
)

class Witness(Frozen):
    """Voters and candidates of a sub-election violating a domain condition."""

    __slots__ = _fields = ("voters", "candidates")
    voters: tuple[int, ...]
    candidates: tuple[int, ...]

    def __init__(self, voters: tuple[int, ...], candidates: tuple[int, ...]):
        object.__setattr__(self, "voters", voters)
        object.__setattr__(self, "candidates", candidates)


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


def _recognizer(signature: Callable, rule: Callable[[int], Callable[..., bool]]):
    """Decorator turning a witness finder into the recognizer whose verdict is
    ``rule(m)`` on the voters' signatures, where ``m`` is the number of
    candidates.

    The decorated function maps an election the test rejects and the tuple
    of signatures the test read to its witness, when the witness is first
    read.  The test takes an iterable of signatures in voter order.
    """

    def build(find_witness: Callable[[Election, tuple], Witness]) -> Callable[[Election], DomainVerdict]:
        @wraps(find_witness, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def recognize(e: Election) -> DomainVerdict:
            check_cap(e.num_candidates, e.num_voters)
            sigs = tuple(map(signature, e.preferences))
            if rule(e.num_candidates)(sigs):
                return DomainVerdict(True)
            return DomainVerdict(False, finder=lambda: find_witness(e, sigs))

        recognize.signature = signature
        recognize.rule = rule
        return recognize

    return build


@lru_cache(maxsize=None)
def _subsets(m: int, size: int) -> tuple[tuple[int, ...], ...]:
    # the candidate subsets of this size, in the order the signatures index them
    return tuple(combinations(range(1, m + 1), size))


# ---------------------------------------------------------------------------
# the signature layout the OR-fold domains share, and medium restriction


#: the relative ranks a ranking gives a triple's (a 4-subset's) members,
#: smallest candidate first, indexed by the order code that _triple_bits
#: (_quad_bits) computes: the lexicographic rank of that tuple
_TRIPLE_ORDERS = tuple(permutations(range(3)))
_QUAD_ORDERS = tuple(permutations(range(4)))


def _triple_bits(order: tuple[int, ...], field_of: Sequence[int]) -> int:
    """The three triple fields of a signature: bit k * C(m,3) + i when the
    ranking gives triple i (in _subsets order) an order o with
    ``field_of[o] == k``."""
    m = len(order)
    ranks = (0, *_rank_vector(order))  # indexed by candidate
    t = comb(m, 3)
    shifts = [k * t for k in field_of]
    sig = 0
    for i, (a, b, c) in enumerate(_subsets(m, 3)):
        ra, rb, rc = ranks[a], ranks[b], ranks[c]
        sig |= 1 << (shifts[2 * ((rb < ra) + (rc < ra)) + (rc < rb)] + i)
    return sig


def _quad_bits(order: tuple[int, ...], slot_of: Sequence[int], row_of: Sequence[int], slots: int) -> int:
    """The two pair fields of a signature, ``slots`` bits per 4-subset: for
    the order o the ranking gives 4-subset s (in _subsets order), bit
    ``slots * s + slot_of[o]`` of the first, and ``row_of[slot_of[o]]``
    shifted by ``slots * s`` in the second."""
    ranks = (0, *_rank_vector(order))  # indexed by candidate
    first = second = base = 0
    for a, b, c, d in _subsets(len(order), 4):
        ra, rb, rc, rd = ranks[a], ranks[b], ranks[c], ranks[d]
        slot = slot_of[6 * ((rb < ra) + (rc < ra) + (rd < ra)) + 2 * ((rc < rb) + (rd < rb)) + (rd < rc)]
        first |= 1 << (base + slot)
        second |= row_of[slot] << base
        base += slots
    return first | second << base


#: triple order -> its middle member, and its last
_MIDDLE = tuple(q.index(1) for q in _TRIPLE_ORDERS)
_BOTTOM = tuple(q.index(2) for q in _TRIPLE_ORDERS)


@lru_cache(maxsize=None)
def _medium_sig(order: tuple[int, ...]) -> int:
    # bit k * C(m,3) + i: the middle of triple i (in _subsets order) is its k-th member
    return _triple_bits(order, _MIDDLE)


def _fields(t: int, p: int, sig: int) -> tuple[int, int, int, int, int]:
    """The three triple fields of ``t`` bits and the two pair fields of ``p``
    bits that follow them in a signature, or in an OR of signatures (either
    part may be empty)."""
    full = (1 << t) - 1
    pairs = sig >> 3 * t
    return sig & full, sig >> t & full, sig >> 2 * t & full, pairs & ((1 << p) - 1), pairs >> p


def _forbid(t: int, p: int, state: int) -> int:
    """The bits a next ranking must not set, given the OR ``state`` of the
    signatures so far (laid out as :func:`_fields` reads them).  All bits
    when the voters so far already conflict.

    A triple field is forbidden on a triple where the other two are set, and
    each pair field wherever the other is set.  That is exact because a
    single ranking never conflicts with itself: it sets exactly one triple
    field per triple, and its two pair fields are disjoint (no order
    conflicts with itself).
    """
    a0, a1, a2, first, second = _fields(t, p, state)
    if a0 & a1 & a2 or first & second:
        return -1
    return (a1 & a2) | (a0 & a2) << t | (a0 & a1) << 2 * t | (second | first << p) << 3 * t


@lru_cache(maxsize=None)
def _or_rule(triples: bool, pair_slots: int, m: int) -> FoldRule:
    # the rule of a triple condition (when ``triples``) plus a pair condition
    # with ``pair_slots`` slots per 4-subset (when nonzero), for m candidates
    return FoldRule(partial(_forbid, comb(m, 3) if triples else 0, pair_slots * comb(m, 4)))


@lru_cache(maxsize=None)
def _or_touching(triples: bool, pair_slots: int, m: int) -> tuple[int, ...]:
    # per candidate c, at index c - 1: the bits of every triple and 4-subset
    # that contains it, in all five fields of the layout _or_rule decides
    t, p = comb(m, 3) if triples else 0, pair_slots * comb(m, 4)
    slots = (1 << pair_slots) - 1
    masks = [0] * m
    for i, triple in enumerate(_subsets(m, 3) if triples else ()):
        for c in triple:
            masks[c - 1] |= (1 | 1 << t | 1 << 2 * t) << i
    for s, quad in enumerate(_subsets(m, 4)):
        for c in quad:
            masks[c - 1] |= (slots | slots << p) << 3 * t + pair_slots * s
    return tuple(masks)


def _or_witness(e: Election, sigs: tuple, triples: bool, pair_slots: int, pats: tuple = ()) -> Witness:
    """The witness of a domain that ``_or_rule(triples, pair_slots)`` decides.

    The first conflicting triple, with the first voter for each middle;
    otherwise the first ordered voter pair whose first and second pair fields
    meet (a ranking's own never do), with the candidates of the first
    occurrence of the first pattern of ``pats`` in their pair permutation
    that has one, or with no ``pats`` the lowest 4-subset where they meet.
    """
    m = e.num_candidates
    t, p = comb(m, 3) if triples else 0, pair_slots * comb(m, 4)
    fields = [_fields(t, p, sig) for sig in sigs]
    any0, any1, any2, _, _ = [reduce(or_, column) for column in zip(*fields)]
    bad = any0 & any1 & any2
    if bad:
        low = (bad & -bad).bit_length() - 1
        first_voter_for = {}
        for v, f in enumerate(fields, start=1):
            first_voter_for.setdefault(next(k for k in range(3) if f[k] >> low & 1), v)
            if len(first_voter_for) == 3:
                break
        return Witness(tuple(sorted(first_voter_for.values())), _subsets(m, 3)[low])
    for (i, fi), (j, fj) in product(enumerate(fields), repeat=2):
        meet = fi[3] & fj[4]
        if meet:
            voters = tuple(sorted({i + 1, j + 1}))
            if not pats:
                return Witness(voters, _subsets(m, 4)[((meet & -meet).bit_length() - 1) // pair_slots])
            other = e.preferences[j]
            perm = Permutation(_pair_perm_values(e.preferences[i], other))
            occ = next(occ for pat in pats for occ in occurrences(pat, perm))
            return Witness(voters, tuple(sorted(other[k - 1] for k in occ)))
    raise AssertionError("witness requested for a holding election")


@_recognizer(_medium_sig, partial(_or_rule, True, 0))
def is_medium_restricted(e: Election, sigs: tuple) -> Witness:
    """No candidate triple has three voters each placing a different member in the middle."""
    return _or_witness(e, sigs, True, 0)


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


def _up_to_reversal(order: tuple[int, ...]) -> tuple[int, ...]:
    # min(order, order[::-1]), read off the ends.  A ranking and its reverse
    # keep the same bipartitions apart, and no other two rankings do; the
    # enriched domain is closed under reversing a voter
    return order if order[0] < order[-1] else order[::-1]


@_recognizer(_up_to_reversal, lambda m: MultisetRule(_group_separable_accepts))
def is_group_separable_direct(e: Election, sigs: tuple) -> Witness:
    """Every candidate subset of size >= 2 splits into two blocks that each
    voter ranks entirely above or entirely below one another."""
    size, j = _first_unsplit(sigs)
    return Witness(tuple(range(1, e.num_voters + 1)), _subsets(e.num_candidates, size)[j])


@lru_cache(maxsize=None)
def _segment_lows(m: int, size: int) -> int:
    # the lowest bit of every subset's segment in a _split_mask
    width = 1 << (size - 1)
    return sum(1 << (j * width) for j in range(len(_subsets(m, size))))


@lru_cache(maxsize=None)
def _split_table(m: int, size: int) -> dict:
    # per subset of this size (in _subsets order), keyed by its candidate
    # bitmask (bit c - 1 for candidate c): the first bit of its segment in a
    # _split_mask, and the bits each member, keyed the same way, flips in a
    # bipartition's key: bit i - 1 for its i-th smallest, all for its smallest
    width = 1 << (size - 1)
    flips = (width - 1, *(1 << i for i in range(size - 1)))
    return {
        sum(members): (j * width, dict(zip(members, flips)))
        for j, members in enumerate(combinations([1 << c for c in range(m)], size))
    }


@lru_cache(maxsize=None)
def _split_mask(order: tuple[int, ...], size: int) -> int:
    """The bipartitions of each candidate subset of this size that this
    ranking keeps apart: those cut at a proper prefix of the ranking
    restricted to the subset.

    Subset j (in _subsets order) owns the 2^(size-1) bits from j * 2^(size-1)
    on.  An unordered bipartition is keyed by the members other than the
    subset's smallest (bit i for subset[i + 1]) that share that member's
    block, so the all-ones key (an empty second block) never occurs.
    ``combinations`` yields each subset in ranking order, so a prefix grows
    one member at a time: a member other than the smallest flips its own
    bit of the key, and the smallest flips them all, since the key then
    switches from the complement of the prefix to the prefix.
    """
    table = _split_table(len(order), size)
    mask = 0
    for members in combinations([1 << c - 1 for c in order], size):
        base, flips = table[sum(members)]
        key = (1 << (size - 1)) - 1  # the empty prefix: the smallest member lies in the rest
        for member in members[:-1]:
            key ^= flips[member]
            mask |= 1 << (base + key)
    return mask


# ---------------------------------------------------------------------------
# forbidden-configuration formulations (pairwise voter permutations)


#: row o: the orders that form 2413/3142 with order o, as the pair permutation
#: of two voters on a 4-subset.  For pattern p, the other voter's k-th member
#: is the one this voter ranks p[k] - 1, so a member of rank r comes at
#: position p.index(r + 1); the pattern set is closed under inversion, so the
#: rows do not depend on which voter is the reference
_GS_CLASH_ROWS = tuple(
    sum(1 << _QUAD_ORDERS.index(tuple(p.values.index(r + 1) for r in qa)) for p in GROUP_SEPARABLE_FORBIDDEN)
    for qa in _QUAD_ORDERS
)


@lru_cache(maxsize=None)
def _bh_sig(order: tuple[int, ...]) -> int:
    # the medium fields, then two pair fields of 24 slots per 4-subset, one
    # per order: the first marks the order the ranking gives the subset, the
    # second the orders that would form 2413/3142 with it
    pairs = _quad_bits(order, range(24), _GS_CLASH_ROWS, 24)
    return _medium_sig(order) | pairs << 3 * comb(len(order), 3)


@lru_cache(maxsize=None)
def _enriched_sig(order: tuple[int, ...]) -> int:
    # the medium fields, then the em fields
    return _medium_sig(order) | _em_sig(order) << 3 * comb(len(order), 3)


@_recognizer(_bh_sig, partial(_or_rule, True, 24))
def is_group_separable_bh(e: Election, sigs: tuple) -> Witness:
    """Group-separability via medium-restriction plus the forbidden 2-voter,
    4-candidate configuration (pairwise voter permutations avoiding 2413/3142)."""
    return _or_witness(e, sigs, True, 24, GROUP_SEPARABLE_FORBIDDEN)


@_recognizer(_enriched_sig, partial(_or_rule, True, 6))
def is_enriched_group_separable(e: Election, sigs: tuple) -> Witness:
    """Group-separable and additionally avoiding the two extra 2-voter
    configurations: pairwise voter permutations avoid all four forbidden
    patterns, and the election stays medium-restricted.  Decided as medium
    plus the em condition, which is the same pairwise condition."""
    return _or_witness(e, sigs, True, 6, ENRICHED_FORBIDDEN)


# ---------------------------------------------------------------------------
# enriched domain, recursive characterization


def _recursive_accepts(orders) -> bool:
    # relabel the candidates once so that the first preference is the identity;
    # every restriction _recursive_ok makes keeps it the identity
    orders = tuple(orders)
    return _recursive_ok(tuple(map(partial(_pair_perm_values, orders[0]), orders)))


@_recognizer(_up_to_reversal, lambda m: MultisetRule(_recursive_accepts))
def is_enriched_recursive(e: Election, sigs: tuple) -> Witness:
    """Recursive characterization of the enriched domain.

    After relabeling candidates so the first preference is the identity, some
    split point k < m must sort every preference into either the identity /
    reverse-identity block or one of two branch shapes (fixed prefix or fixed
    suffix), with the restriction to the free candidates again enriched.
    """
    return _minimized_witness(e, _relabeled_trial(e, _recursive_accepts))


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


#: 4-subset order -> the slot of its {top, bottom}, one slot per pair of
#: members (in combinations order); slot 5 - p holds the members slot p does not
_EM_SLOTS = tuple(
    tuple(combinations(range(4), 2)).index(tuple(sorted((q.index(0), q.index(3))))) for q in _QUAD_ORDERS
)
_EM_ROWS = tuple(1 << 5 - slot for slot in range(6))


@lru_cache(maxsize=None)
def _em_sig(order: tuple[int, ...]) -> int:
    # two pair fields of 6 slots per 4-subset, one per pair of its members:
    # the first marks the ranking's {top, bottom} within the subset, the
    # second its middle pair
    return _quad_bits(order, _EM_SLOTS, _EM_ROWS, 6)


@_recognizer(_em_sig, partial(_or_rule, False, 6))
def em_condition(e: Election, sigs: tuple) -> Witness:
    """For every 4-subset and ordered voter pair, one voter's {top, bottom}
    differs from the other's middle pair.  Equivalent to avoiding the four
    enriched forbidden configurations (without medium-restriction)."""
    return _or_witness(e, sigs, False, 6)


# ---------------------------------------------------------------------------
# single-peaked


#: 4-subset order -> the slot of its (third, last) members, one slot per
#: ordered pair of members
_THIRD_LAST = tuple(permutations(range(4), 2))
_SP_SLOTS = tuple(_THIRD_LAST.index((q.index(2), q.index(3))) for q in _QUAD_ORDERS)

#: slot (t, l): the slots with third member t and a last member other than
#: l.  Two voters form Ballester and Haeringer's alpha-configuration on a
#: 4-subset (a > b > c for one, c > b > a for the other, and a fourth member
#: d above b for both) exactly when they rank the same member third (b) and
#: different members last (c and a)
_SP_ROWS = tuple(
    sum(1 << j for j, (third, last) in enumerate(_THIRD_LAST) if third == t and last != l) for t, l in _THIRD_LAST
)


@lru_cache(maxsize=None)
def _peak_sig(order: tuple[int, ...]) -> int:
    # the triple fields mark the member of each triple ranked last, then two
    # pair fields of 12 slots per 4-subset: the first marks the ranking's
    # (third, last) on the subset, the second those that form an
    # alpha-configuration with it.  No triple ranks either of the ranking's
    # top two last, and no 4-subset ranks them third or last, so their order
    # is read through the ranking with them in increasing order: a count
    # table computes m!/2 signatures
    if len(order) > 1 and order[0] > order[1]:
        return _peak_sig((order[1], order[0], *order[2:]))
    pairs = _quad_bits(order, _SP_SLOTS, _SP_ROWS, 12)
    return _triple_bits(order, _BOTTOM) | pairs << 3 * comb(len(order), 3)


@_recognizer(_peak_sig, partial(_or_rule, True, 12))
def is_single_peaked(e: Election, sigs: tuple) -> Witness:
    """Some candidate axis exists on which every prefix of every voter's
    ranking is an interval.  Decided by Ballester and Haeringer's forbidden
    configurations: no triple has each of its members ranked last by some
    voter (worst-restriction), and no two voters form an alpha-configuration
    on a 4-subset."""
    m = e.num_candidates
    return _minimized_witness(e, _masked_trial(sigs, _or_rule(True, 12, m), _or_touching(True, 12, m)))


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


@_recognizer(_pair_bits, lambda m: MultisetRule(_single_crossing_accepts))
def is_single_crossing(e: Election, sigs: tuple) -> Witness:
    """Some ordering of the voter tuple makes every candidate pair switch at
    most once.  Decided without trying orderings: the voters' disagreement
    sets with a voter farthest from the first one must be nested."""
    return _minimized_witness(e, _masked_trial(sigs, _single_crossing_accepts, _pair_touching(e.num_candidates)))


# ---------------------------------------------------------------------------
# generic witness minimizer


def _minimized_witness(e: Election, fails: Callable[[list, list], bool]) -> Witness:
    """Greedily shrink a failing election: try dropping each voter in turn,
    then each candidate, keeping every drop after which ``fails(voters,
    candidates)`` still holds, until a round drops nothing.

    ``fails`` decides the sub-election that the voters (1-based) and the
    candidates, both listed in increasing order, induce; it builds no
    election (see :func:`_masked_trial` and :func:`_relabeled_trial`).
    """
    voters = list(range(1, e.num_voters + 1))
    candidates = list(range(1, e.num_candidates + 1))
    changed = True
    while changed:
        changed = False
        for v in list(voters):
            if len(voters) > 1:
                trial = [x for x in voters if x != v]
                if fails(trial, candidates):
                    voters = trial
                    changed = True
        for c in list(candidates):
            if len(candidates) > 1:
                trial = [x for x in candidates if x != c]
                if fails(voters, trial):
                    candidates = trial
                    changed = True
    return Witness(tuple(voters), tuple(candidates))


def _masked_trial(sigs: tuple, test: Callable[..., bool], touching: Sequence[int]) -> Callable[[list, list], bool]:
    """Trials on the election's own signatures ``sigs``: the kept voters',
    with the bits of every candidate subset that contains a dropped candidate
    cleared (``touching[c - 1]`` holds candidate c's), under ``test``, the
    rule for all m = ``len(touching)`` candidates.

    Exact for a signature that gives every candidate triple, 4-subset or
    pair its own bits, set from the relative order of its members alone, and
    a rule that fails on some subset's bits and never on cleared ones.  A
    sub-election relabels its candidates in increasing order, so each kept
    subset carries the same bits there as here, only elsewhere in the
    layout: single-peaked fails on a triple or 4-subset whose bits conflict
    in the OR (empty bits never do), and single-crossing compares the sizes
    and inclusions of its voters' XORs, which bits cleared in every voter
    leave alone.
    """

    def fails(voters: list, candidates: list) -> bool:
        drop = reduce(or_, (mask for c, mask in enumerate(touching, start=1) if c not in candidates), 0)
        return not test(sigs[v - 1] & ~drop for v in voters)

    return fails


def _relabeled_trial(e: Election, test: Callable[..., bool]) -> Callable[[list, list], bool]:
    """Trials on the kept voters' rankings restricted to the kept candidates
    as :func:`elections.restrict` restricts them: the sub-election's own
    preferences, run through ``test``, a rule over rankings, without building
    an election or checking the cap."""

    def fails(voters: list, candidates: list) -> bool:
        return not test(_restricted([e.preferences[v - 1] for v in voters], candidates))

    return fails


@lru_cache(maxsize=None)
def _pair_touching(m: int) -> tuple[int, ...]:
    # per candidate c, at index c - 1: the bits of every pair that contains it
    # in a _pair_bits signature
    masks = [0] * m
    for t, pair in enumerate(_subsets(m, 2)):
        for c in pair:
            masks[c - 1] |= 1 << t
    return tuple(masks)


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
