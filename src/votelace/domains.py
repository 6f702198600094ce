"""Recognizers for the restricted election domains, one per formulation.

Each restriction the package knows about is implemented in every formulation
available for it (direct definition, forbidden configurations, recursive
characterization, ...), so the formulations can be tested against each other.
Recognizers are exponential-time by design: subset exhaustion at desk
scale, guarded by a hard cap.

Every recognizer carries three attributes, and its callers read nothing
else: a per-ranking ``signature(order)``, ``table(m)``, the signatures of
the m! rankings of 1..m in lexicographic order, and ``rule(m)``, the test
over the voters' signatures for m candidates.  No domain's verdict depends
on which voter holds which ranking, and none changes when the candidates
are relabeled.  Five domains fold over their voters: the signature is one
int, and ``rule(m)`` is a :class:`votelace.perms.FoldRule` that ORs
all voters but the last and tests the last signature against a mask of
the OR; the verdict is a property of the OR of all the signatures, so the
order of the voters does not matter.  For the other three it is a
:class:`votelace.perms.MultisetRule`, which runs a combine on the sorted
tuple; the witness searches call the combine itself.
The recognizer checks the cap, runs ``rule(m)`` on its voters' signatures
and, when that fails, returns a verdict with a lazy witness.  Exhaustive
counting and the verification suites read ``table(m)`` in process and
build no election; a count fixes the first voter, tests each multiset of
the other voters' distinct signatures once and multiplies by m!, as
:func:`votelace.perms.count_accepted` describes.  A single election's
signatures come from per-ranking loops, and masks that cost more than a
lookup, the packed signatures among them, are cached on the ranking; a
table is cached nowhere, and where the layout allows it is built from
parts that all m! rankings share (see below).  Each fold rule is cached
once per number of candidates.

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
  em condition, which is pairwise avoidance of the four enriched patterns.
  In the medium and single-peaked layouts a candidate x and the set of
  candidates ranked below it fix every bit x sets: x is the middle of a
  triple when one other member is below it and one above, its last when
  both are above, and the third of a 4-subset when exactly one member is
  below it, which is then last.  So their tables OR, per ranking, one part
  per (candidate, lower set), of which there are m * 2^(m-1); the tables of
  group-separable-bh and enriched are the medium table with their pair
  fields ORed in, and the others map the signature over the rankings;
* group-separable (direct): the signature is the ranking up to reversal,
  m!/2 of them; the rule splits the candidates along a block that every
  voter ranks entirely above or entirely below the rest and recurses into
  both halves, and the witness is the first subset, smallest first, that
  has no such block;
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
from operator import and_, or_
from typing import Callable, Optional, Sequence

from votelace.elections import Election, _pair_perm_values, _rank_vector, _restricted, sub_election
from votelace.errors import GuardExceeded
from votelace.perms import FoldRule, Frozen, MultisetRule, Permutation, _pattern_search

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
    """True iff the verdict's witness still violates under the same recognizer.

    A holding verdict has no witness, and raises ``ValueError``.
    """
    if verdict.holds:
        raise ValueError("the verdict holds, so it has no witness to replay")
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
    rule: Callable[[int], Callable[..., bool]],
    table: Optional[Callable[[int], list]] = None,
):
    """Decorator turning a witness finder into the recognizer whose verdict is
    ``rule(m)`` on the voters' signatures, where ``m`` is the number of
    candidates.

    The decorated function maps an election the test rejects and the tuple
    of signatures the test read to its witness, when the witness is first
    read.  The test takes an iterable of signatures in voter order.
    ``table(m)`` is the list of the signatures of the m! rankings of 1..m in
    lexicographic order; by default ``signature`` maps them one by one.
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
        recognize.table = table or (lambda m: list(map(signature, permutations(range(1, m + 1)))))
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


def _parts_table(part: Callable[[int, int, int], int], silent: int, m: int) -> list[int]:
    """The signatures of the m! rankings of 1..m, in lexicographic order, in
    a layout where a ranking's signature is the OR, over its candidates x,
    of ``part(m, below, x)``: the bits that x and the set ``below`` of the
    candidates ranked below it fix (bit c - 1 for candidate c).  The top
    ``silent`` positions of a ranking fix no bit.

    The rankings of a candidate set are, for each member x in increasing
    order, x followed by each ranking of the rest, which x's ``below`` is.
    So the table of each subset is built once, from those of its subsets one
    smaller, and reads each part once: about e * m! ORs in all.
    """
    tables = {0: [0]}

    def table(rest: int) -> list[int]:
        if rest not in tables:
            rows = tables[rest] = []
            for x in range(1, m + 1):
                if rest >> x - 1 & 1:
                    below = rest ^ 1 << x - 1
                    if rest.bit_count() > m - silent:
                        rows += table(below)
                    else:
                        bits = part(m, below, x)
                        rows += [bits | sig for sig in table(below)]
        return tables[rest]

    return table((1 << m) - 1)


@lru_cache(maxsize=None)
def _triple_masks(m: int) -> tuple[tuple[int, ...], ...]:
    # at [x - 1][c - 1], for candidates x and c: bit k * C(m,3) + i of every
    # triple i (in _subsets order) that holds both, x its k-th member
    t = comb(m, 3)
    masks = [[0] * m for _ in range(m)]
    for i, triple in enumerate(_subsets(m, 3)):
        for (k, x), c in product(enumerate(triple), triple):
            if c != x:
                masks[x - 1][c - 1] |= 1 << k * t + i
    return tuple(map(tuple, masks))


@lru_cache(maxsize=None)
def _medium_part(m: int, below: int, x: int) -> int:
    # x is the middle of each triple with one other member below it and one
    # above: the triples of x that both sets meet
    low = high = 0
    for c, mask in enumerate(_triple_masks(m)[x - 1]):
        if below >> c & 1:
            low |= mask
        else:
            high |= mask
    return low & high


def _medium_table(m: int) -> list[int]:
    # the top of a ranking is no triple's middle
    return _parts_table(_medium_part, 1, m)


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
            values = _pair_perm_values(e.preferences[i], other)
            occ = next(occ for pat in pats for occ in _pattern_search(values, pat.values))
            return Witness(voters, tuple(sorted(other[k] for k in occ)))
    raise AssertionError("witness requested for a holding election")


@_recognizer(_medium_sig, partial(_or_rule, True, 0), _medium_table)
def is_medium_restricted(e: Election, sigs: tuple) -> Witness:
    """No candidate triple has three voters each placing a different member in the middle."""
    return _or_witness(e, sigs, True, 0)


# ---------------------------------------------------------------------------
# group-separability, direct definition


# bounded, since a key holds a candidate subset: 2^m keys per ranking.  The
# bh-equivalence suite's sampled (5,4) elections read 399 keys
@lru_cache(maxsize=1 << 10)
def _ends(order: tuple[int, ...], members: int) -> int:
    """The candidate sets (bit c - 1 for candidate c) that this ranking puts
    entirely above or entirely below the rest of ``members``: the prefixes of
    the ranking restricted to ``members`` and their complements, as one int
    with bit S set for each such set S."""
    ends = 1 | 1 << members  # the empty prefix and the whole
    prefix = 0
    for c in order:
        if members >> c - 1 & 1:
            prefix |= 1 << c - 1
            ends |= 1 << prefix | 1 << (members ^ prefix)
    return ends


def _blocks(orders: tuple[tuple[int, ...], ...], members: int) -> int:
    # the proper nonempty subsets of members (as _ends sets their bits) that
    # every voter ranks entirely above or entirely below the rest
    return reduce(and_, [_ends(order, members) for order in orders]) & ~(1 | 1 << members)


def _separable(orders: tuple[tuple[int, ...], ...], members: int) -> bool:
    # True iff every subset of members of size >= 3 has a block.  Any block
    # B will do: members passes iff B and the rest do, since subsets of a
    # passing set pass and a subset meeting both splits along them
    if members.bit_count() <= 2:
        return True
    blocks = _blocks(orders, members)
    if not blocks:
        return False
    block = (blocks & -blocks).bit_length() - 1
    return _separable(orders, block) and _separable(orders, members ^ block)


def _first_unsplit(orders: tuple[tuple[int, ...], ...]) -> Optional[tuple[int, ...]]:
    # the first candidate subset, by size and then in _subsets order, that no
    # block splits for every voter.  Every 2-subset splits
    m = len(orders[0])
    for size in range(3, m + 1):
        for subset in _subsets(m, size):
            if not _blocks(orders, sum(1 << c - 1 for c in subset)):
                return subset
    return None


def _group_separable_accepts(orders) -> bool:
    orders = tuple(orders)
    return _separable(orders, (1 << len(orders[0])) - 1)


def _up_to_reversal(order: tuple[int, ...]) -> tuple[int, ...]:
    # min(order, order[::-1]), read off its first and last entries.  A
    # ranking and its reverse put the same sets above the rest, and no other
    # two rankings do; the enriched domain is closed under reversing a voter
    return order if order[0] < order[-1] else order[::-1]


@_recognizer(_up_to_reversal, lambda m: MultisetRule(_group_separable_accepts))
def is_group_separable_direct(e: Election, sigs: tuple) -> Witness:
    """Every candidate subset of size >= 2 splits into two blocks that each
    voter ranks entirely above or entirely below one another."""
    return Witness(tuple(range(1, e.num_voters + 1)), _first_unsplit(sigs))


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


def _medium_with_pairs(m: int, slot_of: Sequence[int], row_of: Sequence[int], slots: int) -> list[int]:
    # the medium table, each signature followed by the two pair fields that
    # _quad_bits computes for its ranking
    shift = 3 * comb(m, 3)
    rankings = permutations(range(1, m + 1))
    return [sig | _quad_bits(order, slot_of, row_of, slots) << shift for sig, order in zip(_medium_table(m), rankings)]


@_recognizer(_bh_sig, partial(_or_rule, True, 24), lambda m: _medium_with_pairs(m, range(24), _GS_CLASH_ROWS, 24))
def is_group_separable_bh(e: Election, sigs: tuple) -> Witness:
    """Group-separability via medium-restriction plus the forbidden 2-voter,
    4-candidate configuration (pairwise voter permutations avoiding 2413/3142)."""
    return _or_witness(e, sigs, True, 24, GROUP_SEPARABLE_FORBIDDEN)


@_recognizer(_enriched_sig, partial(_or_rule, True, 6), lambda m: _medium_with_pairs(m, _EM_SLOTS, _EM_ROWS, 6))
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
    # alpha-configuration with it
    pairs = _quad_bits(order, _SP_SLOTS, _SP_ROWS, 12)
    return _triple_bits(order, _BOTTOM) | pairs << 3 * comb(len(order), 3)


@lru_cache(maxsize=None)
def _peak_quad_masks(m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    # at [0][x - 1][l - 1], for candidates x and l: the pair-field bits of
    # _peak_sig that each 4-subset holding both sets when x is its third
    # member and l its last; at [1][c - 1]: all 24 pair-field bits of each
    # 4-subset that holds candidate c
    t, p = comb(m, 3), 12 * comb(m, 4)
    thirds = [[0] * m for _ in range(m)]
    spans = [0] * m
    for s, quad in enumerate(_subsets(m, 4)):
        base = 3 * t + 12 * s
        for (i, x), (j, l) in permutations(enumerate(quad), 2):
            slot = _THIRD_LAST.index((i, j))
            thirds[x - 1][l - 1] |= (1 << slot | _SP_ROWS[slot] << p) << base
        for c in quad:
            spans[c - 1] |= (4095 | 4095 << p) << base
    return tuple(map(tuple, thirds)), tuple(spans)


@lru_cache(maxsize=None)
def _peak_part(m: int, below: int, x: int) -> int:
    # x is last in each triple whose other two members rank above it, and
    # third in each 4-subset with exactly one other member l below it, which
    # is then the subset's last.  ``twice`` holds the 4-subsets that meet
    # ``below`` at least twice
    thirds, spans = _peak_quad_masks(m)
    low = high = quads = once = twice = 0
    for c, (mask, third, span) in enumerate(zip(_triple_masks(m)[x - 1], thirds[x - 1], spans)):
        if below >> c & 1:
            low |= mask
            quads |= third
            twice |= once & span
            once |= span
        else:
            high |= mask
    return high & ~low | quads & ~twice


def _peak_table(m: int) -> list[int]:
    # no triple ranks either of a ranking's top two last, and no 4-subset
    # ranks them third
    return _parts_table(_peak_part, 2, m)


@_recognizer(_peak_sig, partial(_or_rule, True, 12), _peak_table)
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
