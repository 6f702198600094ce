"""Recognizers for the restricted election domains, one per formulation.

Each restriction the package knows about is implemented in every formulation
available for it (direct definition, forbidden configurations, recursive
characterization, ...), so the formulations can be tested against each other.
Recognizers are exponential-time by design: subset and axis exhaustion at
desk scale, guarded by a hard cap.

Every recognizer is a per-ranking ``signature(order)`` plus an
``accepts(sigs)`` combine over the voters' signatures, both attached to the
recognizer function.  The recognizer checks the cap, runs ``accepts`` on its
voters' signatures and, when that fails, returns a verdict with a lazy
witness; exhaustive counting computes the m! signatures once and runs
``accepts`` on tuples of them, building no election.  Signatures that cost
more than a lookup are cached on the ranking.

* medium: three masks over the triples, one per middle-element position; an
  election fails iff the AND of their ORs is nonzero;
* em: {top, bottom} and middle-pair masks over (4-subset, pair) slots; an
  election fails iff the OR of the first meets the OR of the second;
* group-separable (direct): the signature is the ranking; per subset size,
  one segment per subset holds the bipartitions a ranking keeps apart, and
  the AND over the voters leaves a segment empty exactly for a subset no
  split serves;
* group-separable-bh, enriched: the three medium masks, then the ranking; the
  medium combine, then every unordered voter pair avoids the forbidden patterns
  (both pattern sets are closed under inversion, so a pair avoids them one
  way round iff it avoids them the other way);
* enriched-recursive: the signature is the ranking; the combine is the
  recursive characterization of the tuple of rankings;
* single-peaked: masks of the axes a ranking fits; an election holds iff
  their AND is nonzero;
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
from typing import Callable, Optional

from votelace import kernels
from votelace.elections import Election, _rank_vector, sub_election
from votelace.errors import GuardExceeded
from votelace.perms import PatternSet, Permutation

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

    def __init__(
        self,
        holds: bool,
        witness: Optional[Witness] = None,
        finder: Optional[Callable[[], Witness]] = None,
    ):
        if holds and (witness is not None or finder is not None):
            raise ValueError("a holding verdict cannot carry a witness")
        if not holds and witness is None and finder is None:
            raise ValueError("a failing verdict needs a witness or a witness finder")
        self.holds = holds
        self._witness = witness
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


def _recognizer(signature: Callable, accepts: Callable[..., bool]):
    """Decorator turning a witness finder into the recognizer whose verdict is
    ``accepts`` on the voters' signatures.

    The decorated function maps an election that ``accepts`` rejects to its
    witness; it runs when the witness is first read.  ``accepts`` takes an
    iterable of signatures in voter order and may stop before consuming it.
    """

    def build(find_witness: Callable[[Election], Witness]) -> Callable[[Election], DomainVerdict]:
        @wraps(find_witness, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def recognize(e: Election) -> DomainVerdict:
            check_cap(e.num_candidates, e.num_voters)
            if accepts(map(signature, [r.order for r in e.preferences])):
                return DomainVerdict(True)
            return DomainVerdict(False, finder=lambda: find_witness(e))

        recognize.signature = signature
        recognize.accepts = accepts
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


def _medium_conflicts(sigs) -> int:
    # the triples (as bits) whose middle takes all three positions over the
    # voters, from signatures that open with the three _middle_masks
    any0 = any1 = any2 = 0
    for s in sigs:
        any0 |= s[0]
        any1 |= s[1]
        any2 |= s[2]
    return any0 & any1 & any2


def _medium_accepts(sigs) -> bool:
    return not _medium_conflicts(sigs)


def _medium_witness(e: Election) -> Witness:
    # the first conflicting triple, with the first voter for each middle
    table = [_middle_masks(r.order) for r in e.preferences]
    bad = _medium_conflicts(table)
    t = (bad & -bad).bit_length() - 1
    first_voter_for = {}
    for v, masks in enumerate(table, start=1):
        first_voter_for.setdefault(next(k for k in range(3) if masks[k] >> t & 1), v)
        if len(first_voter_for) == 3:
            break
    return Witness(tuple(sorted(first_voter_for.values())), _subsets(e.num_candidates, 3)[t])


@_recognizer(_middle_masks, _medium_accepts)
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
    size, j = _first_unsplit(tuple(r.order for r in e.preferences))
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


@lru_cache(maxsize=1 << 17)
def _pair_avoids(ref: tuple[int, ...], other: tuple[int, ...], pats: tuple) -> bool:
    ranks = _rank_vector(ref)
    perm = tuple(ranks[c - 1] + 1 for c in other)
    return not any(kernels.contains_pattern(perm, pat) for pat in pats)


def _masks_and_order(order: tuple[int, ...]) -> tuple:
    # the three _middle_masks, then the ranking itself
    return (*_middle_masks(order), order)


def _medium_and_pairs_accepts(pats: tuple, sigs) -> bool:
    """The combine of medium-restriction plus pairwise avoidance of ``pats``,
    over ``_masks_and_order`` signatures.  ``pats`` must be closed under
    inversion: then each unordered voter pair needs one check.  Recognizers
    bind ``pats`` with ``functools.partial``, which pickles for ``--jobs``."""
    sigs = tuple(sigs)
    if _medium_conflicts(sigs):
        return False
    for a, b in combinations(sigs, 2):
        if not _pair_avoids(a[3], b[3], pats):
            return False
    return True


def _first_bad_pair(e: Election, pats: tuple) -> tuple[int, int]:
    # the first ordered voter pair (1-based) whose permutation contains a pattern
    orders = [r.order for r in e.preferences]
    n = len(orders)
    for i in range(n):
        for j in range(n):
            if i != j and not _pair_avoids(orders[i], orders[j], pats):
                return (i + 1, j + 1)
    raise AssertionError("pair witness requested for a clean election")


def _medium_and_pairs_witness(e: Election, pats: tuple) -> Witness:
    from votelace.perms import occurrences

    if _medium_conflicts([_middle_masks(r.order) for r in e.preferences]):
        return _medium_witness(e)
    i, j = _first_bad_pair(e, pats)
    other = e.preferences[j - 1]
    ranks = _rank_vector(e.preferences[i - 1].order)
    perm = Permutation(tuple(ranks[c - 1] + 1 for c in other.order))
    for pat in pats:
        for occ in occurrences(Permutation(pat), perm):
            candidates = tuple(sorted(other.order[k - 1] for k in occ))
            return Witness(tuple(sorted((i, j))), candidates)
    raise AssertionError("pair witness requested for a clean pair")


@_recognizer(_masks_and_order, partial(_medium_and_pairs_accepts, _GS_PATS))
def is_group_separable_bh(e: Election) -> Witness:
    """Group-separability via medium-restriction plus the forbidden 2-voter,
    4-candidate configuration (pairwise voter permutations avoiding 2413/3142)."""
    return _medium_and_pairs_witness(e, _GS_PATS)


@_recognizer(_masks_and_order, partial(_medium_and_pairs_accepts, _ENRICHED_PATS))
def is_enriched_group_separable(e: Election) -> Witness:
    """Group-separable and additionally avoiding the two extra 2-voter
    configurations: pairwise voter permutations avoid all four forbidden
    patterns, and the election stays medium-restricted."""
    return _medium_and_pairs_witness(e, _ENRICHED_PATS)


# ---------------------------------------------------------------------------
# enriched domain, recursive characterization


def _recursive_accepts(orders) -> bool:
    return _recursive_ok(tuple(orders))


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
def _recursive_ok(prefs: tuple[tuple[int, ...], ...]) -> bool:
    m = len(prefs[0])
    if m <= 1:
        return True
    ranks = _rank_vector(prefs[0])
    normalized = tuple(tuple(ranks[c - 1] + 1 for c in p) for p in prefs)
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


def _em_accepts(sigs) -> bool:
    any_ends = any_mids = 0
    for ends, mids in sigs:
        any_ends |= ends
        any_mids |= mids
    return not any_ends & any_mids


@_recognizer(_em_masks, _em_accepts)
def em_condition(e: Election) -> Witness:
    """For every 4-subset and ordered voter pair, one voter's {top, bottom}
    differs from the other's middle pair.  Equivalent to avoiding the four
    enriched forbidden configurations (without medium-restriction)."""
    # the first (gamma, delta, 4-subset) in scan order whose ends and mids meet
    tables = [_em_masks(r.order) for r in e.preferences]
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
def _axis_positions(m: int) -> tuple[tuple[int, ...], ...]:
    # one entry per axis (reversals identified): positions indexed by candidate-1
    if m <= 1:
        return ((0,) * max(m, 1),)
    out = []
    for axis in permutations(range(1, m + 1)):
        if axis[0] > axis[-1]:
            continue
        pos = [0] * m
        for i, c in enumerate(axis):
            pos[c - 1] = i
        out.append(tuple(pos))
    return tuple(out)


@lru_cache(maxsize=None)
def _peak_mask(order: tuple[int, ...]) -> int:
    mask = 0
    for i, pos in enumerate(_axis_positions(len(order))):
        if kernels.fits_axis(order, pos):
            mask |= 1 << i
    return mask


def _single_peaked_accepts(masks) -> bool:
    # stops at the first voter that leaves no axis, so later masks are never computed
    common = -1
    for mask in masks:
        common &= mask
        if not common:
            return False
    return True


@_recognizer(_peak_mask, _single_peaked_accepts)
def is_single_peaked(e: Election) -> Witness:
    """Some candidate axis exists on which every prefix of every voter's
    ranking is an interval.  Exhaustive over the m!/2 axes."""
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
