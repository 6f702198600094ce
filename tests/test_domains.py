import ast
import inspect
import math
import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from helpers import election, or_layout, split_fields
from votelace import domains, kernels
from votelace.domains import (
    DOMAINS,
    ENRICHED_FORBIDDEN,
    GROUP_SEPARABLE_FORBIDDEN,
    DomainVerdict,
    Witness,
    em_condition,
    format_verdict,
    is_enriched_group_separable,
    is_enriched_recursive,
    is_group_separable_bh,
    is_group_separable_direct,
    is_medium_restricted,
    is_single_crossing,
    is_single_peaked,
    replay_witness,
)
from votelace.domains import _bh_sig, _em_sig, _enriched_sig, _fields, _medium_sig, _pair_bits, _peak_sig
from votelace.domains import _masked_trial, _or_rule, _or_touching, _pair_touching, _recursive_accepts, _relabeled_trial
from votelace.domains import _single_crossing_accepts
from votelace.domains import _ends, _first_unsplit, _separable
from votelace.domains import _BOTTOM, _QUAD_ORDERS, _SP_ROWS, _SP_SLOTS, _quad_bits, _triple_bits
from votelace.elections import Election, _rank_vector, all_elections, sub_election
from votelace.errors import GuardExceeded
from votelace.perms import Permutation


def _positions(axis):
    # axis positions indexed by candidate - 1, the form kernels.fits_axis reads
    pos = [0] * len(axis)
    for i, c in enumerate(axis):
        pos[c - 1] = i
    return tuple(pos)


class TestMediumRestricted:
    def test_unanimous(self):
        assert is_medium_restricted(election("1234", "1234", "1234")).holds

    def test_rotating_middles(self):
        v = is_medium_restricted(election("123", "231", "312"))
        assert not v.holds
        assert v.witness == Witness((1, 2, 3), (1, 2, 3))

    def test_two_voters_always_hold(self):
        for e in all_elections(3, 2):
            assert is_medium_restricted(e).holds


class TestGroupSeparableDirect:
    def test_single_voter(self):
        for e in all_elections(4, 1):
            assert is_group_separable_direct(e).holds

    def test_forbidden_pair(self):
        assert not is_group_separable_direct(election("1234", "2413")).holds

    def test_reversed_pair(self):
        assert is_group_separable_direct(election("1234", "4321")).holds

    def test_split_mask_matches_the_sorting_definition(self):
        for m in range(1, 7):
            for order in permutations(range(1, m + 1)):
                for members in range(1 << m):
                    assert _ends(order, members) == _ends_by_sorting(order, members), (order, members)

    def test_a_ranking_and_its_reverse_keep_the_same_bipartitions_apart(self):
        for m in range(1, 7):
            for order in permutations(range(1, m + 1)):
                for members in range(1 << m):
                    assert _ends(order, members) == _ends(order[::-1], members), (order, members)

    def test_signature_is_the_ranking_up_to_reversal(self):
        # m!/2 signatures, and the ends of the whole candidate set tell
        # exactly that many rankings apart, so the direct signature merges no
        # rankings the rule could tell apart; the recursive rule gives a
        # ranking and its reverse the same verdict (TestEnrichedRecursive)
        for m in range(3, 7):
            orders = list(permutations(range(1, m + 1)))
            ends = {_ends(order, (1 << m) - 1) for order in orders}
            for signature in (is_group_separable_direct.signature, is_enriched_recursive.signature):
                assert all(signature(order) == min(order, order[::-1]) for order in orders), m
                assert len(set(map(signature, orders))) == len(ends) == math.factorial(m) // 2, m

    def test_recursive_split_matches_the_literal_scan(self):
        # the verdict's recursion on one block fails exactly when the scan of
        # every subset finds one that no block splits
        def agree(orders):
            holds = _separable(orders, (1 << len(orders[0])) - 1)
            assert holds == (_first_unsplit(orders) is None), orders
            return holds

        cells = [(m, n) for m in range(1, 6) for n in range(1, 4)] + [(6, 2)]
        for m, n in cells:
            signatures = sorted({min(o, o[::-1]) for o in permutations(range(1, m + 1))})
            for orders in combinations_with_replacement(signatures, n):
                agree(orders)
        rng = random.Random(8)
        outcomes = set()
        for _ in range(2000):
            base = rng.sample(range(1, 9), 8)
            orders = []
            for _ in range(rng.randint(2, 6)):
                order = list(base)
                for _ in range(rng.randint(0, 3)):
                    i = rng.randrange(7)
                    order[i], order[i + 1] = order[i + 1], order[i]
                orders.append(tuple(order))
            outcomes.add(agree(tuple(orders)))
        assert outcomes == {True, False}


def _ends_by_sorting(order, members):
    """_ends by its definition: sort the members by rank and take every
    prefix, and its complement, as one bit per candidate set."""
    ranks = _rank_vector(order)
    by_rank = sorted((c for c in range(1, len(order) + 1) if members >> c - 1 & 1), key=lambda c: ranks[c - 1])
    sets = set()
    for k in range(len(by_rank) + 1):
        prefix = sum(1 << c - 1 for c in by_rank[:k])
        sets |= {prefix, members ^ prefix}
    return sum(1 << s for s in sets)


class TestGroupSeparableBH:
    def test_forbidden_pair_witness(self):
        v = is_group_separable_bh(election("1234", "2413"))
        assert not v.holds
        assert v.witness == Witness((1, 2), (1, 2, 3, 4))

    def test_agrees_with_direct_on_three_voters(self):
        e = election("123", "321", "213")
        assert is_group_separable_bh(e).holds == is_group_separable_direct(e).holds


class TestEnriched:
    def test_interleaved_swap_pair(self):
        v = is_enriched_group_separable(election("1234", "2143"))
        assert not v.holds
        assert v.witness.candidates == (1, 2, 3, 4)

    def test_unanimous(self):
        assert is_enriched_group_separable(election("123", "123", "123")).holds

    def test_full_reversal(self):
        assert is_enriched_group_separable(election("12345", "54321")).holds


def _quad_masks(order):
    # group-separable-bh's two pair fields (seen, clash), cut from its signature
    return tuple(split_fields(_bh_sig(order), or_layout(len(order), True, 24))[3:])


def _em_masks(order):
    # em's two pair fields (ends, mids), cut from its signature
    return tuple(split_fields(_em_sig(order), or_layout(len(order), False, 6))[3:])


class TestPairMasks:
    """The pair field clashes that decide group-separable-bh and enriched,
    held to pattern search on the pair permutation."""

    @pytest.mark.parametrize(
        "masks, pats", [(_quad_masks, GROUP_SEPARABLE_FORBIDDEN), (_em_masks, ENRICHED_FORBIDDEN)]
    )
    def test_clash_is_pattern_containment(self, masks, pats):
        for m in range(1, 6):
            orders = list(permutations(range(1, m + 1)))
            for a in orders:
                ranks = {c: i + 1 for i, c in enumerate(a)}
                first = masks(a)[0]
                for b in orders:
                    perm = tuple(ranks[c] for c in b)
                    expected = any(kernels.contains_pattern(perm, p.values) for p in pats)
                    assert bool(first & masks(b)[1]) == expected, (a, b)

    def test_ends_meeting_mids_is_an_enriched_pattern(self):
        for a in permutations(range(1, 5)):
            for b in permutations(range(1, 5)):
                perm = Permutation(tuple(a.index(c) + 1 for c in b))
                assert ({a[0], a[3]} == {b[1], b[2]}) == (perm in ENRICHED_FORBIDDEN), (a, b)


class TestSignatureLayout:
    """What the fold rule's ``_forbid`` relies on, read through ``_fields``:
    one ranking never conflicts with itself."""

    def test_medium_fields_partition_the_triples(self):
        for m in range(1, 8):
            t = math.comb(m, 3)
            for order in permutations(range(1, m + 1)):
                m0, m1, m2, _, _ = _fields(t, 0, _medium_sig(order))
                assert not (m0 & m1 or m0 & m2 or m1 & m2), order
                assert m0 | m1 | m2 == (1 << t) - 1, order

    @pytest.mark.parametrize(
        "signature, medium, slots",
        [(_em_sig, False, 6), (_bh_sig, True, 24), (_enriched_sig, True, 6), (_peak_sig, True, 12)],
    )
    def test_pair_fields_are_disjoint(self, signature, medium, slots):
        for m in range(1, 8):
            t, p = math.comb(m, 3) if medium else 0, slots * math.comb(m, 4)
            for order in permutations(range(1, m + 1)):
                _, _, _, first, second = _fields(t, p, signature(order))
                assert not first & second, order
                assert first.bit_count() == math.comb(m, 4), order


class TestEnrichedRecursive:
    def test_identity_and_reverse_block_only(self):
        assert is_enriched_recursive(election("123", "321")).holds

    def test_split_after_common_prefix(self):
        assert is_enriched_recursive(election("1234", "1243")).holds

    def test_rejects_interleaved_swap(self):
        assert not is_enriched_recursive(election("1234", "2143")).holds

    def test_agrees_with_configuration_form(self):
        for m, n in [(3, 3), (4, 2)]:
            for e in all_elections(m, n):
                assert (
                    is_enriched_recursive(e).holds
                    == is_enriched_group_separable(e).holds
                )

    def test_reversing_one_voter_keeps_the_verdict(self):
        # the fact that lets the signature read rankings up to reversal,
        # checked on the raw rankings: 70,920 comparisons
        for m, n in [(3, 3), (4, 3), (5, 2)]:
            for orders in product(permutations(range(1, m + 1)), repeat=n):
                verdict = _recursive_accepts(orders)
                for i in range(n):
                    flipped = (*orders[:i], orders[i][::-1], *orders[i + 1 :])
                    assert _recursive_accepts(flipped) == verdict, (orders, i)


class TestEmCondition:
    def test_forbidden_pair(self):
        v = em_condition(election("1234", "2413"))
        assert not v.holds
        assert v.witness == Witness((1, 2), (1, 2, 3, 4))

    def test_single_voter_never_violates(self):
        for e in all_elections(4, 1):
            assert em_condition(e).holds

    def test_small_candidate_sets_vacuous(self):
        for e in all_elections(3, 2):
            assert em_condition(e).holds


class TestSinglePeaked:
    def test_tiny_elections(self):
        for e in all_elections(2, 2):
            assert is_single_peaked(e).holds

    def test_axis_fit_matches_interval_oracle(self):
        # independent route: each preference prefix must be a contiguous run
        # of axis positions
        def oracle(order, axis_pos):
            for k in range(1, len(order) + 1):
                positions = sorted(axis_pos[c - 1] for c in order[:k])
                if positions != list(range(positions[0], positions[0] + k)):
                    return False
            return True

        axes = [_positions(a) for a in permutations(range(1, 6))]
        for order in permutations(range(1, 6)):
            for axis_pos in axes[:40]:
                assert kernels.fits_axis(order, axis_pos) == oracle(order, axis_pos)

    def test_verdict_is_the_axis_definition(self):
        # some axis fits every voter's ranking; the fits are tabled once per
        # candidate count, and the seeded elections read kernels.fits_axis
        def holds(e, axes, fits):
            return any(all(fits(order, pos) for order in e.preferences) for pos in axes)

        for m, n in [(1, 2), (2, 3), (3, 3), (4, 3), (5, 2)]:
            axes = [_positions(a) for a in permutations(range(1, m + 1))]
            table = {
                order: [kernels.fits_axis(order, pos) for pos in axes] for order in permutations(range(1, m + 1))
            }
            index = range(len(axes))
            for e in all_elections(m, n):
                assert is_single_peaked(e).holds == holds(e, index, lambda order, i: table[order][i]), e
        rng = random.Random(16)
        seen = set()
        for m, count in [(6, 40), (7, 20), (8, 8)]:
            axes = [_positions(a) for a in permutations(range(1, m + 1))]
            for k in range(count):
                base = list(range(1, m + 1))
                rng.shuffle(base)
                rows = []
                for _ in range(rng.randint(2, 6)):
                    row = list(base)
                    if k % 2:
                        rng.shuffle(row)
                    for _ in range(rng.randint(0, 2)):
                        i = rng.randrange(m - 1)
                        row[i], row[i + 1] = row[i + 1], row[i]
                    rows.append(tuple(row))
                e = Election.from_rows(rows)
                verdict = holds(e, axes, kernels.fits_axis)
                assert is_single_peaked(e).holds == verdict, rows
                seen.add(verdict)
        assert seen == {True, False}

    def test_alpha_configuration_is_same_third_other_last(self):
        # Ballester and Haeringer's alpha-configuration of voters i and j on
        # a 4-subset, for some labeling a, b, c, d of its members:
        # a >_i b >_i c, c >_j b >_j a, d >_i b and d >_j b.  Orders are
        # read as the ranks (0 best) they give the members
        def alpha(ri, rj):
            return any(
                ri[a] < ri[b] < ri[c] and rj[c] < rj[b] < rj[a] and ri[d] < ri[b] and rj[d] < rj[b]
                for a, b, c, d in permutations(range(4))
            )

        for o, qi in enumerate(_QUAD_ORDERS):
            for p, qj in enumerate(_QUAD_ORDERS):
                clash = qi.index(2) == qj.index(2) and qi.index(3) != qj.index(3)
                assert (alpha(qi, qj) or alpha(qj, qi)) == clash, (qi, qj)
                assert (_SP_ROWS[_SP_SLOTS[o]] >> _SP_SLOTS[p] & 1 == 1) == clash, (qi, qj)

    def test_triple_fields_mark_the_member_ranked_last(self):
        for m in range(3, 7):
            t, p = math.comb(m, 3), 12 * math.comb(m, 4)
            for order in permutations(range(1, m + 1)):
                fields = _fields(t, p, _peak_sig(order))[:3]
                for i, triple in enumerate(combinations(range(1, m + 1), 3)):
                    last = max(triple, key=order.index)
                    assert [f >> i & 1 for f in fields] == [int(c == last) for c in triple], (order, triple)

    def test_signature_ignores_the_order_of_the_top_two(self):
        # neither of a ranking's top two is last in a triple or third or last
        # in a 4-subset, so swapping them changes no bit the layout sets, and
        # _peak_sig tells exactly m!/2 rankings apart
        for m in range(2, 8):
            t = math.comb(m, 3)
            orders = list(permutations(range(1, m + 1)))
            for order in orders:
                swapped = (order[1], order[0], *order[2:])
                triples, pairs = _triple_bits(order, _BOTTOM), _quad_bits(order, _SP_SLOTS, _SP_ROWS, 12)
                assert (triples, pairs) == (
                    _triple_bits(swapped, _BOTTOM),
                    _quad_bits(swapped, _SP_SLOTS, _SP_ROWS, 12),
                ), order
                assert _peak_sig(order) == triples | pairs << 3 * t, order
            assert len(set(map(_peak_sig, orders))) == math.factorial(m) // 2, m

    def test_axis_exists(self):
        assert is_single_peaked(election("2134", "3421")).holds

    def test_no_axis(self):
        # three voters each putting a different candidate last
        assert not is_single_peaked(election("123", "231", "312")).holds


class TestSingleCrossing:
    def test_one_or_two_voters(self):
        for e in all_elections(3, 1):
            assert is_single_crossing(e).holds
        for e in all_elections(3, 2):
            assert is_single_crossing(e).holds

    def test_reorderable(self):
        assert is_single_crossing(election("123", "231", "123")).holds

    def test_condorcet_cycle_is_not_single_crossing(self):
        assert not is_single_crossing(election("123", "231", "312")).holds

    def test_agrees_with_the_ordering_search_exhaustively(self):
        cells = [(m, n) for m in range(2, 6) for n in range(1, 7) if math.factorial(m) ** n <= 20_000]
        for m, n in cells:
            for e in all_elections(m, n):
                assert is_single_crossing(e).holds == _orderable(e), e.to_text()

    def test_agrees_with_the_ordering_search_on_samples(self):
        rng = random.Random(20130704)
        for m, n in product(range(2, 9), range(1, 7)):
            seen = set()
            for _ in range(60):
                e = _near_single_crossing(rng, m, n)
                expected = _orderable(e)
                assert is_single_crossing(e).holds == expected, e.to_text()
                seen.add(expected)
            assert seen == ({True, False} if min(m, n) >= 3 else {True}), (m, n)


def _orderable(e: Election) -> bool:
    """The definition, by search: some ordering of the voters flips every
    candidate pair at most once, i.e. the XORs of consecutive voters'
    ``_pair_bits`` are pairwise disjoint."""
    bits = [_pair_bits(r) for r in e.preferences]
    for line in permutations(bits):
        flipped = 0
        for a, b in zip(line, line[1:]):
            if (a ^ b) & flipped:
                break
            flipped |= a ^ b
        else:
            return True
    return False


def _near_single_crossing(rng: random.Random, m: int, n: int) -> Election:
    """Voters read off a walk of adjacent swaps that each undo no earlier swap
    (single-crossing in walk order), shuffled; half the time one voter also
    makes one arbitrary adjacent swap, which may break the property."""
    row = rng.sample(range(1, m + 1), m)
    start = {c: i for i, c in enumerate(row)}
    rows = []
    for _ in range(n):
        for _ in range(rng.randrange(3)):
            forward = [i for i in range(m - 1) if start[row[i]] < start[row[i + 1]]]
            if forward:
                i = rng.choice(forward)
                row[i], row[i + 1] = row[i + 1], row[i]
        rows.append(list(row))
    if rng.random() < 0.5:
        bent = rng.choice(rows)
        i = rng.randrange(m - 1)
        bent[i], bent[i + 1] = bent[i + 1], bent[i]
    rng.shuffle(rows)
    return Election.from_rows(rows)


def _sigs(recognizer, e):
    # the signatures the recognizer's verdict on e reads
    return tuple(map(recognizer.signature, e.preferences))


#: per minimized domain: its recognizer, and the trial its witness search
#: runs on an election
_TRIALS = {
    "single-peaked": (
        is_single_peaked,
        lambda e: _masked_trial(
            _sigs(is_single_peaked, e), _or_rule(True, 12, e.num_candidates), _or_touching(True, 12, e.num_candidates)
        ),
    ),
    "single-crossing": (
        is_single_crossing,
        lambda e: _masked_trial(_sigs(is_single_crossing, e), _single_crossing_accepts, _pair_touching(e.num_candidates)),
    ),
    "enriched-recursive": (is_enriched_recursive, lambda e: _relabeled_trial(e, _recursive_accepts)),
}


class TestWitnessTrials:
    """A minimizer trial decides the sub-election it names, as the
    recognizer does on that sub-election, without building it."""

    def test_trials_match_sub_elections_exhaustively(self):
        # a trial keeps its voters in order, so the trials on the voter
        # subsets of every election at (4,3) are the trials that keep every
        # voter of every election at (4,n), n <= 3.  The sub-election is
        # built, and the recognizers run, once per candidate subset and
        # rankings restricted to it
        subsets = [list(c) for k in range(1, 5) for c in combinations(range(1, 5), k)]
        expected = {}
        for n in range(1, 4):
            voters = list(range(1, n + 1))
            for e in all_elections(4, n):
                trials = [make(e) for _, make in _TRIALS.values()]
                for candidates in subsets:
                    kept = tuple(tuple(c for c in order if c in candidates) for order in e.preferences)
                    key = tuple(candidates), kept
                    if key not in expected:
                        sub = sub_election(e, voters, candidates)
                        expected[key] = [not recognizer(sub).holds for recognizer, _ in _TRIALS.values()]
                    got = [fails(voters, candidates) for fails in trials]
                    assert got == expected[key], (e.to_text(), candidates)
        for outcomes in zip(*expected.values()):
            assert set(outcomes) == {True, False}

    @pytest.mark.parametrize("name", sorted(_TRIALS))
    def test_trials_match_sub_elections_on_samples(self, name):
        recognizer, make = _TRIALS[name]
        rng = random.Random(1700 + len(name))
        seen = set()
        for k in range(1500):
            m, n = rng.randint(6, 8), rng.randint(2, 6)
            if k % 2:
                e = Election.from_rows([rng.sample(range(1, m + 1), m) for _ in range(n)])
            else:
                e = _near_single_crossing(rng, m, n)
            voters = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            candidates = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
            expected = not recognizer(sub_election(e, voters, candidates)).holds
            assert make(e)(voters, candidates) == expected, (e.to_text(), voters, candidates)
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("triples, slots", [(True, 12), (True, 0), (False, 6), (True, 6), (True, 24)])
    def test_or_touching_masks_hold_the_subsets_of_each_candidate(self, triples, slots):
        # every bit of the layout, placed by _fields: triple field k holds
        # one bit per triple, a pair field ``slots`` bits per 4-subset.
        # Single-peaked's (True, 12) is the layout its witness search masks
        for m in range(1, 9):
            t, p = math.comb(m, 3) if triples else 0, slots * math.comb(m, 4)
            triple_list, quads = list(combinations(range(1, m + 1), 3)), list(combinations(range(1, m + 1), 4))
            owners = []
            for bit in range(3 * t + 2 * p):
                fields = _fields(t, p, 1 << bit)
                k = next(k for k, field in enumerate(fields) if field)
                i = fields[k].bit_length() - 1
                owners.append(triple_list[i] if k < 3 else quads[i // slots])
            masks = _or_touching(triples, slots, m)
            assert len(masks) == m
            for c in range(1, m + 1):
                expected = sum(1 << bit for bit, owner in enumerate(owners) if c in owner)
                assert masks[c - 1] == expected, (triples, slots, m, c)

    def test_pair_touching_masks_hold_the_pairs_of_each_candidate(self):
        # the bit of pair {a, b} is the one two rankings flip when they
        # differ only in their order of a and b
        for m in range(1, 9):
            masks = _pair_touching(m)
            assert len(masks) == m
            for c in range(1, m + 1):
                expected = 0
                for a, b in combinations(range(1, m + 1), 2):
                    if c in (a, b):
                        rest = tuple(x for x in range(1, m + 1) if x not in (a, b))
                        expected |= _pair_bits((a, b, *rest)) ^ _pair_bits((b, a, *rest))
                assert masks[c - 1] == expected, (m, c)


class TestVerdicts:
    def test_bool_and_witness_access(self):
        v = DomainVerdict(True)
        assert v and v.witness is None
        w = Witness((1,), (1, 2))
        assert DomainVerdict(False, finder=lambda: w).witness == w

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainVerdict(False)
        with pytest.raises(ValueError):
            DomainVerdict(True, finder=lambda: Witness((1,), (1,)))

    def test_lazy_finder_runs_once(self):
        calls = []

        def finder():
            calls.append(1)
            return Witness((1,), (1,))

        v = DomainVerdict(False, finder=finder)
        assert v.witness == v.witness
        assert calls == [1]

    def test_format(self):
        text = format_verdict("enriched", is_enriched_group_separable(election("1234", "2143")))
        assert text.splitlines() == [
            "domain: enriched",
            "holds: false",
            "violating voters: 1 2",
            "violating candidates: 1 2 3 4",
        ]
        assert format_verdict("medium", DomainVerdict(True)) == "domain: medium\nholds: true"


class TestGenericProperties:
    def test_containment_chain(self):
        # enriched implies group-separable implies medium-restricted
        for m, n in [(3, 3), (4, 2)]:
            for e in all_elections(m, n):
                if is_enriched_group_separable(e).holds:
                    assert is_group_separable_direct(e).holds
                if is_group_separable_direct(e).holds:
                    assert is_medium_restricted(e).holds

    def test_witnesses_replay(self):
        for name, recognizer in DOMAINS.items():
            seen_false = 0
            for e in all_elections(3, 3):
                v = recognizer(e)
                if not v.holds:
                    seen_false += 1
                    assert replay_witness(recognizer, e, v), (name, e.to_text())
            if name != "em":  # vacuous below four candidates
                assert seen_false > 0

    def test_witnesses_replay_with_four_candidates(self):
        for name, recognizer in DOMAINS.items():
            seen_false = 0
            for e in all_elections(4, 2):
                v = recognizer(e)
                if not v.holds:
                    seen_false += 1
                    assert replay_witness(recognizer, e, v), (name, e.to_text())
            assert (seen_false > 0) == (name not in ("medium", "single-crossing"))

    def test_a_holding_verdict_has_no_witness_to_replay(self):
        e = election("123", "123")
        for recognizer in DOMAINS.values():
            v = recognizer(e)
            assert v.holds
            with pytest.raises(ValueError, match="holds"):
                replay_witness(recognizer, e, v)

    def test_size_guard(self):
        big = election("123456789")
        for recognizer in DOMAINS.values():
            with pytest.raises(GuardExceeded):
                recognizer(big)


def _calls(node) -> set:
    # the names a node's calls go through: f(...) and f.g(...) both give f
    called = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name):
                called.add(func.id)
    return called


def test_witness_trials_build_no_election():
    # sub-elections are built to replay a witness, never to search for one
    definitions = {
        node.name: node
        for node in ast.parse(inspect.getsource(domains)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    builders = {"Election", "DomainVerdict", "check_cap", "sub_election", "restrict"}
    assert {name for name, node in definitions.items() if "sub_election" in _calls(node)} == {"replay_witness"}
    for name in ("_minimized_witness", "_masked_trial", "_relabeled_trial"):
        called = _calls(definitions[name])
        assert not called & builders, (name, called)
    # nor does a witness search reach its recognizer: no call in the module
    # passes a recognizer as an argument, so none reads one's signature or
    # rule back off it
    recognizers = {recognizer.__name__ for recognizer in DOMAINS.values()}
    passed = {
        arg.id
        for call in ast.walk(ast.parse(inspect.getsource(domains)))
        if isinstance(call, ast.Call)
        for arg in (*call.args, *(keyword.value for keyword in call.keywords))
        if isinstance(arg, ast.Name)
    }
    assert not passed & recognizers


@pytest.mark.parametrize("name", ["em", "enriched", "group-separable-bh", "medium", "single-crossing", "single-peaked"])
def test_witnesses_read_the_verdicts_signatures(name):
    # a failing verdict's witness search reads the signatures the verdict
    # computed: after the verdict, no further call reaches the recognizer's
    # cached signature (hits and misses both count calls)
    recognizer = DOMAINS[name]
    e = election("15432", "13245", "45123", "12453")
    recognizer.signature.cache_clear()
    verdict = recognizer(e)
    assert not verdict.holds
    before = recognizer.signature.cache_info()
    assert before.hits + before.misses == e.num_voters
    assert verdict.witness is not None
    assert recognizer.signature.cache_info() == before, name


def test_parts_tables_run_no_per_ranking_loop(monkeypatch):
    # a medium or single-peaked table ORs parts, one per candidate and set
    # ranked below it, which every ranking shares: from cold it misses its
    # part cache at most m * 2^(m-1) times, and never runs the per-ranking
    # loops that decide a single election
    def refuse(*args):
        raise AssertionError("a table ran a per-ranking loop")

    monkeypatch.setattr(domains, "_triple_bits", refuse)
    monkeypatch.setattr(domains, "_quad_bits", refuse)
    m = 5
    for name, part in [("medium", domains._medium_part), ("single-peaked", domains._peak_part)]:
        part.cache_clear()
        assert len(DOMAINS[name].table(m)) == math.factorial(m), name
        assert 0 < part.cache_info().misses <= m * 2 ** (m - 1), name


def test_domains_do_not_import_the_kernels():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(domains))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("kernels" in name for name in imported)
