"""Counting in signature space agrees with recognizing every election."""

import functools
import math
import operator
import random
from itertools import permutations, product

import pytest

from helpers import or_layout, split_fields
from votelace.domains import DOMAINS, ENRICHED_FORBIDDEN, GROUP_SEPARABLE_FORBIDDEN
from votelace.domains import _bh_sig, _em_sig, _enriched_sig, _medium_sig, _peak_sig
from votelace.elections import Election, all_elections
from votelace.enumeration import brute_force_count, enriched_count
from votelace.errors import GuardExceeded
from votelace.perms import FoldRule, MultisetRule, count_accepted, verdicts

SMALL_CELLS = [
    (m, n) for m in range(1, 9) for n in range(1, 7) if math.factorial(m) ** n <= 20_000
]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_count_matches_recognizing_every_election(domain):
    recognizer = DOMAINS[domain]
    for m, n in SMALL_CELLS:
        oracle = sum(recognizer(e).holds for e in all_elections(m, n))
        assert brute_force_count(m, n, recognizer).count == oracle, (domain, m, n)


@pytest.mark.parametrize("m, n", [(2, 7), (9, 1)])
def test_recognizer_cap_is_checked_once_per_count(m, n):
    with pytest.raises(GuardExceeded):
        brute_force_count(m, n, DOMAINS["medium"])


@pytest.mark.parametrize("m, n", [(0, 2), (3, 0), (-1, 2)])
def test_empty_sizes_are_rejected(m, n):
    with pytest.raises(ValueError):
        brute_force_count(m, n, DOMAINS["medium"])


def test_plain_callable_is_rejected():
    with pytest.raises(TypeError):
        brute_force_count(3, 2, lambda e: True)


def test_a_recognizer_without_a_rule_is_rejected_by_name():
    def combine_only(e):
        return True

    combine_only.signature = tuple
    combine_only.accepts = lambda sigs: True
    with pytest.raises(TypeError, match="table and rule"):
        brute_force_count(3, 2, combine_only)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_signature_and_rule_decide_every_verdict(domain):
    # the two attributes are the whole protocol: rule(m) over the voters'
    # signatures is the recognizer's verdict
    recognizer = DOMAINS[domain]
    assert not hasattr(recognizer, "accepts")
    for m, n in [(3, 3), (4, 2)]:
        test = recognizer.rule(m)
        for e in all_elections(m, n):
            assert test(tuple(map(recognizer.signature, e.preferences))) == recognizer(e).holds, (domain, e)


def test_wrapped_recognizer_counts_the_same():
    recognizer = DOMAINS["enriched"]

    @functools.wraps(recognizer)
    def wrapped(e):
        return recognizer(e)

    assert brute_force_count(4, 2, wrapped).count == brute_force_count(4, 2, recognizer).count == 480


@pytest.mark.parametrize("patterns", [GROUP_SEPARABLE_FORBIDDEN, ENRICHED_FORBIDDEN])
def test_pairwise_pattern_sets_are_closed_under_inversion(patterns):
    # the pairwise combines check each unordered voter pair one way round only
    members = set(patterns)
    assert {p.inverse() for p in members} == members


# ---------------------------------------------------------------------------
# the domains that fold over their voters


FOLDED = ("em", "enriched", "group-separable-bh", "medium", "single-peaked")

#: every cell with (m!)^n <= 400,000 (single-peaked: m <= 6), counted by the
#: per-tuple combines before the fold rules replaced them
PINNED_COUNTS = {
    "medium": {
        **{(1, n): 1 for n in range(1, 7)},
        **{(2, n): 2**n for n in range(1, 7)},
        (3, 1): 6, (3, 2): 36, (3, 3): 168, (3, 4): 720, (3, 5): 2976, (3, 6): 12096,
        (4, 1): 24, (4, 2): 576, (4, 3): 6144, (4, 4): 55296,
        (5, 1): 120, (5, 2): 14400, (6, 1): 720, (7, 1): 5040, (8, 1): 40320,
    },
    "em": {
        **{(1, n): 1 for n in range(1, 7)},
        **{(2, n): 2**n for n in range(1, 7)},
        **{(3, n): 6**n for n in range(1, 7)},
        (4, 1): 24, (4, 2): 480, (4, 3): 8064, (4, 4): 118272,
        (5, 1): 120, (5, 2): 8160, (6, 1): 720, (7, 1): 5040, (8, 1): 40320,
    },
    "group-separable-bh": {
        **{(1, n): 1 for n in range(1, 7)},
        **{(2, n): 2**n for n in range(1, 7)},
        (3, 1): 6, (3, 2): 36, (3, 3): 168, (3, 4): 720, (3, 5): 2976, (3, 6): 12096,
        (4, 1): 24, (4, 2): 528, (4, 3): 5856, (4, 4): 53952,
        (5, 1): 120, (5, 2): 10800, (6, 1): 720, (7, 1): 5040, (8, 1): 40320,
    },
    "enriched": {
        **{(1, n): 1 for n in range(1, 7)},
        **{(2, n): 2**n for n in range(1, 7)},
        (3, 1): 6, (3, 2): 36, (3, 3): 168, (3, 4): 720, (3, 5): 2976, (3, 6): 12096,
        (4, 1): 24, (4, 2): 480, (4, 3): 4992, (4, 4): 44544,
        (5, 1): 120, (5, 2): 8160, (6, 1): 720, (7, 1): 5040, (8, 1): 40320,
    },
    "single-peaked": {
        **{(1, n): 1 for n in range(1, 7)},
        **{(2, n): 2**n for n in range(1, 7)},
        (3, 1): 6, (3, 2): 36, (3, 3): 168, (3, 4): 720, (3, 5): 2976, (3, 6): 12096,
        (4, 1): 24, (4, 2): 480, (4, 3): 4992, (4, 4): 44544,
        (5, 1): 120, (5, 2): 8400, (6, 1): 720,
    },
}


def test_pins_cover_every_small_cell():
    for domain, cells in PINNED_COUNTS.items():
        top = 6 if domain == "single-peaked" else 8
        assert set(cells) == {
            (m, n) for m in range(1, top + 1) for n in range(1, 7) if math.factorial(m) ** n <= 400_000
        }, domain


@pytest.mark.parametrize("domain", FOLDED)
def test_folded_counts_match_pins(domain):
    for (m, n), want in PINNED_COUNTS[domain].items():
        report = brute_force_count(m, n, DOMAINS[domain])
        assert (report.count, report.method) == (want, "brute-force"), (domain, m, n)


@pytest.mark.parametrize("m, n, want", [(4, 4, 53_952), (5, 3, 285_600), (6, 2, 720 * 394)])
def test_direct_and_bh_group_separable_counts_agree_beyond_the_equivalence_cells(m, n, want):
    # cells past bh-equivalence's exhaustive range; at (6,2) each first ranking
    # admits 394 second rankings, the large Schroeder number
    assert brute_force_count(m, n, DOMAINS["group-separable"]).count == want
    assert brute_force_count(m, n, DOMAINS["group-separable-bh"]).count == want


# The per-tuple combines the fold rules replaced, over the packed signatures
# cut into their fields: each ORs every voter's fields and tests the result
# once.


def _or_oracle(signature, medium: bool, pair_slots: int):
    def accepts(orders) -> bool:
        widths = or_layout(len(orders[0]), medium, pair_slots)
        any0 = any1 = any2 = any_first = any_second = 0
        for sig in map(signature, orders):
            m0, m1, m2, first, second = split_fields(sig, widths)
            any0 |= m0
            any1 |= m1
            any2 |= m2
            any_first |= first
            any_second |= second
        return not any0 & any1 & any2 and not any_first & any_second

    return accepts


ORACLES = {
    "medium": _or_oracle(_medium_sig, True, 0),
    "em": _or_oracle(_em_sig, False, 6),
    "group-separable-bh": _or_oracle(_bh_sig, True, 24),
    "enriched": _or_oracle(_enriched_sig, True, 6),
    "single-peaked": _or_oracle(_peak_sig, True, 12),
}


def _rule_accepts(domain, orders) -> bool:
    recognizer = DOMAINS[domain]
    return recognizer.rule(len(orders[0]))(map(recognizer.signature, orders))


def _seeded_tuples(m: int, n: int, count: int, seed: int):
    """Half uniform tuples, half drawn from the identity, its reverse and
    rankings one adjacent swap from them, so that tuples pass as well as fail."""
    rng = random.Random(seed)
    ident = list(range(1, m + 1))
    near = [ident, ident[::-1]]
    for base in (ident, ident[::-1]):
        for i in range(m - 1):
            row = list(base)
            row[i], row[i + 1] = row[i + 1], row[i]
            near.append(row)
    for k in range(count):
        if k % 2:
            yield tuple(tuple(rng.choice(near)) for _ in range(n))
        else:
            yield tuple(tuple(rng.sample(ident, m)) for _ in range(n))


@pytest.mark.parametrize("domain", FOLDED)
def test_rule_matches_the_per_tuple_combine_on_every_three_voter_tuple(domain):
    orders = list(permutations(range(1, 5)))
    oracle = ORACLES[domain]
    verdicts = set()
    for tup in product(orders, repeat=3):
        verdict = oracle(tup)
        assert _rule_accepts(domain, tup) == verdict, tup
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("domain", FOLDED)
def test_rule_matches_the_per_tuple_combine_on_samples(domain):
    oracle = ORACLES[domain]
    for m in range(1, 9):
        verdicts = set()
        for n in range(1, 7):
            for tup in _seeded_tuples(m, n, 40, seed=1000 * m + n):
                verdict = oracle(tup)
                assert _rule_accepts(domain, tup) == verdict, tup
                verdicts.add(verdict)
        # em needs four candidates to fail, the others three
        assert verdicts == ({True, False} if m >= (4 if domain == "em" else 3) else {True}), (domain, m)


# ---------------------------------------------------------------------------
# the walk over distinct signatures, weighted by their multiplicities


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_weighted_walk_matches_the_rule_on_every_tuple(domain):
    recognizer = DOMAINS[domain]
    for m, n in SMALL_CELLS:
        rule = recognizer.rule(m)
        table = _table(recognizer.signature, m)
        oracle = sum(map(rule, product(table, repeat=n)))
        assert count_accepted(recognizer.table(m), n, rule) == oracle, (domain, m, n)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_table_lists_the_signatures_in_lexicographic_order(domain):
    # the walks read table(m), which medium and single-peaked build from
    # parts and group-separable-bh and enriched from the medium table; the
    # signatures of single elections are the reference
    recognizer = DOMAINS[domain]
    for m in range(1, 8):
        assert recognizer.table(m) == _table(recognizer.signature, m), (domain, m)


@pytest.mark.parametrize("domain", ["medium", "single-peaked"])
def test_parts_table_matches_the_signatures_at_eight_candidates(domain):
    # 2,000 seeded rankings of the 8! in the parts-built table
    recognizer = DOMAINS[domain]
    rankings = list(permutations(range(1, 9)))
    table = recognizer.table(8)
    assert len(table) == len(rankings)
    for i in random.Random(8).sample(range(len(rankings)), 2000):
        assert table[i] == recognizer.signature(rankings[i]), (domain, rankings[i])


def _table(signature, m):
    # the signatures of the permutations of 1..m, computed one by one, in
    # lexicographic order
    return [signature(values) for values in permutations(range(1, m + 1))]


def _top_bit(values):
    # m distinct signatures among the m! permutations
    return 1 << values[0]


def _top_two_parity(values):
    # two distinct signatures: whether the first value is below the second
    return 1 << (values[0] < values[1]) if len(values) > 1 else 1


def _at_most(k: int, state: int) -> int:
    # the mask of "at most k distinct signature bits in all": past k every
    # last signature is refused, at k every one the prefix lacks
    bits = bin(state).count("1")
    return -1 if bits > k else ~state if bits == k else 0


def _avoiding(low: int, state: int) -> int:
    # the mask of "no signature meets ``low``": a prefix that meets it
    # refuses every last signature
    return -1 if state & low else low


def _distinct(sigs) -> bool:
    sigs = tuple(sigs)
    return len(set(sigs)) == len(sigs)


def _rising(sigs) -> bool:
    # reads the first voter and the last: on a sorted tuple, the smallest
    # signature and the largest
    sigs = tuple(sigs)
    return sigs[0] < sigs[-1]


#: rules whose signatures collide heavily, and one whose signatures never
#: repeat, so that the weighted walk meets weights of 1 only.  Every rule is
#: voter-symmetric, as the walk requires: each fold decides a property of
#: the OR of all the signatures (at most two distinct tops, no top 1 or 2,
#: one parity), and each multiset rule runs its combine on the sorted tuple.
#: Called on an unsorted tuple, each is its own per-tuple oracle.  Only the
#: NEUTRAL ones keep their verdicts when the candidates are relabeled, as
#: ``count_accepted`` also requires; the others test its walk after the
#: fixed first voter alone
COLLIDING_RULES = {
    "or-top": (_top_bit, FoldRule(functools.partial(_at_most, 2))),
    "or-no-low-top": (_top_bit, FoldRule(functools.partial(_avoiding, 0b110))),
    "or-parity": (_top_two_parity, FoldRule(functools.partial(_at_most, 1))),
    "distinct-tops": (_top_bit, MultisetRule(_distinct)),
    "rising-parity": (_top_two_parity, MultisetRule(_rising)),
    "distinct-rankings": (tuple, MultisetRule(_distinct)),
}
NEUTRAL = ("distinct-rankings", "distinct-tops", "or-top")


@pytest.mark.parametrize("name", sorted(COLLIDING_RULES))
def test_shares_of_colliding_rules_sum_to_the_solo_count(name):
    # the walk counts the n - 1 voters after a first one fixed to one
    # permutation of the least signature, times m!; so, neutral or not, the
    # count over m! times that signature's weight counts every tuple whose
    # first voter holds it
    signature, rule = COLLIDING_RULES[name]
    verdicts = set()
    for m in (2, 3, 4):
        table = _table(signature, m)
        least = min(table)
        for n in range(1, 5):
            if m == 4 and n == 4:
                continue
            oracle = [rule(tup) for tup in product(table, repeat=n)]
            verdicts.update(oracle)
            count = count_accepted(table, n, rule)
            if name in NEUTRAL:
                assert count == sum(oracle), (name, m, n)
            first = sum(rule(tup) for tup in product(table, repeat=n) if tup[0] == least)
            assert count * table.count(least) == math.factorial(m) * first, (name, m, n)
    assert verdicts == {True, False}, name


def _refuse_pools(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


def test_colliding_rule_counts_the_same_through_the_worker_pool(monkeypatch):
    # the count once split over a worker pool now runs in process, and
    # starts none; the three voters' tops take at most two values:
    # 4^3 - 4 * 3 * 2 = 40 of the 64 top triples
    _refuse_pools(monkeypatch)
    signature, rule = COLLIDING_RULES["or-top"]
    assert count_accepted(_table(signature, 4), 3, rule) == 24**3 * 5 // 8


def test_colliding_combine_counts_the_same_through_the_worker_pool(monkeypatch):
    # in process, with pools refused: the three voters' tops, or their
    # rankings, differ
    _refuse_pools(monkeypatch)
    for name, want in [("distinct-tops", 24**3 * 3 // 8), ("distinct-rankings", 24 * 23 * 22)]:
        signature, rule = COLLIDING_RULES[name]
        assert count_accepted(_table(signature, 4), 3, rule) == want, name


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("rule", [FoldRule(operator.pos), MultisetRule(_distinct)], ids=["fold", "multiset"])
def test_walks_refuse_elections_without_voters(n, rule):
    with pytest.raises(ValueError, match="at least one voter"):
        count_accepted(_table(_top_bit, 3), n, rule)
    with pytest.raises(ValueError, match="at least one voter"):
        verdicts(_table(_top_bit, 3), n, rule)


def test_walks_refuse_a_plain_combine():
    with pytest.raises(TypeError, match="FoldRule or a MultisetRule"):
        count_accepted(_table(tuple, 3), 2, _distinct)
    with pytest.raises(TypeError, match="FoldRule or a MultisetRule"):
        verdicts(_table(tuple, 3), 2, _distinct)


# ---------------------------------------------------------------------------
# every domain reads the voters as a multiset

MULTISET_DOMAINS = ("enriched-recursive", "group-separable", "single-crossing")


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_combine_gives_a_tuple_the_verdict_of_its_sorted_tuple(domain):
    # the walk's precondition, on every tuple of distinct signatures:
    # sorting the voters changes no verdict.  A multiset rule is checked
    # through its raw combine, which the witness searches call; a fold
    # through the rule itself, which folds the voters in the order given
    recognizer = DOMAINS[domain]
    seen = set()
    for m, n in [(3, 3), (3, 4), (4, 3), (5, 2), (3, 5)]:
        rule = recognizer.rule(m)
        assert isinstance(rule, MultisetRule if domain in MULTISET_DOMAINS else FoldRule)
        verdict_of = rule.combine if domain in MULTISET_DOMAINS else rule
        sigs = sorted({recognizer.signature(order) for order in permutations(range(1, m + 1))})
        for tup in product(sigs, repeat=n):
            verdict = verdict_of(tup)
            assert verdict_of(tuple(sorted(tup))) == verdict, (domain, tup)
            seen.add(verdict)
    assert seen == {True, False}, domain


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_relabeling_the_candidates_keeps_every_verdict(domain):
    # the count fixes the first voter, which is exact only for a neutral
    # domain.  A transposition and an m-cycle generate S_m, so a verdict
    # that both keep, every relabeling keeps
    recognizer = DOMAINS[domain]
    seen = set()
    for m, n in SMALL_CELLS:
        if m < 2:
            continue
        rule = recognizer.rule(m)
        relabelings = [(2, 1, *range(3, m + 1)), (*range(2, m + 1), 1)]
        for e in all_elections(m, n):
            verdict = recognizer(e).holds
            seen.add(verdict)
            for sigma in relabelings:
                relabeled = [tuple(sigma[c - 1] for c in order) for order in e.preferences]
                assert rule(map(recognizer.signature, relabeled)) == verdict, (domain, e, sigma)
                assert recognizer(Election(m, relabeled)).holds == verdict, (domain, e, sigma)
    assert seen == {True, False}, domain


@pytest.mark.parametrize("domain", MULTISET_DOMAINS)
def test_walks_run_the_combine_once_per_multiset(domain):
    # C(k + n - 1, n) multisets of n among k distinct signatures, where an
    # ordered walk would take k ** n tuples; the count fixes the first voter
    # and takes the C(k + n - 2, n - 1) multisets of the other n - 1
    recognizer = DOMAINS[domain]
    for m, n in [(3, 3), (4, 2), (4, 3)]:
        combine = recognizer.rule(m).combine
        calls = []
        counted = MultisetRule(lambda sigs: calls.append(sigs) or combine(sigs))
        k = len({recognizer.signature(order) for order in permutations(range(1, m + 1))})
        want = brute_force_count(m, n, recognizer).count
        assert count_accepted(recognizer.table(m), n, counted) == want, (domain, m, n)
        assert len(calls) == len(set(calls)) == math.comb(k + n - 2, n - 1), (domain, m, n)
        calls.clear()
        assert sum(verdicts(recognizer.table(m), n, counted)) == want, (domain, m, n)
        assert len(calls) == len(set(calls)) == math.comb(k + n - 1, n), (domain, m, n)


@pytest.mark.parametrize("domain", FOLDED)
def test_walk_runs_the_mask_once_per_sorted_prefix(domain):
    # with the first voter fixed, C(k + n - 3, n - 2) sorted (n-2)-prefixes
    # of k distinct signatures, where an ordered walk would fold k ** (n - 1)
    # prefixes
    recognizer = DOMAINS[domain]
    for m, n in [(3, 3), (4, 2), (4, 3), (3, 4)]:
        mask = recognizer.rule(m).mask
        states = []
        counted = FoldRule(lambda state: states.append(state) or mask(state))
        k = len({recognizer.signature(order) for order in permutations(range(1, m + 1))})
        want = brute_force_count(m, n, recognizer).count
        assert count_accepted(recognizer.table(m), n, counted) == want, (domain, m, n)
        assert len(states) == math.comb(k + n - 3, n - 2), (domain, m, n)


@pytest.mark.parametrize(
    "domain, m, n, want",
    [
        ("enriched-recursive", 5, 3, 186_240),
        ("enriched-recursive", 4, 4, 44_544),
        ("single-crossing", 4, 4, 105_264),
        ("single-crossing", 5, 3, 640_560),
    ],
)
def test_multiset_walk_counts_cells_past_the_small_ones(domain, m, n, want):
    # enriched-recursive against the recurrence; the single-crossing values
    # are those of the walk over ordered signature tuples
    if domain == "enriched-recursive":
        assert enriched_count(m, n) == want
    assert brute_force_count(m, n, DOMAINS[domain]).count == want


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_signature_runs_once_per_permutation_and_share(domain):
    # a count reads its recognizer's table once, in process, and the table
    # holds one signature per permutation: ``counted.table`` is a closure,
    # and its calls are recorded in this process only
    recognizer = DOMAINS[domain]
    calls = []

    @functools.wraps(recognizer)
    def counted(e):
        return recognizer(e)

    counted.table = lambda m: calls.append(m) or recognizer.table(m)
    for m, n in [(1, 3), (3, 1), (3, 3), (4, 2)]:
        want = brute_force_count(m, n, recognizer).count
        calls.clear()
        assert brute_force_count(m, n, counted).count == want, (domain, m, n)
        assert calls == [m], (domain, m, n)
        assert len(recognizer.table(m)) == math.factorial(m), (domain, m, n)


# ---------------------------------------------------------------------------
# the per-tuple verdict walk

WALK_CELLS = [(m, n) for m in range(1, 9) for n in range(1, 7) if math.factorial(m) ** n <= 15_000]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_verdict_walk_matches_recognizing_every_election(domain):
    recognizer = DOMAINS[domain]
    for m, n in WALK_CELLS:
        walk = verdicts(recognizer.table(m), n, recognizer.rule(m))
        assert list(walk) == [recognizer(e).holds for e in all_elections(m, n)], (domain, m, n)


@pytest.mark.parametrize("name", ["or-no-low-top"])
def test_verdict_walk_starts_the_fold_from_its_initial_state(name):
    # at n = 1 the mask of the empty fold, 0b110, decides: tops 1 and 2 are rejected
    signature, rule = COLLIDING_RULES[name]
    for m, n in WALK_CELLS:
        oracle = [rule(tuple(map(signature, e.preferences))) for e in all_elections(m, n)]
        assert list(verdicts(_table(signature, m), n, rule)) == oracle, (name, m, n)
    assert list(verdicts(_table(signature, 4), 1, rule)) == [False] * 12 + [True] * 12
