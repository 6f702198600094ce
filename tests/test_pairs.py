import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import perm, symmetric_group
from votelace.errors import GuardExceeded, ParseError
from votelace.pairs import (
    PairPattern,
    count_pair_avoiders,
    inversion_set,
    strong_contains,
    strong_occurrences,
    weak_bruhat_le,
)
from votelace.perms import Permutation, contains_pattern, identity


def pp(a: str, b: str) -> PairPattern:
    return PairPattern(perm(a), perm(b))


class TestStrongContains:
    def test_shared_value_set_examples(self):
        small = pp("213", "132")
        assert strong_contains(small, pp("614235", "126534"))
        assert not strong_contains(small, pp("614235", "152436"))

    def test_singleton_pattern(self):
        one = pp("1", "1")
        for a in symmetric_group(3):
            for b in symmetric_group(3):
                assert strong_contains(one, PairPattern(a, b))

    def test_witness_value_sets(self):
        got = list(strong_occurrences(pp("213", "132"), pp("614235", "126534")))
        assert got == [frozenset({2, 4, 5})]
        assert list(strong_occurrences(pp("213", "132"), pp("614235", "152436"))) == []
        assert list(strong_occurrences(pp("12", "12"), pp("12", "12"))) == [frozenset({1, 2})]

    def test_occurrences_iff_contains(self):
        smalls = [PairPattern(a, b) for a in symmetric_group(2) for b in symmetric_group(2)]
        for small in smalls:
            for a in symmetric_group(3):
                for b in symmetric_group(3):
                    big = PairPattern(a, b)
                    assert bool(list(strong_occurrences(small, big))) == strong_contains(small, big)

    def test_refuses_past_the_input_cap_as_its_stream_does(self):
        # pair patterns are checked when built, but not against the 32-entry
        # cap: a pattern or host past it is refused by both, even where the
        # pattern is longer than the host
        long, short = tuple(range(1, 34)), pp("12", "21")
        wide, crossed = PairPattern.of(long, long), PairPattern.of(long, long[::-1])
        for small, big in [(wide, short), (short, crossed), (wide, crossed)]:
            for route in (lambda: strong_contains(small, big), lambda: list(strong_occurrences(small, big))):
                with pytest.raises(ValueError, match="kernel input longer than 32"):
                    route()

    def test_matches_value_subset_oracle(self):
        # independent route: project every value subset onto both hosts and
        # standardize by position order
        from itertools import combinations

        def projection(host, values):
            picked = [(i, v) for i, v in enumerate(host.values) if v in values]
            by_value = sorted(v for _, v in picked)
            return tuple(by_value.index(v) + 1 for _, v in picked)

        smalls = [PairPattern(a, b) for a in symmetric_group(2) for b in symmetric_group(2)]
        smalls += [pp("213", "132"), pp("123", "321")]
        for small in smalls:
            h = len(small)
            for a in symmetric_group(4):
                for b in symmetric_group(4):
                    big = PairPattern(a, b)
                    witnesses = [
                        frozenset(values)
                        for values in combinations(range(1, 5), h)
                        if projection(a, set(values)) == small.first.values
                        and projection(b, set(values)) == small.second.values
                    ]
                    assert strong_contains(small, big) == bool(witnesses)
                    assert list(strong_occurrences(small, big)) == witnesses

    def test_reflexive(self):
        for n in (0, 1, 2, 3, 4):
            for a in symmetric_group(n):
                for b in symmetric_group(n):
                    q = PairPattern(a, b)
                    assert strong_contains(q, q)

    def test_transitive_across_levels(self):
        level2 = [PairPattern(a, b) for a in symmetric_group(2) for b in symmetric_group(2)]
        level3 = [PairPattern(a, b) for a in symmetric_group(3) for b in symmetric_group(3)]
        level4 = [PairPattern(a, b) for a in symmetric_group(4) for b in symmetric_group(4)]
        lo_mid = {(s, m): strong_contains(s, m) for s in level2 for m in level3}
        for m_idx, mid in enumerate(level3):
            for big in level4:
                if not strong_contains(mid, big):
                    continue
                for small in level2:
                    if lo_mid[(small, mid)]:
                        assert strong_contains(small, big)

    def test_component_symmetry(self):
        # swapping both components of pattern and host preserves containment
        smalls = [PairPattern(a, b) for a in symmetric_group(2) for b in symmetric_group(2)]
        for small in smalls:
            for a in symmetric_group(3):
                for b in symmetric_group(3):
                    flipped_small = PairPattern(small.second, small.first)
                    assert strong_contains(small, PairPattern(a, b)) == strong_contains(
                        flipped_small, PairPattern(b, a)
                    )

    def test_strong_implies_componentwise_but_not_conversely(self):
        for small in [pp("12", "21"), pp("21", "12"), pp("12", "12")]:
            for a in symmetric_group(3):
                for b in symmetric_group(3):
                    if strong_contains(small, PairPattern(a, b)):
                        assert contains_pattern(small.first, a)
                        assert contains_pattern(small.second, b)
        # recorded witness: componentwise containment without a common value set
        small, big = pp("12", "21"), pp("132", "132")
        assert contains_pattern(small.first, big.first)
        assert contains_pattern(small.second, big.second)
        assert not strong_contains(small, big)


class TestInversions:
    def test_examples(self):
        assert inversion_set(perm("123")) == frozenset()
        assert inversion_set(perm("321")) == {(1, 2), (1, 3), (2, 3)}
        assert inversion_set(perm("2413")) == {(1, 3), (2, 3), (2, 4)}

    def test_weak_bruhat_examples(self):
        for hi in symmetric_group(4):
            assert weak_bruhat_le(identity(4), hi)
            assert weak_bruhat_le(hi, hi)
        assert not weak_bruhat_le(perm("321"), perm("312"))

    def test_weak_bruhat_length_mismatch(self):
        with pytest.raises(ValueError):
            weak_bruhat_le(perm("12"), perm("123"))
        with pytest.raises(ValueError):
            weak_bruhat_le(perm("321"), perm("12"))

    def test_weak_bruhat_is_inverse_inversion_containment(self):
        # the definition, exhaustively for m <= 5
        for m in range(6):
            group = symmetric_group(m)
            sets = {p: inversion_set(p.inverse()) for p in group}
            for lo in group:
                for hi in group:
                    assert weak_bruhat_le(lo, hi) == (sets[lo] <= sets[hi]), (lo, hi)

    def test_weak_bruhat_equivalence_small(self):
        # avoiding [12, 21] is exactly weak-order comparability (m <= 4 here;
        # the acceptance suite pushes this to m = 5)
        rising_falling = pp("12", "21")
        for m in range(1, 5):
            for pi in symmetric_group(m):
                for rho in symmetric_group(m):
                    avoids = not strong_contains(rising_falling, PairPattern(pi, rho))
                    assert avoids == weak_bruhat_le(rho, pi), (pi, rho)


@st.composite
def _weak_order_chain(draw):
    # (lo, hi) over 1..m, m <= 9, with hi reached from lo by swapping adjacent
    # ascents, each of which puts one more value pair out of order, so lo <= hi
    m = draw(st.integers(0, 9))
    lo = draw(st.permutations(range(1, m + 1)))
    hi = list(lo)
    for i in draw(st.lists(st.integers(0, max(m - 2, 0)), max_size=3 * m)):
        if i + 1 < m and hi[i] < hi[i + 1]:
            hi[i], hi[i + 1] = hi[i + 1], hi[i]
    return Permutation(tuple(lo)), Permutation(tuple(hi))


@settings(max_examples=300, deadline=None)
@given(_weak_order_chain(), st.data())
def test_weak_bruhat_is_inverse_inversion_containment_random(chain, data):
    # the definition for m <= 9: on a chain that goes up, both ways round, and
    # on an independent permutation, which is rarely comparable
    lo, hi = chain
    other = Permutation(tuple(data.draw(st.permutations(range(1, len(lo) + 1)))))
    assert weak_bruhat_le(lo, hi)
    for a, b in ((lo, hi), (hi, lo), (lo, other), (other, hi)):
        assert weak_bruhat_le(a, b) == (inversion_set(a.inverse()) <= inversion_set(b.inverse())), (a, b)


class TestCountPairAvoiders:
    def test_known_counts(self):
        wb = [pp("12", "21")]
        assert count_pair_avoiders(2, wb) == 3
        assert count_pair_avoiders(3, wb) == 17
        # a repeated pattern changes nothing
        assert count_pair_avoiders(3, wb * 2) == 17
        for m in (1, 2, 3):
            import math

            assert count_pair_avoiders(m, []) == math.factorial(m) ** 2

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            count_pair_avoiders(7, [])

    def test_jobs_do_not_change_the_count(self):
        # the pair count has no pool: --jobs is checked and ignored by the CLI
        wb = [pp("12", "21")]
        assert count_pair_avoiders(3, wb) == 17

    @pytest.mark.parametrize("m", [-1, -3])
    def test_negative_m_is_refused_by_name(self, m):
        with pytest.raises(ValueError, match=f"m must be nonnegative, got {m}"):
            count_pair_avoiders(m, [pp("12", "21")])

    @pytest.mark.parametrize("copies", [1, 2])
    def test_signature_fold_matches_the_search_on_every_pair(self, copies):
        # the packed-signature fold against a per-pair oracle on the strong
        # search, for m <= 4: pattern sets of mixed sizes, the empty pattern
        # (contained in every pair) and patterns longer than m; each set is
        # also given twice over, which must not change the count
        pattern_sets = [
            [pp("12", "21")],
            [pp("1", "1")],
            [pp("", "")],
            [pp("12", "21"), pp("", "")],
            [pp("21", "21"), pp("132", "231")],
            [pp("213", "132"), pp("2413", "3142"), pp("1", "1")],
            [pp("12", "12"), pp("321", "123"), pp("1234", "4321"), pp("12345", "12345")],
            [pp("12345", "54321")],
        ]
        for m in range(1, 5):
            group = symmetric_group(m)
            for pats in pattern_sets:
                oracle = sum(
                    all(next(strong_occurrences(q, PairPattern(pi, rho)), None) is None for q in pats)
                    for pi in group
                    for rho in group
                )
                assert count_pair_avoiders(m, pats * copies) == oracle, (m, pats)
        assert count_pair_avoiders(3, [pp("", "")] * copies) == 0


class TestSerialization:
    def test_pair_line_round_trip(self):
        q = pp("213", "132")
        assert q.to_line() == "2 1 3 | 1 3 2"
        assert PairPattern.from_line(q.to_line()) == q

    def test_pair_parse_errors(self):
        with pytest.raises(ParseError):
            PairPattern.from_line("1 2 3")
        with pytest.raises(ValueError):
            PairPattern.from_line("1 2 | 1 2 3")

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            PairPattern(perm("12"), perm("123"))
