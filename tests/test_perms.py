import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import perm, symmetric_group
from votelace.domains import ENRICHED_FORBIDDEN
from votelace.enumeration import reduced_enriched_count
from votelace.errors import GuardExceeded, ParseError
from votelace.perms import (
    Permutation,
    compose,
    contains_pattern,
    count_avoiders,
    identity,
    occurrences,
)


class TestConstruction:
    def test_identity(self):
        assert identity(0).values == ()
        assert identity(1).values == (1,)
        assert identity(3).values == (1, 2, 3)

    def test_rejects_non_permutations(self):
        for bad in [(1, 1), (2, 3), (0, 1)]:
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_negative_identity_length(self):
        with pytest.raises(ValueError):
            identity(-1)


class TestGroupOps:
    def test_reverse(self):
        assert perm("1234").reverse() == perm("4321")
        assert perm("2413").reverse() == perm("3142")
        assert Permutation(()).reverse() == Permutation(())

    def test_inverse(self):
        assert perm("2413").inverse() == perm("3142")
        assert perm("2143").inverse() == perm("2143")
        assert identity(5).inverse() == identity(5)

    def test_compose(self):
        q = perm("231")
        assert compose(q.inverse(), q) == identity(3)
        assert compose(perm("21"), perm("12")) == perm("21")
        assert compose(perm("312"), perm("231")) == perm("123")

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            compose(perm("12"), perm("123"))

    def test_inverse_is_involutive_and_cancels(self):
        # exhaustive over S_n for n <= 6
        for n in range(7):
            for p in symmetric_group(n):
                assert p.inverse().inverse() == p
                assert compose(p, p.inverse()) == identity(n)
                assert compose(p.inverse(), p) == identity(n)


class TestContainment:
    def test_long_host_example(self):
        host = perm("526143")
        assert contains_pattern(perm("312"), host)
        assert not contains_pattern(perm("123"), host)
        assert contains_pattern(Permutation(()), host)

    def test_self_containment_and_length(self):
        for p in symmetric_group(4):
            assert contains_pattern(p, p)
        assert not contains_pattern(perm("123"), perm("12"))

    def test_occurrence_stream_examples(self):
        occ = list(occurrences(perm("312"), perm("526143")))
        assert (1, 4, 5) in occ  # picks the values 5, 1, 3
        assert list(occurrences(perm("123"), perm("526143"))) == []
        assert list(occurrences(perm("1"), perm("21"))) == [(1,), (2,)]
        assert list(occurrences(Permutation(()), perm("21"))) == [()]

    def test_occurrences_iff_contains(self):
        for pat in symmetric_group(3):
            for host in symmetric_group(4):
                assert bool(list(occurrences(pat, host))) == contains_pattern(pat, host)

    def test_containment_transfers_to_inverses(self):
        # exhaustive tau in S_3, pi in S_5
        for tau in symmetric_group(3):
            for pi in symmetric_group(5):
                assert contains_pattern(tau, pi) == contains_pattern(tau.inverse(), pi.inverse())

    def test_transitive_on_sampled_triples(self):
        for small in symmetric_group(2):
            for mid in symmetric_group(3):
                if not contains_pattern(small, mid):
                    continue
                for big in symmetric_group(5):
                    if contains_pattern(mid, big):
                        assert contains_pattern(small, big)

    def test_matches_subset_enumeration_oracle(self):
        # independent route: filter raw index subsets by order-isomorphism
        from itertools import combinations

        def standardize(seq):
            order = sorted(seq)
            return tuple(order.index(v) + 1 for v in seq)

        for pat in symmetric_group(3):
            for host in symmetric_group(5):
                subsets = [
                    combo
                    for combo in combinations(range(5), 3)
                    if standardize([host.values[i] for i in combo]) == pat.values
                ]
                assert contains_pattern(pat, host) == bool(subsets)
                assert list(occurrences(pat, host)) == [
                    tuple(i + 1 for i in combo) for combo in subsets
                ]


class TestCountAvoiders:
    def test_known_counts(self):
        assert count_avoiders(4, ENRICHED_FORBIDDEN) == 20
        assert count_avoiders(5, ENRICHED_FORBIDDEN) == 68
        assert count_avoiders(3, [perm("12")]) == 1
        # a repeated pattern changes nothing
        assert count_avoiders(4, ENRICHED_FORBIDDEN * 2) == 20

    def test_matches_recurrence(self):
        # the 2-voter reduced enriched recurrence 4f(n-1) - 2f(n-2)
        # reproduces exhaustion for n = 0..7
        expected = [1, 1, 2, 6, 20, 68, 232, 792]
        got = [count_avoiders(n, ENRICHED_FORBIDDEN) for n in range(8)]
        assert got == expected
        assert [reduced_enriched_count(n, 2) for n in range(8)] == expected

    def test_guard(self):
        # the default cap refuses before enumerating; a raised cap opts in,
        # shown at a size that enumerates instantly
        with pytest.raises(GuardExceeded):
            count_avoiders(10, ENRICHED_FORBIDDEN)
        with pytest.raises(GuardExceeded):
            count_avoiders(4, [perm("12")], max_n=3)
        assert count_avoiders(4, [perm("12")], max_n=4) == 1

    def test_negative_length(self):
        # refused as identity(-1) is, not counted as the one empty permutation
        with pytest.raises(ValueError):
            count_avoiders(-1, ENRICHED_FORBIDDEN)


class TestSerialization:
    def test_lines(self):
        assert perm("2413").to_line() == "2 4 1 3"
        assert Permutation.from_line("2 4 1 3") == perm("2413")
        assert Permutation.from_line("   ") == Permutation(())
        assert Permutation(()).to_line() == ""

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Permutation.from_line("1 2 x")
        with pytest.raises(ParseError):
            Permutation.from_line("1 1 2")

    @given(st.permutations(list(range(1, 8))))
    def test_round_trip(self, values):
        p = Permutation(tuple(values))
        assert Permutation.from_line(p.to_line()) == p
