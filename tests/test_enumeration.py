import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from helpers import perm, symmetric_group
from votelace import enumeration, kernels
from votelace.domains import is_enriched_group_separable, is_single_peaked
from votelace.elections import Election, all_elections, contains_configuration
from votelace.enumeration import (
    CountReport,
    brute_force_count,
    contains_3voter,
    count_avoiding_pairs,
    enriched_count,
    enriched_count_formula,
    reduced_enriched_count,
    reduced_enriched_count_closed,
    single_crossing_pair_patterns,
    three_voter_pattern_set,
    upper_bound_3config,
)
from votelace.errors import GuardExceeded
from votelace.domains import ENRICHED_FORBIDDEN
from votelace.pairs import PairPattern, strong_occurrences
from votelace.perms import Permutation, count_avoiders, identity


def _decoded(line):
    # the report a JSON line prints, its count read back from the digit
    # string by Decimal (int() stops at 4,300 digits)
    raw = json.loads(line)
    assert raw["count"].isascii() and raw["count"].isdigit()
    return CountReport(raw["m"], raw["n"], raw["label"], int(Decimal(raw["count"])), raw["method"])


class TestCountReport:
    def test_json_round_trip(self):
        report = CountReport(5, 2, "enriched", 8160, "brute-force")
        line = report.to_json()
        assert json.loads(line)["count"] == "8160"
        assert _decoded(line) == report

    def test_huge_counts_survive_serialization(self):
        # 7 * 10**8999 + 12345 has 9,000 digits, past the 4,300 where str()
        # of an int stops; 2**4096 is where the conversion starts splitting
        for count in (enriched_count(40, 2), 2**4096 - 1, 2**4096, 7 * 10**8999 + 12345):
            report = CountReport(40, 2, "enriched", count, "recurrence")
            assert _decoded(report.to_json()) == report

    def test_validation(self):
        with pytest.raises(ValueError):
            CountReport(1, 1, "x", -1, "formula")
        with pytest.raises(ValueError):
            CountReport(1, 1, "x", 0, "guesswork")

    def test_count_must_be_an_int(self):
        for count in (0.0, 0.5, "0", Fraction(1)):
            with pytest.raises(TypeError):
                CountReport(3, 0, "enriched", count, "recurrence")


class TestRecurrence:
    def test_initial_conditions(self):
        for n in range(1, 9):
            assert reduced_enriched_count(0, n) == 1
            assert reduced_enriched_count(1, n) == 1

    def test_single_steps(self):
        assert reduced_enriched_count(2, 2) == 2
        assert reduced_enriched_count(5, 2) == 68
        assert [reduced_enriched_count(m, 3) for m in range(6)] == [1, 1, 4, 28, 208, 1552]

    def test_no_voters_is_refused(self):
        # 2^(n-1) is a float at n = 0, so the recurrence must not run there
        for m in (0, 1, 3, 5):
            with pytest.raises(ValueError, match="voter"):
                reduced_enriched_count(m, 0)
            with pytest.raises(ValueError, match="voter"):
                enriched_count(m, 0)
        with pytest.raises(ValueError):
            reduced_enriched_count(3, -1)

    def test_total_counts(self):
        assert enriched_count(5, 2) == 8160
        assert enriched_count(1, 7) == 1
        assert enriched_count(3, 2) == 36

    def test_two_voters_collapse_to_pattern_avoiders(self):
        for m in range(9):
            assert reduced_enriched_count(m, 2) == count_avoiders(m, ENRICHED_FORBIDDEN)


class TestClosedForm:
    def test_examples(self):
        assert reduced_enriched_count_closed(2, 2) == 2
        for n in range(1, 9):
            assert reduced_enriched_count_closed(0, n) == 1
        assert reduced_enriched_count_closed(5, 2) == 68

    def test_repeated_root_at_one_voter(self):
        for m in range(11):
            assert reduced_enriched_count_closed(m, 1) == 1

    def test_matches_recurrence_to_stated_tolerance(self):
        # exactly: the closed form is integer arithmetic in Z[sqrt D]
        for m in range(11):
            for n in range(1, 9):
                assert reduced_enriched_count_closed(m, n) == reduced_enriched_count(m, n)


class TestFormulas:
    def test_examples(self):
        assert enriched_count_formula("m3", 2) == 36
        assert enriched_count_formula("m4", 2) == 480
        assert enriched_count_formula("m5", 2) == 8160

    def test_match_recurrence(self):
        for n in range(1, 11):
            assert enriched_count_formula("m3", n) == enriched_count(3, n)
            assert enriched_count_formula("m4", n) == enriched_count(4, n)
            assert enriched_count_formula("m5", n) == enriched_count(5, n)
        for m in range(13):
            assert enriched_count_formula("n2", m) == enriched_count(m, 2)

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            enriched_count_formula("m6", 2)
        with pytest.raises(ValueError):
            enriched_count_formula("m3", 0)


class TestAvoiderRecurrence:
    def test_sequence(self):
        expected = [1, 1, 2, 6, 20, 68, 232]
        assert [reduced_enriched_count(n, 2) for n in range(7)] == expected
        assert [count_avoiders(n, ENRICHED_FORBIDDEN) for n in range(7)] == expected

    def test_generating_function_series(self):
        # coefficients of (1 - 3x) / (1 - 4x + 2x^2) by long division
        numer = [Fraction(1), Fraction(-3)]
        denom = [Fraction(1), Fraction(-4), Fraction(2)]
        coeffs = []
        carry = numer + [Fraction(0)] * 10
        for k in range(10):
            c = carry[k] / denom[0]
            coeffs.append(c)
            for i, d in enumerate(denom):
                carry[k + i] -= c * d
        assert coeffs == [Fraction(reduced_enriched_count(n, 2)) for n in range(10)]


class TestBruteForce:
    def test_tiny_counts(self):
        report = brute_force_count(2, 2, is_enriched_group_separable)
        assert report.count == 4
        assert report.method == "brute-force"
        assert report.label == "is_enriched_group_separable"

    def test_label_override_and_jobs(self):
        report = brute_force_count(3, 2, is_enriched_group_separable, label="enriched")
        assert (report.label, report.count) == ("enriched", 36)

    def test_guard(self):
        with pytest.raises(GuardExceeded) as count_refusal:
            brute_force_count(3, 2, is_enriched_group_separable, guard=10)
        # the count and the enumeration refuse through one check
        with pytest.raises(GuardExceeded) as enumeration_refusal:
            next(all_elections(3, 2, limit=10))
        assert str(count_refusal.value) == str(enumeration_refusal.value)
        assert brute_force_count(3, 2, is_enriched_group_separable, guard=36).count == 36

    def test_env_guard(self, monkeypatch):
        # only the count command reads VOTELACE_GUARD; the library takes its guard as an argument
        monkeypatch.setenv("VOTELACE_GUARD", "10")
        assert brute_force_count(3, 2, is_enriched_group_separable).count == 36
        assert sum(1 for _ in all_elections(3, 2)) == 36
        monkeypatch.setenv("VOTELACE_GUARD", "ten")
        assert brute_force_count(3, 2, is_enriched_group_separable).count == 36


class TestThreeVoterPatternSet:
    def test_identity_collapses_to_three(self):
        sigma = perm("312")
        got = three_voter_pattern_set(identity(3), sigma)
        # sorted by the components' values: 123|312, 231|231, 312|123
        expected = (
            PairPattern(identity(3), sigma),
            PairPattern(sigma.inverse(), sigma.inverse()),
            PairPattern(sigma, identity(3)),
        )
        assert got == expected

    def test_double_identity_collapses_to_one(self):
        got = three_voter_pattern_set(identity(2), identity(2))
        assert got == (PairPattern(identity(2), identity(2)),)

    def test_length_two_example(self):
        got = three_voter_pattern_set(perm("21"), perm("12"))
        expected = (
            PairPattern(perm("12"), perm("21")),
            PairPattern(perm("21"), perm("12")),
            PairPattern(perm("21"), perm("21")),
        )
        assert got == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            three_voter_pattern_set(perm("12"), perm("123"))


class TestContains3Voter:
    def test_singleton_configuration(self):
        for m in (1, 2, 3):
            one = identity(1)
            for pi in symmetric_group(m):
                for rho in symmetric_group(m):
                    assert contains_3voter(pi, rho, one, one)

    def test_unanimous_avoids_disagreement(self):
        assert not contains_3voter(identity(4), identity(4), perm("21"), perm("21"))

    def test_size_violation(self):
        # a configuration larger than the election is not contained, as in
        # the generic configuration search; only unequal election rows are refused
        assert not contains_3voter(perm("12"), perm("12"), perm("123"), perm("123"))
        assert not contains_3voter(perm("12"), perm("21"), perm("123"), perm("132"))
        with pytest.raises(ValueError):
            contains_3voter(perm("12"), perm("123"), perm("12"), perm("12"))

    def test_configuration_past_the_cap_is_refused_as_the_stream_refuses_it(self):
        # a host of 12 has no value 33-subset, so the strong search decides
        # and refuses the 33-entry patterns, as `contains --kind three-voter` does
        with pytest.raises(ValueError, match="kernel input longer than 32"):
            contains_3voter(identity(12), identity(12), identity(33), identity(33))
        assert not contains_3voter(identity(12), identity(12), identity(32), identity(32))

    def test_signature_lookups_match_the_search_per_pattern(self):
        # one signature lookup per pattern against a strong search per
        # pattern, on every pair of hosts up to m = 4 and configurations of
        # 1 to 3 candidates, larger than the host included
        smalls = [(tau, sigma) for h in (1, 2, 3) for tau in symmetric_group(h) for sigma in symmetric_group(h)]
        for m in range(1, 5):
            group = symmetric_group(m)
            for pi in group:
                for rho in group:
                    big = PairPattern(pi, rho)
                    for tau, sigma in smalls:
                        searched = any(
                            next(strong_occurrences(q, big), None) is not None
                            for q in three_voter_pattern_set(tau, sigma)
                        )
                        assert contains_3voter(pi, rho, tau, sigma) == searched, (pi, rho, tau, sigma)

    def test_hosts_past_the_signature_cap_match_generic_containment(self):
        # at m = 20 a host has C(20, 3) = 1140 > MAX_SUBSETS value 3-subsets,
        # so each pattern runs the strong search; the hosts are the identity
        # with a few adjacent swaps, so that both verdicts occur
        m = 20
        assert math.comb(m, 3) > kernels.MAX_SUBSETS
        rng = random.Random(29)
        group = symmetric_group(3)

        def near_identity():
            values = list(range(1, m + 1))
            for _ in range(rng.randint(0, 6)):
                i = rng.randrange(m - 1)
                values[i], values[i + 1] = values[i + 1], values[i]
            return Permutation(values)

        seen = set()
        for _ in range(30):
            pi, rho, tau, sigma = near_identity(), near_identity(), rng.choice(group), rng.choice(group)
            host = Election(m, (tuple(range(1, m + 1)), pi.values, rho.values))
            cfg = Election(3, ((1, 2, 3), tau.values, sigma.values))
            verdict = contains_3voter(pi, rho, tau, sigma)
            assert verdict == contains_configuration(host, cfg), (pi, rho, tau, sigma)
            seen.add(verdict)
        assert seen == {True, False}


class TestCountAvoidingPairs:
    def test_tiny_case(self):
        report = count_avoiding_pairs(2, perm("21"), perm("12"))
        assert report.count == 1
        assert report.method == "brute-force"

    def test_matches_direct_count(self):
        # pattern-set route vs generic containment, spot-checked at m = 3
        for tau in symmetric_group(2):
            for sigma in symmetric_group(2):
                cfg = Election.from_rows([(1, 2), tau.values, sigma.values])
                direct = 0
                for v2 in symmetric_group(3):
                    for v3 in symmetric_group(3):
                        e = Election.from_rows([(1, 2, 3), v2.values, v3.values])
                        if not contains_configuration(e, cfg):
                            direct += 1
                assert count_avoiding_pairs(3, tau, sigma).count == direct


class TestUpperBound:
    def test_two_voters_is_m_factorial(self):
        for m in (1, 2, 3, 4):
            assert upper_bound_3config(m, 2, single_crossing_pair_patterns()) == math.factorial(m)

    def test_empty_set(self):
        assert upper_bound_3config(3, 3, []) == 6 * 36

    def test_vacuous_patterns_at_three_candidates(self):
        assert upper_bound_3config(3, 3, single_crossing_pair_patterns()) == 216

    def test_bounds_at_their_own_width_pass_the_width_cap(self, monkeypatch):
        # the bound is refused from a lower bound of its width, which never
        # exceeds the exact width: with the cap at a bound's width, it passes
        patterns = single_crossing_pair_patterns()
        bounds = {(m, n): upper_bound_3config(m, n, patterns) for m, n in product(range(1, 6), (1, 2, 3, 4, 7, 40))}
        for (m, n), bound in bounds.items():
            monkeypatch.setattr(enumeration, "MAX_COUNT_BITS", bound.bit_length())
            assert upper_bound_3config(m, n, patterns) == bound


class TestSingleCrossingPatterns:
    def test_contents(self):
        pi_set = single_crossing_pair_patterns()
        assert len(pi_set) == 6
        assert PairPattern(perm("4231"), perm("4132")) in pi_set
        assert all(len(q) == 4 for q in pi_set)

    def test_derived_set_equals_the_literal_pairs(self):
        literal = [
            ((1, 4, 3, 2), (2, 4, 3, 1)),
            ((1, 4, 3, 2), (4, 2, 3, 1)),
            ((2, 4, 3, 1), (1, 4, 3, 2)),
            ((4, 1, 3, 2), (4, 2, 3, 1)),
            ((4, 2, 3, 1), (1, 4, 3, 2)),
            ((4, 2, 3, 1), (4, 1, 3, 2)),
        ]
        assert [(q.first.values, q.second.values) for q in single_crossing_pair_patterns()] == literal


def test_single_peaked_coincidence_at_four_candidates():
    # the four-candidate enriched formula also counts single-peaked elections
    for n in (2, 3):
        brute = brute_force_count(4, n, is_single_peaked).count
        assert brute == enriched_count_formula("m4", n)
