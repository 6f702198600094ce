import random
import time
from itertools import combinations

import pytest

from helpers import election, perm, symmetric_group
from votelace import kernels
from votelace.domains import ENRICHED_FORBIDDEN_CONFIGURATIONS
from votelace.elections import (
    Election,
    all_elections,
    contains_configuration,
    elections_with_first,
    find_embedding,
    pair_permutation,
    parse_election,
    restrict,
    sub_election,
)
from votelace.errors import GuardExceeded, ParseError
from votelace.perms import contains_pattern, identity


class TestParsing:
    def test_basic(self):
        e = parse_election("1 2 3\n3 2 1")
        assert e.num_candidates == 3
        assert e.num_voters == 2
        assert e.preferences[1] == (3, 2, 1)

    def test_comments_and_blank_lines(self):
        e = parse_election("# header\n\n1 2\n# note\n2 1\n\n")
        assert e.num_voters == 2

    def test_inconsistent_candidate_sets(self):
        with pytest.raises(ParseError):
            parse_election("1 2\n1 2 3")

    def test_duplicate_candidate(self):
        with pytest.raises(ParseError):
            parse_election("1 1 2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_election("# nothing here\n")

    def test_candidates_must_be_one_to_m(self):
        with pytest.raises(ParseError):
            parse_election("2 5 9")

    def test_text_round_trip(self):
        e = election("1234", "2413")
        assert parse_election(e.to_text()) == e


class TestConstruction:
    def test_invariants(self):
        # the election's constructor refuses rankings that are not permutations of 1..m
        malformed = [
            [(1, 2, 3), (1, 1, 2)],  # duplicate candidate
            [(0, 1, 2)],  # id below 1
            [(1, 2, 3), (1, 2, 4)],  # id above m
            [(1, 2, 3), (1, 2)],  # short row
            [],  # no voters
        ]
        for rows in malformed:
            with pytest.raises(ValueError):
                Election(3, rows)
            with pytest.raises(ValueError):
                Election.from_rows(rows)
        with pytest.raises(ValueError):
            Election(1, ())
        # the number of candidates is an int, and a bool is not one
        for m, rows in [(True, [(1,)]), (2.0, [(1, 2)])]:
            with pytest.raises(ValueError, match="must be an int"):
                Election(m, rows)

    def test_rows_become_tuples(self):
        e = Election.from_rows([(1, 2, 3), (2, 3, 1)])
        for rows in ([[1, 2, 3], [2, 3, 1]], [perm("123"), perm("231")]):
            for same in (Election.from_rows(rows), Election(3, rows)):
                assert same == e and hash(same) == hash(e)
                assert same.preferences == ((1, 2, 3), (2, 3, 1))

    def test_rankings_are_checked_once(self, monkeypatch):
        # the constructor checks what a caller hands it; the parser checks
        # each line itself, and a restriction derives from a valid election,
        # so none of them runs the constructor's check again
        e = election("1234", "2413", "4321")
        checked = []
        check = kernels._check_rankings
        monkeypatch.setattr(kernels, "_check_rankings", lambda *args: checked.append(check(*args)))
        parse_election("1 2 3\n3 1 2\n")
        restrict(e, {1, 3, 4})
        sub_election(e, [1, 3], [2, 4])
        assert checked == []
        Election.from_rows([(1, 2), (2, 1)])
        assert len(checked) == 1


class TestRestrict:
    def test_filter_and_relabel(self):
        e = restrict(election("1234", "4321"), {2, 4})
        assert e.to_text() == "1 2\n2 1"
        full = election("1234", "2413")
        assert restrict(full, {1, 2, 3, 4}) == full
        single = restrict(election("2413"), {1, 3, 4})
        assert single.preferences[0] == (3, 1, 2)

    def test_errors(self):
        e = election("123")
        with pytest.raises(ValueError):
            restrict(e, set())
        with pytest.raises(ValueError):
            restrict(e, {0, 1})
        with pytest.raises(ValueError):
            restrict(e, {3, 4})

    def test_sub_election(self):
        e = election("1234", "2413", "4321")
        s = sub_election(e, [1, 3], [2, 4])
        assert s.to_text() == "1 2\n2 1"
        with pytest.raises(ValueError):
            sub_election(e, [], [1])
        with pytest.raises(ValueError):
            sub_election(e, [4], [1])


class TestContainsConfiguration:
    def test_identity_embedding(self):
        e = election("1234", "2413")
        assert contains_configuration(e, election("1234", "2413"))

    def test_trivial_configuration(self):
        cfg = election("1")
        for m, n in [(1, 1), (3, 2), (4, 3)]:
            for e in all_elections(m, n):
                assert contains_configuration(e, cfg)

    def test_unanimous_election_avoids_disagreement(self):
        e = election("1234", "1234", "1234")
        cfg = election("12", "21")
        assert not contains_configuration(e, cfg)
        assert find_embedding(e, cfg) is None

    def test_matches_plain_injection_oracle(self):
        # independent route: try every voter and candidate injection outright
        from itertools import permutations as iperm

        def oracle(e, cfg):
            n, m = e.num_voters, e.num_candidates
            l, h = cfg.num_voters, cfg.num_candidates
            host_pos = [{c: i for i, c in enumerate(r)} for r in e.preferences]
            cfg_pos = [{s: i for i, s in enumerate(t)} for t in cfg.preferences]
            for f in iperm(range(n), l):
                for g in iperm(range(1, m + 1), h):
                    if all(
                        (cfg_pos[i][x] < cfg_pos[i][y])
                        == (host_pos[f[i]][g[x - 1]] < host_pos[f[i]][g[y - 1]])
                        for i in range(l)
                        for x in range(1, h + 1)
                        for y in range(x + 1, h + 1)
                    ):
                        return True
            return False

        rng = random.Random(5)
        for _ in range(200):
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            l, h = rng.randint(1, 3), rng.randint(1, 4)
            e = Election.from_rows([rng.sample(range(1, m + 1), m) for _ in range(n)])
            cfg = Election.from_rows([rng.sample(range(1, h + 1), h) for _ in range(l)])
            assert contains_configuration(e, cfg) == oracle(e, cfg)

    def test_embedding_matches_containment(self):
        rng = random.Random(7)
        for _ in range(200):
            e = Election.from_rows([rng.sample(range(1, 5), 4) for _ in range(3)])
            cfg = Election.from_rows([rng.sample(range(1, 4), 3) for _ in range(2)])
            emb = find_embedding(e, cfg)
            assert (emb is not None) == contains_configuration(e, cfg)
            if emb is not None:
                f, g = emb
                assert len(set(f)) == len(f) and len(set(g)) == len(g)
                # replay the maps: every configuration preference must transfer
                for i, voter in enumerate(f):
                    host = e.preferences[voter - 1]
                    small = cfg.preferences[i]
                    ranks = {c: pos for pos, c in enumerate(host)}
                    mapped = [ranks[g[s - 1]] for s in small]
                    assert mapped == sorted(mapped)

    def test_monotone_under_extension(self):
        rng = random.Random(21)
        cfgs = list(ENRICHED_FORBIDDEN_CONFIGURATIONS) + [election("12", "21")]
        checked = 0
        for _ in range(300):
            e = Election.from_rows([rng.sample(range(1, 5), 4) for _ in range(2)])
            big = Election.from_rows(
                [rng.sample(range(1, 6), 5) for _ in range(3)]
            )
            if not contains_configuration(big, e):
                continue
            checked += 1
            for cfg in cfgs:
                if contains_configuration(e, cfg):
                    assert contains_configuration(big, cfg)
        assert checked > 20

    def test_heredity_of_avoidance(self):
        # restriction cannot create a forbidden configuration
        for m in range(1, 5):
            for n in range(1, 4):
                for e in all_elections(m, n):
                    avoided = [
                        cfg
                        for cfg in ENRICHED_FORBIDDEN_CONFIGURATIONS
                        if not contains_configuration(e, cfg)
                    ]
                    if not avoided:
                        continue
                    for size in range(1, m + 1):
                        for subset in combinations(range(1, m + 1), size):
                            r = restrict(e, subset)
                            for cfg in avoided:
                                assert not contains_configuration(r, cfg)


class TestTwoAndThreeVoterSpecializations:
    def test_three_voter_pattern_containment(self):
        # (id, id, pi) contains (id, id, tau) exactly when tau occurs in pi
        for tau in symmetric_group(3):
            cfg = Election.from_rows([(1, 2, 3), (1, 2, 3), tau.values])
            for pi in symmetric_group(5):
                e = Election.from_rows([(1, 2, 3, 4, 5), (1, 2, 3, 4, 5), pi.values])
                assert contains_configuration(e, cfg) == contains_pattern(tau, pi)

    def test_two_voter_pattern_containment(self):
        # (id, pi) contains (id, tau) exactly when tau or its inverse occurs in pi
        for h in (3, 4):
            for tau in symmetric_group(h):
                cfg = Election.from_rows([tuple(range(1, h + 1)), tau.values])
                for pi in symmetric_group(5):
                    e = Election.from_rows([(1, 2, 3, 4, 5), pi.values])
                    expected = contains_pattern(tau, pi) or contains_pattern(tau.inverse(), pi)
                    assert contains_configuration(e, cfg) == expected


class TestPairPermutation:
    def test_relabeling_examples(self):
        assert pair_permutation((1, 2, 3, 4), (2, 4, 1, 3)) == perm("2413")
        assert pair_permutation((1, 3, 2, 4), (2, 4, 1, 3)) == perm("3412")
        v = (3, 1, 2)
        assert pair_permutation(v, v) == identity(3)

    def test_inverse_symmetry(self):
        for m in range(1, 6):
            rankings = [p.values for p in symmetric_group(m)]
            for a in rankings:
                for b in rankings:
                    assert pair_permutation(a, b) == pair_permutation(b, a).inverse()

    def test_candidate_set_mismatch(self):
        with pytest.raises(ValueError):
            pair_permutation((1, 2), (1, 3))


class TestAllElections:
    def test_counts(self):
        assert len(list(all_elections(2, 1))) == 2
        assert len(list(all_elections(2, 2))) == 4
        assert len(list(all_elections(3, 2))) == 36

    def test_lexicographic_and_unique(self):
        seen = [e.preferences for e in all_elections(3, 2)]
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            list(all_elections(6, 4))
        with pytest.raises(GuardExceeded):
            list(all_elections(3, 2, limit=10))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("limit", [0, -5])
    def test_non_positive_limit_is_refused_at_every_m(self, m, limit):
        # at m = 1 the guard's product has no factor to compare, so the
        # limit is checked on its own, as brute_force_count checks its guard
        with pytest.raises(ValueError, match="must be positive"):
            next(all_elections(m, 2, limit=limit))

    def test_limit_of_one_yields_the_one_election(self):
        assert [e.preferences for e in all_elections(1, 3, limit=1)] == [((1,), (1,), (1,))]
        with pytest.raises(GuardExceeded):
            next(all_elections(2, 1, limit=1))

    def test_guard_past_the_int_to_str_digit_limit(self):
        # (3000!)^2 has more than 4,300 digits, where str() of an int stops
        with pytest.raises(GuardExceeded, match=r"\(m,n\)=\(3000,2\)"):
            next(all_elections(3000, 2))

    def test_guard_refuses_before_computing_the_total(self):
        # 1000000! alone has 5.5M digits; the product stops once past the guard
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match=r"\(m,n\)=\(1000000,1\)"):
            next(all_elections(10**6, 1))
        assert time.perf_counter() - start < 1

    def test_split_by_first_ranking_covers_everything(self):
        whole = [e.preferences for e in all_elections(3, 2)]
        split = []
        for first in [p.values for p in symmetric_group(3)]:
            split.extend(e.preferences for e in elections_with_first(3, 2, first))
        assert whole == split


class TestEnumerationChecks:
    """The enumerators check their rankings once, before the first election."""

    def test_sizes_below_one_are_rejected(self):
        for m, n in ((0, 1), (1, 0), (3, 0)):
            with pytest.raises(ValueError):
                next(all_elections(m, n))
            with pytest.raises(ValueError):
                next(elections_with_first(m, n, tuple(range(1, m + 1))))

    def test_first_ranking_must_cover_the_candidates(self):
        with pytest.raises(ValueError):
            next(elections_with_first(3, 2, (1, 2)))
        with pytest.raises(ValueError):
            next(elections_with_first(2, 2, (1, 3)))

    def test_enumerated_elections_equal_checked_ones(self):
        for e in all_elections(3, 2):
            checked = Election(3, e.preferences)
            assert e == checked and hash(e) == hash(checked)
            assert e.rank_vectors() == checked.rank_vectors()
