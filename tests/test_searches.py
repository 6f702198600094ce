"""The two containment searches of ``kernels`` against brute-force
definitions, and the lookups against the searches.

The subset search runs as the pattern stream and as the strong stream, and
the configuration search as the embedding stream.  Each stream must yield
exactly the witnesses of its definition, in the definition's order, and
each boolean must say whether that stream is empty:
the pattern search itself, the strong signatures, and the configuration keys,
both as ``kernels`` builds them and as an ``Election`` keeps them.  The
definitions enumerate candidate witnesses with ``itertools`` and test each
one from scratch: no shared state, no pruning.
"""

import random
import time
import tracemalloc
from collections import defaultdict
from itertools import combinations, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from votelace import kernels
from votelace.elections import Election, contains_configuration, find_embedding


def _standard(values):
    """The permutation of 1..len(values) order-isomorphic to ``values``."""
    ranked = sorted(values)
    return tuple(ranked.index(v) + 1 for v in values)


def _perms(n):
    return list(permutations(range(1, n + 1)))


def brute_pattern(host, pattern):
    """Index sets (0-based, lexicographic) whose host values read like ``pattern``."""
    return [
        idx
        for idx in combinations(range(len(host)), len(pattern))
        if _standard([host[i] for i in idx]) == tuple(pattern)
    ]


def brute_strong(big_first, big_second, small_first, small_second):
    """Value sets (increasing, lexicographic) that read like the small pair in both hosts."""

    def reads(host, values, small):
        return _standard([v for v in host if v in values]) == tuple(small)

    return [
        values
        for values in combinations(range(1, len(big_first) + 1), len(small_first))
        if reads(big_first, values, small_first) and reads(big_second, values, small_second)
    ]


def _read(host, f, g):
    """The configuration (rankings) that host voters ``f`` form on candidates
    ``g``: each voter's ranking of ``g``, candidate ``g[s]`` named s+1."""
    return tuple(tuple(g.index(c) + 1 for c in host[v] if c in g) for v in f)


def brute_embeddings(host, l, h):
    """Per configuration of l voters and h candidates, its embeddings: voter maps
    (0-based) then candidate maps (1-based), both in permutation order, under
    which the host reads exactly that configuration."""
    found = defaultdict(list)
    m = len(host[0]) if host else 0
    for f in permutations(range(len(host)), l):
        for g in permutations(range(1, m + 1), h):
            found[_read(host, f, g)].append((f, g))
    return found


def _check_pattern(host, pattern):
    found = next(kernels.pattern_occurrences(host, pattern), None) is not None
    assert kernels.contains_pattern(host, pattern) == found
    assert list(kernels.pattern_occurrences(host, pattern)) == brute_pattern(host, pattern)


def _check_strong(b1, b2, s1, s2):
    found = next(kernels.strong_occurrences(b1, b2, s1, s2), None) is not None
    assert kernels.strong_contains(b1, b2, s1, s2) == found
    assert list(kernels.strong_occurrences(b1, b2, s1, s2)) == brute_strong(b1, b2, s1, s2)


def _check_embeddings(host_election, cfg_election, expected):
    # the kernels read the rankings the elections hold
    host, cfg = host_election.preferences, cfg_election.preferences
    assert list(kernels.configuration_embeddings(host, cfg)) == expected.get(cfg, [])
    found = cfg in expected
    assert kernels.contains_configuration(host, cfg) == found
    # the elections' cached key sets, against the elections' own search
    assert contains_configuration(host_election, cfg_election) == found
    assert (find_embedding(host_election, cfg_election) is not None) == found


def test_pattern_occurrences_exhaustive():
    patterns = [p for k in range(5) for p in _perms(k)]
    for n in range(7):
        for host in _perms(n):
            for pattern in patterns:
                _check_pattern(host, pattern)


def test_strong_occurrences_exhaustive():
    smalls = [(s1, s2) for h in range(4) for s1 in _perms(h) for s2 in _perms(h)]
    for m in range(5):
        for b1, b2 in product(_perms(m), repeat=2):
            for s1, s2 in smalls:
                _check_strong(b1, b2, s1, s2)


def _elections(m, n):
    orders = _perms(m)
    if (m, n) == (4, 3):
        # every (4,3)-election up to candidate relabeling: voter 1 is the identity
        return [(orders[0], *rest) for rest in product(orders, repeat=2)]
    return list(product(orders, repeat=n))


def test_configuration_embeddings_exhaustive():
    for h, l in product(range(1, 4), range(1, 3)):
        configs = [Election.from_rows(cfg) for cfg in product(_perms(h), repeat=l)]
        for m, n in product(range(1, 5), range(1, 4)):
            for host in _elections(m, n):
                expected = brute_embeddings(host, l, h)
                host_election = Election.from_rows(host)
                for cfg_election in configs:
                    _check_embeddings(host_election, cfg_election, expected)


def test_configuration_embeddings_sweep_the_query_shapes():
    # the prefix walk prunes voter maps, so its stream is held to the
    # definition on the shapes the query benchmark draws (every other host)
    # and around them: hosts of up to 5 voters and 6 candidates,
    # configurations of up to 3 voters and 4 candidates, larger than the
    # host or empty.  Per host, a few configurations that embed and a few
    # drawn at random
    rng = random.Random(34)
    seen = set()
    for k in range(200):
        if k % 2:
            m, n = rng.randint(3, 6), rng.randint(2, 5)
            h, l = rng.randint(2, min(4, m)), rng.randint(1, min(3, n))
        else:
            m, n, l = rng.randint(0, 6), rng.randint(0, 5), rng.randint(0, 3)
            h = rng.randint(0, 4) if l else 0
        host = tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))
        expected = brute_embeddings(host, l, h)
        drawn = [tuple(tuple(rng.sample(range(1, h + 1), h)) for _ in range(l)) for _ in range(4)]
        for cfg in rng.sample(sorted(expected), min(3, len(expected))) + drawn:
            embeddings = list(kernels.configuration_embeddings(host, cfg))
            assert embeddings == expected.get(cfg, []), (host, cfg)
            assert kernels.contains_configuration(host, cfg) == bool(embeddings), (host, cfg)
            seen.add((l > n, h > m, l == 0, h == 0, bool(embeddings)))
    for i in range(5):
        assert {flags[i] for flags in seen} == {True, False}, i


def test_configuration_search_is_lazy_near_the_cap():
    # 24 host candidates hold C(24, 12) = 2,704,156 subsets of 12: the
    # search finds a first embedding, and refuses where a second or third
    # voter rules every map out, without listing them
    ident, rev = tuple(range(1, 25)), tuple(range(24, 0, -1))
    cfg = (tuple(range(1, 13)),) * 3
    tracemalloc.start()
    start = time.perf_counter()
    assert next(kernels.configuration_embeddings((ident, ident), cfg[:2])) == ((0, 1), cfg[0])
    assert next(kernels.configuration_embeddings((ident, rev), cfg[:2]), None) is None
    assert next(kernels.configuration_embeddings((ident, ident, rev), cfg), None) is None
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20 and elapsed < 2.0, (peak, elapsed)


def test_configuration_key_is_the_normalization():
    # the key of the configuration (id, tau, sigma) is the pair (tau, sigma)
    for m in (3, 4):
        for tau, sigma in product(_perms(m), repeat=2):
            assert kernels.configuration_key((tuple(range(1, m + 1)), tau, sigma)) == (tau, sigma)


@st.composite
def _permutation(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def _rankings(draw, voters, candidates):
    m = draw(candidates)
    return tuple(tuple(draw(st.permutations(range(1, m + 1)))) for _ in range(draw(voters)))


@settings(max_examples=150, deadline=None)
@given(_permutation(0, 9), _permutation(0, 5))
def test_pattern_occurrences_random(host, pattern):
    _check_pattern(host, pattern)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_strong_occurrences_random(data):
    m = data.draw(st.integers(0, 7))
    h = data.draw(st.integers(0, 5))
    b1, b2 = (tuple(data.draw(st.permutations(range(1, m + 1)))) for _ in range(2))
    s1, s2 = (tuple(data.draw(st.permutations(range(1, h + 1)))) for _ in range(2))
    _check_strong(b1, b2, s1, s2)


@settings(max_examples=100, deadline=None)
@given(
    _rankings(st.integers(1, 5), st.integers(1, 6)),
    _rankings(st.integers(1, 3), st.integers(1, 4)),
)
def test_configuration_embeddings_random(host, cfg):
    expected = brute_embeddings(host, len(cfg), len(cfg[0]))
    _check_embeddings(Election.from_rows(host), Election.from_rows(cfg), expected)
