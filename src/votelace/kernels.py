"""The containment kernels: one search per containment kind, and the lookups
that decide containment in bulk.

Each search is a depth-first generator over plain tuples of ints that yields
every witness in a fixed order: :func:`pattern_occurrences`,
:func:`strong_occurrences` and :func:`configuration_embeddings`.  ``perms``,
``pairs`` and ``elections`` wrap the streams for their witnesses, and the
streams are the oracle the lookups are tested against.

The boolean kernels, each but :func:`fits_axis` saying whether a stream
yields something:

- :func:`contains_pattern` runs the pattern search.
- :func:`strong_contains` ANDs two :func:`strong_signature` lookups: per
  pattern, the value subsets on which each host component forms it.
- :func:`contains_configuration` looks the configuration's
  :func:`configuration_key` up in the host's :func:`configuration_keys`.
- :func:`fits_axis` reads an order against an axis.

On malformed input a boolean raises the ``ValueError`` its stream raises,
and tuples longer than :data:`MAX_LEN` are refused at the same points by
both.  :func:`active_backend` names the one implementation there is.

Permutations are in one-line notation with values 1..n; rank vectors are
0-based positions indexed by candidate-1.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

#: the longest tuple a kernel takes; past it a search, a signature and a key
#: set all raise the same ValueError
MAX_LEN = 32

#: the most value subsets a strong signature spans: a strong check whose host
#: has more subsets of the pattern's size runs the search instead, as its
#: signature would hold a bitmask of that many bits per pattern
MAX_SUBSETS = 1 << 10


def active_backend():
    """The name of the kernel implementation, printed in the test header and by the benchmark."""
    return "python"


def _refuse_long(*tuples):
    if max(map(len, tuples)) > MAX_LEN:
        raise ValueError(f"kernel input longer than {MAX_LEN}")


def _check_permutation(values):
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ValueError(f"not a permutation of 1..{len(values)}: {values}")


def _check_strong(big_first, big_second, small_first, small_second):
    # the refusals of a strong check, in a fixed order: the cap, then the
    # components' lengths, then each component
    _refuse_long(big_first, big_second, small_first, small_second)
    for first, second in ((big_first, big_second), (small_first, small_second)):
        if len(first) != len(second):
            raise ValueError(f"components differ in length: {len(first)} vs {len(second)}")
    for values in (big_first, big_second, small_first, small_second):
        _check_permutation(values)


def _check_ranks(voters, size):
    ident = list(range(size))
    for ranks in voters:
        if sorted(ranks) != ident:
            raise ValueError(f"not a rank vector of {size} candidates: {ranks}")


def _host_size(host_ranks, l, h):
    """The host's number of candidates, or None when a configuration of l
    voters and h candidates has more of either than the host, so that
    nothing embeds.  Unless l or h is 0, a host past the cap and malformed
    host rank vectors are refused."""
    n = len(host_ranks)
    m = len(host_ranks[0]) if n else 0
    if l > n or h > m:
        return None
    if l and h:
        _refuse_long(host_ranks, host_ranks[0])
        _check_ranks(host_ranks, m)
    return m


# ---------------------------------------------------------------------------
# the searches


def pattern_occurrences(host, pattern):
    """Yield every index-increasing tuple of 0-based ``host`` positions whose
    values are order-isomorphic to ``pattern``, in lexicographic order."""
    _refuse_long(host, pattern)
    k = len(pattern)
    n = len(host)
    if k > n:
        return
    chosen = [0] * k

    def extend(depth, start):
        if depth == k:
            yield tuple(chosen)
            return
        # not enough host entries left for the remaining pattern entries
        for i in range(start, n - (k - depth) + 1):
            v = host[i]
            ok = True
            for t in range(depth):
                if (pattern[t] < pattern[depth]) != (host[chosen[t]] < v):
                    ok = False
                    break
            if ok:
                chosen[depth] = i
                yield from extend(depth + 1, i + 1)

    yield from extend(0, 0)


def strong_occurrences(big_first, big_second, small_first, small_second):
    """Yield every increasing tuple of values that realizes ``small_first``
    in ``big_first`` and ``small_second`` in ``big_second`` simultaneously,
    in lexicographic order.  Components of unequal length and
    non-permutations raise ``ValueError``."""
    _check_strong(big_first, big_second, small_first, small_second)
    h = len(small_first)
    n = len(big_first)
    if h == 0:
        yield ()
        return
    if h > n:
        return
    # pos*[v-1] = position of value v in the host permutation
    pos1 = [0] * n
    pos2 = [0] * n
    for i in range(n):
        pos1[big_first[i] - 1] = i
        pos2[big_second[i] - 1] = i
    # q*[r-1] = position of value r in the small pattern; chosen values in
    # increasing order must have host positions ordered like q1 resp. q2
    q1 = [0] * h
    q2 = [0] * h
    for i in range(h):
        q1[small_first[i] - 1] = i
        q2[small_second[i] - 1] = i
    chosen = [0] * h  # chosen[j] = value (1-based) playing rank j+1

    def extend(depth, start):
        if depth == h:
            yield tuple(chosen)
            return
        for v in range(start, n - (h - depth) + 2):
            p1 = pos1[v - 1]
            p2 = pos2[v - 1]
            ok = True
            for t in range(depth):
                w = chosen[t]
                if (pos1[w - 1] < p1) != (q1[t] < q1[depth]):
                    ok = False
                    break
                if (pos2[w - 1] < p2) != (q2[t] < q2[depth]):
                    ok = False
                    break
            if ok:
                chosen[depth] = v
                yield from extend(depth + 1, v + 1)

    yield from extend(0, 1)


def configuration_embeddings(host_ranks, cfg_ranks):
    """Yield every pair of injective maps (f, g) that embeds a configuration.

    ``host_ranks``/``cfg_ranks`` are tuples of rank vectors, one per voter:
    ranks[v][c-1] is the position of candidate c in voter v's ranking.
    ``f[i]`` is the 0-based host voter for configuration voter i+1 and
    ``g[s]`` the host candidate for configuration candidate s+1.  Voter maps
    come in ``itertools.permutations`` order, then candidate maps in
    lexicographic order.
    """
    n, l = len(host_ranks), len(cfg_ranks)
    h = len(cfg_ranks[0]) if l else 0
    m = _host_size(host_ranks, l, h)
    if m is None:
        return
    _check_ranks(cfg_ranks, h)

    assigned = [0] * h  # assigned[s] = host candidate (1-based) for cfg candidate s+1
    used = [False] * m

    def place(f, depth):
        if depth == h:
            yield tuple(assigned)
            return
        for c in range(1, m + 1):
            if used[c - 1]:
                continue
            ok = True
            for t in range(depth):
                ct = assigned[t]
                for i in range(l):
                    hr = host_ranks[f[i]]
                    if (cfg_ranks[i][t] < cfg_ranks[i][depth]) != (hr[ct - 1] < hr[c - 1]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                assigned[depth] = c
                used[c - 1] = True
                yield from place(f, depth + 1)
                used[c - 1] = False

    for f in permutations(range(n), l):
        for g in place(f, 0):
            yield f, g


# ---------------------------------------------------------------------------
# the lookups


@lru_cache(maxsize=None)
def subset_patterns(values, k):
    """The pattern the permutation ``values`` forms on each k-subset of its
    values, the subsets in ``itertools.combinations`` order.

    >>> subset_patterns((3, 1, 2), 2)
    ((1, 2), (2, 1), (2, 1))
    """
    _refuse_long(values)
    _check_permutation(values)
    patterns = []
    for subset in combinations(range(1, len(values) + 1), k):
        rank = {v: r for r, v in enumerate(subset, 1)}
        patterns.append(tuple(rank[v] for v in values if v in rank))
    return tuple(patterns)


@lru_cache(maxsize=None)
def strong_signature(values, k):
    """Per pattern of length k, the bitmask of the value k-subsets (bit i:
    the i-th of :func:`subset_patterns`) on which ``values`` forms it.

    A pair strongly contains a pattern pair iff the signatures of its two
    components share a bit for it.
    """
    signature = {}
    for bit, pattern in enumerate(subset_patterns(values, k)):
        signature[pattern] = signature.get(pattern, 0) | 1 << bit
    return signature


def _relative(reference, ranks):
    # voter ``ranks``'s order with every candidate named by its 1-based
    # position in voter ``reference``'s order: a permutation of 1..m
    named = [r + 1 for r in reference]
    return tuple(map(named.__getitem__, sorted(range(len(ranks)), key=ranks.__getitem__)))


@lru_cache(maxsize=1 << 10)
def _relative_patterns(reference, ranks, h):
    # bounded: a host's voters are looked up in pairs, and hosts that share
    # rankings share pairs
    return subset_patterns(_relative(reference, ranks), h)


def configuration_keys(host_ranks, l, h):
    """The set of the :func:`configuration_key` of every configuration of
    l voters and h candidates that embeds in the host: empty when l or h
    exceeds the host's.

    For each voter injection f and candidate h-subset S, the key holds the
    orders of voters f(2..l) on S with each candidate named by its position
    in voter f(1)'s order.  A configuration embeds by (f, S) iff its own
    key is that one, since voter f(1) fixes the candidate map.
    """
    if _host_size(host_ranks, l, h) is None:
        return set()
    if l < 2 or not h:
        return {((),) * max(l - 1, 0)}
    voters = range(len(host_ranks))
    keys = set()
    for a, reference in enumerate(host_ranks):
        # row[b][i]: voter b's order relative to voter a's on the i-th subset
        row = [_relative_patterns(reference, ranks, h) for ranks in host_ranks]
        for others in permutations([b for b in voters if b != a], l - 1):
            keys.update(zip(*map(row.__getitem__, others)))
    return keys


def configuration_key(cfg_ranks):
    """The orders of a configuration's voters 2..l with each candidate
    named by its position in voter 1's order (see :func:`configuration_keys`)."""
    if not cfg_ranks:
        return ()
    _check_ranks(cfg_ranks, len(cfg_ranks[0]))
    return tuple(_relative(cfg_ranks[0], ranks) for ranks in cfg_ranks[1:])


# ---------------------------------------------------------------------------
# the boolean kernels


def contains_pattern(host, pattern):
    """True iff some index-increasing subsequence of ``host`` is order-isomorphic to ``pattern``."""
    return next(pattern_occurrences(host, pattern), None) is not None


def strong_contains(big_first, big_second, small_first, small_second):
    """True iff one set of values realizes ``small_first`` in ``big_first``
    and ``small_second`` in ``big_second`` simultaneously."""
    k = len(small_first)
    if comb(len(big_first), k) > MAX_SUBSETS:
        return next(strong_occurrences(big_first, big_second, small_first, small_second), None) is not None
    try:
        if len(big_first) == len(big_second):
            return bool(strong_signature(big_first, k)[small_first] & strong_signature(big_second, k)[small_second])
    except (KeyError, ValueError):
        pass
    # a pattern that is formed nowhere, or malformed input
    _check_strong(big_first, big_second, small_first, small_second)
    return False


def contains_configuration(host_ranks, cfg_ranks):
    """True iff some injective voter and candidate maps embed ``cfg_ranks``
    in ``host_ranks`` (see :func:`configuration_embeddings`)."""
    l = len(cfg_ranks)
    keys = configuration_keys(host_ranks, l, len(cfg_ranks[0]) if l else 0)
    # as in the search, a configuration larger than the host is not checked
    return bool(keys) and configuration_key(cfg_ranks) in keys


def fits_axis(order, axis_pos):
    """True iff every prefix of the ranking ``order`` is an interval of the axis.

    ``axis_pos[c-1]`` is the axis position of candidate c.
    """
    _refuse_long(order, axis_pos)
    if len(order) <= 1:
        return True
    lo = hi = axis_pos[order[0] - 1]
    for c in order[1:]:
        p = axis_pos[c - 1]
        if p == lo - 1:
            lo = p
        elif p == hi + 1:
            hi = p
        else:
            return False
    return True
