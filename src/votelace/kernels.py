"""The containment kernels: two searches, and the lookups that decide
containment in bulk.

Each search is a depth-first generator over plain tuples of ints that yields
every witness in a fixed order.  The subset search, over increasing index
tuples, runs as :func:`pattern_occurrences` and :func:`strong_occurrences`;
the configuration search is :func:`configuration_embeddings`.  ``perms``,
``pairs`` and ``elections`` wrap the streams for their witnesses, and the
streams are the oracle the lookups are tested against.

The boolean kernels, each but :func:`fits_axis` saying whether a stream
yields something:

- :func:`contains_pattern` runs the pattern search.
- :func:`strong_contains` ANDs two :func:`strong_signature` lookups: per
  pattern, the value subsets on which each host component forms it.
- :func:`contains_configuration` looks the configuration's
  :func:`configuration_key` up in the host's :func:`configuration_keys`.
- :func:`fits_axis` reads an order against an axis.  No recognizer calls
  it: it is the definition the tests hold single-peaked verdicts to.

On malformed input a boolean raises the ``ValueError`` its stream raises,
and tuples longer than :data:`MAX_LEN` are refused at the same points by
both.  A boolean checks its input before reading any cache, since a cache
answers any equal tuple and 1.0 and ``True`` equal 1; records, checked when
built, reach the cached lookups directly.  :func:`active_backend` names the
one implementation there is.

Permutations are in one-line notation with values 1..n.  Hosts and
configurations are tuples of rankings, one per voter: each a tuple of the
candidates 1..m, best first.  :func:`_check_rankings` decides what a
permutation or a ranking is, here and for ``Permutation`` and ``Election``.
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


def _check_rankings(rankings, m):
    """Raise ``ValueError`` unless each of ``rankings`` is a permutation of
    1..m, of ints: neither 1.0 nor ``True`` stands for 1."""
    ident, ints = list(range(1, m + 1)), {int}
    for values in rankings:
        if not ints.issuperset(map(type, values)) or sorted(values) != ident:
            raise ValueError(f"not a permutation of 1..{m}: {values}")


def _check_strong(big_first, big_second, small_first, small_second):
    # the refusals of a strong check, in a fixed order: the cap, then the
    # components' lengths, then each component
    _refuse_long(big_first, big_second, small_first, small_second)
    for first, second in ((big_first, big_second), (small_first, small_second)):
        if len(first) != len(second):
            raise ValueError(f"components differ in length: {len(first)} vs {len(second)}")
    for first, second in ((big_first, big_second), (small_first, small_second)):
        _check_rankings((first, second), len(first))


def _host_size(host, l, h):
    """The host's number of candidates, or None when a configuration of l
    voters and h candidates has more of either than the host, so that
    nothing embeds.  Unless l or h is 0, a host past the cap and malformed
    host rankings are refused."""
    n = len(host)
    m = len(host[0]) if n else 0
    if l > n or h > m:
        return None
    if l and h:
        _refuse_long(host, host[0])
        _check_rankings(host, m)
    return m


def _positions(order):
    # the 0-based position of each value of a permutation, indexed by value - 1
    ranks = [0] * len(order)
    for pos, c in enumerate(order):
        ranks[c - 1] = pos
    return tuple(ranks)


@lru_cache(maxsize=None)
def _rank_vector(order):
    # _positions of a ranking, cached
    return _positions(order)


@lru_cache(maxsize=1 << 10)
def _pair_perm_values(ref_order, other_order):
    # the ranking ``other_order`` with each candidate named by its 1-based
    # position in ``ref_order``.  Bounded: an enumeration relabels against
    # one first ranking at a time (at most 720 pairs for m <= 6), while a
    # sweep of every pair at m = 5 would keep 14,400 entries that are never
    # hit again
    ranks = _rank_vector(ref_order)
    return tuple(ranks[c - 1] + 1 for c in other_order)


# ---------------------------------------------------------------------------
# the searches


def _increasing_matches(n, bigs, smalls):
    """The subset search: every increasing tuple of indices in ``range(n)``
    on which each of ``bigs`` is ordered as its entry of ``smalls`` is, in
    lexicographic order.  Each big holds n distinct entries in 0..n and the
    smalls are permutations of one length; the caller checks them."""
    k = len(smalls[0])
    chosen = [0] * k
    pairs = tuple(zip(bigs, smalls))

    def extend(depth, start):
        if depth == k:
            yield tuple(chosen)
            return
        # the entries chosen so far are ordered as small's, so an index fits
        # iff its entry lies above theirs at smaller small entries, below the rest
        windows = []
        for big, small in pairs:
            s, lo, hi = small[depth], -1, n + 1
            for t in range(depth):
                v = big[chosen[t]]
                if small[t] < s:
                    if v > lo:
                        lo = v
                elif v < hi:
                    hi = v
            windows.append((big, lo, hi))
        # not enough indices left for the remaining small entries
        for i in range(start, n - k + depth + 1):
            for big, lo, hi in windows:
                if not lo < big[i] < hi:
                    break
            else:
                chosen[depth] = i
                yield from extend(depth + 1, i + 1)

    return extend(0, 0)


def _pattern_search(host, pattern):
    # the pattern search on checked permutations: only the cap is refused
    _refuse_long(host, pattern)
    return _increasing_matches(len(host), (host,), (pattern,))


def pattern_occurrences(host, pattern):
    """Yield every index-increasing tuple of 0-based ``host`` positions whose
    values are order-isomorphic to ``pattern``, in lexicographic order.
    Non-permutations raise ``ValueError``."""
    _refuse_long(host, pattern)
    _check_rankings((host,), len(host))
    _check_rankings((pattern,), len(pattern))
    yield from _increasing_matches(len(host), (host,), (pattern,))


def strong_occurrences(big_first, big_second, small_first, small_second):
    """Yield every increasing tuple of values that realizes ``small_first``
    in ``big_first`` and ``small_second`` in ``big_second`` simultaneously,
    in lexicographic order.  Components of unequal length and
    non-permutations raise ``ValueError``."""
    _check_strong(big_first, big_second, small_first, small_second)
    yield from _strong_search(big_first, big_second, small_first, small_second)


def _strong_search(big_first, big_second, small_first, small_second):
    # the strong search on checked pairs, refusing only the cap: index v - 1
    # stands for value v, and each component is read by its values' positions
    _refuse_long(big_first, big_second, small_first, small_second)
    bigs = (_positions(big_first), _positions(big_second))
    smalls = (_positions(small_first), _positions(small_second))
    for indices in _increasing_matches(len(big_first), bigs, smalls):
        yield tuple(i + 1 for i in indices)


def configuration_embeddings(host, cfg):
    """Yield every pair of injective maps (f, g) that embeds a configuration.

    ``host`` and ``cfg`` are tuples of rankings, one per voter.  ``f[i]`` is
    the 0-based host voter for configuration voter i+1 and ``g[s]`` the host
    candidate for configuration candidate s+1.  Voter maps come in
    ``itertools.permutations`` order, then candidate maps in lexicographic
    order.
    """
    n, l = len(host), len(cfg)
    h = len(cfg[0]) if l else 0
    m = _host_size(host, l, h)
    if m is None:
        return
    _check_rankings(cfg, h)
    # ranks[v][c-1] is the position of candidate c in voter v's ranking
    host_ranks = tuple(map(_rank_vector, host))
    cfg_ranks = tuple(map(_rank_vector, cfg))

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
    values, the subsets in ``itertools.combinations`` order.  It takes a
    checked permutation: a warm entry answers any equal tuple.

    >>> subset_patterns((3, 1, 2), 2)
    ((1, 2), (2, 1), (2, 1))
    """
    _refuse_long(values)
    _check_rankings((values,), len(values))
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
    components share a bit for it.  Like :func:`subset_patterns`, it takes a
    checked permutation, and a warm entry answers any equal tuple.
    """
    signature = {}
    for bit, pattern in enumerate(subset_patterns(values, k)):
        signature[pattern] = signature.get(pattern, 0) | 1 << bit
    return signature


@lru_cache(maxsize=1 << 10)
def _relative_patterns(reference, order, h):
    # bounded: a host's voters are looked up in pairs, and hosts that share
    # rankings share pairs
    return subset_patterns(_pair_perm_values(reference, order), h)


def configuration_keys(host, l, h):
    """The set of the :func:`configuration_key` of every configuration of
    l voters and h candidates that embeds in the host: empty when l or h
    exceeds the host's.

    For each voter injection f and candidate h-subset S, the key holds the
    orders of voters f(2..l) on S with each candidate named by its position
    in voter f(1)'s order.  A configuration embeds by (f, S) iff its own
    key is that one, since voter f(1) fixes the candidate map.
    """
    if _host_size(host, l, h) is None:
        return set()
    if l < 2 or not h:
        return {((),) * max(l - 1, 0)}
    voters = range(len(host))
    keys = set()
    for a, reference in enumerate(host):
        # row[b][i]: voter b's order relative to voter a's on the i-th subset
        row = [_relative_patterns(reference, order, h) for order in host]
        for others in permutations([b for b in voters if b != a], l - 1):
            keys.update(zip(*map(row.__getitem__, others)))
    return keys


def configuration_key(cfg):
    """The orders of a configuration's voters 2..l with each candidate
    named by its position in voter 1's order (see :func:`configuration_keys`):
    the key of (id, tau, sigma) is (tau, sigma)."""
    if not cfg:
        return ()
    _check_rankings(cfg, len(cfg[0]))
    return tuple(_pair_perm_values(cfg[0], order) for order in cfg[1:])


# ---------------------------------------------------------------------------
# the boolean kernels


def contains_pattern(host, pattern):
    """True iff some index-increasing subsequence of ``host`` is order-isomorphic to ``pattern``."""
    return next(pattern_occurrences(host, pattern), None) is not None


def strong_contains(big_first, big_second, small_first, small_second):
    """True iff one set of values realizes ``small_first`` in ``big_first``
    and ``small_second`` in ``big_second`` simultaneously."""
    _check_strong(big_first, big_second, small_first, small_second)
    return _strong_lookup(big_first, big_second, small_first, small_second)


def _strong_lookup(big_first, big_second, small_first, small_second):
    # strong_contains on checked input.  The search runs when the host has
    # more than MAX_SUBSETS value subsets of the pattern's size, or none: a
    # pattern longer than the host, which the search refuses past MAX_LEN
    k = len(small_first)
    if not 0 < comb(len(big_first), k) <= MAX_SUBSETS:
        return next(_strong_search(big_first, big_second, small_first, small_second), None) is not None
    first, second = strong_signature(big_first, k), strong_signature(big_second, k)
    return bool(first.get(small_first, 0) & second.get(small_second, 0))


def contains_configuration(host, cfg):
    """True iff some injective voter and candidate maps embed the rankings
    ``cfg`` in the rankings ``host`` (see :func:`configuration_embeddings`)."""
    l = len(cfg)
    keys = configuration_keys(host, l, len(cfg[0]) if l else 0)
    # as in the search, a configuration larger than the host is not checked
    return bool(keys) and configuration_key(cfg) in keys


def fits_axis(order, axis_pos):
    """True iff every prefix of the ranking ``order`` is an interval of the axis.

    ``axis_pos[c-1]`` is the axis position of candidate c.  An order that is
    not a permutation of 1..len(order), or an axis shorter than the order,
    raises ``ValueError``.
    """
    _refuse_long(order, axis_pos)
    _check_rankings((order,), len(order))
    if len(axis_pos) < len(order):
        raise ValueError(f"axis of {len(axis_pos)} positions is shorter than the order {order}")
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
