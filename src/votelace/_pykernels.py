"""Pure-Python containment kernels: one search per containment kind.

Each search is a depth-first generator over plain tuples of ints that yields
every witness in a fixed order: :func:`pattern_occurrences`,
:func:`strong_occurrences` and :func:`configuration_embeddings`.  The boolean
kernels are "the stream yields something"; ``perms``, ``pairs`` and
``elections`` wrap the streams for their witnesses.  ``votelace._ckernels``
is a compiled drop-in replacement for the four boolean kernels; both backends
must return identical results on identical inputs (see tests/test_kernels.py).

Permutations are in one-line notation with values 1..n; rank vectors are
0-based positions indexed by candidate-1.
"""

from itertools import permutations

#: the longest tuple a kernel takes, the size of the compiled kernels' stack
#: arrays; past it both backends raise the same ValueError at the same step
MAX_LEN = 32


def _refuse_long(*tuples):
    if max(map(len, tuples)) > MAX_LEN:
        raise ValueError(f"kernel input longer than {MAX_LEN}")


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
    in lexicographic order."""
    _refuse_long(big_first, big_second, small_first, small_second)
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
    n = len(host_ranks)
    l = len(cfg_ranks)
    if l > n:
        return
    m = len(host_ranks[0]) if n else 0
    h = len(cfg_ranks[0]) if l else 0
    if h > m:
        return
    if l and h:
        _refuse_long(host_ranks, host_ranks[0])

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


def contains_pattern(host, pattern):
    """True iff some index-increasing subsequence of ``host`` is order-isomorphic to ``pattern``."""
    for _ in pattern_occurrences(host, pattern):
        return True
    return False


def strong_contains(big_first, big_second, small_first, small_second):
    """True iff one set of values realizes ``small_first`` in ``big_first``
    and ``small_second`` in ``big_second`` simultaneously."""
    for _ in strong_occurrences(big_first, big_second, small_first, small_second):
        return True
    return False


def contains_configuration(host_ranks, cfg_ranks):
    """True iff some injective voter and candidate maps embed ``cfg_ranks``
    in ``host_ranks`` (see :func:`configuration_embeddings`)."""
    for _ in configuration_embeddings(host_ranks, cfg_ranks):
        return True
    return False


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
