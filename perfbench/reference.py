"""A fixed reference computation that reads how fast the machine is right now.

The machine is shared: other tenants slow everything on it by up to a half
for tens of seconds at a time, longer than a run, and by more than that for
fractions of a second.  The benchmark times :func:`sample` around the work it
measures and, ten times a second, in the middle of it, and scales each time by
the mean of ``SAMPLE_S`` over the sample times read near it, which reads it as
seconds on the machine the bounds were set on.  The import-time probe times
:func:`reference`.

This module imports nothing that a fresh interpreter has not loaded already,
so the import-time probe can use it without moving what it measures.
"""

import time
from itertools import permutations

#: reference()'s time on the machine the bounds were set on, when nothing else loads it
#: (2-vCPU Xeon VM, Python 3.11.7)
REFERENCE_S = 0.021
#: sample()'s time on the same machine: about a fifth of REFERENCE_S
SAMPLE_S = 0.0044
#: pool_reference()'s time on the same machine, when nothing else loads it
POOL_REFERENCE_S = 0.010


def _contains(host, pattern):
    k, n = len(pattern), len(host)
    chosen = [0] * k

    def extend(depth, start):
        if depth == k:
            return True
        for i in range(start, n - (k - depth) + 1):
            v = host[i]
            ok = True
            for t in range(depth):
                if (pattern[t] < pattern[depth]) != (host[chosen[t]] < v):
                    ok = False
                    break
            if ok:
                chosen[depth] = i
                if extend(depth + 1, i + 1):
                    return True
        return False

    return extend(0, 0)


_HOSTS = tuple(permutations(range(1, 7)))
_PATTERNS = ((2, 4, 1, 3), (3, 1, 4, 2), (2, 1, 4, 3), (3, 4, 1, 2))


def _timed(hosts):
    start = time.perf_counter()
    for host in hosts:
        for pattern in _PATTERNS:
            _contains(host, pattern)
    return time.perf_counter() - start


def reference():
    """Seconds taken by a fixed piece of program-like work: pattern containment over S_6.

    The code is written out here, not imported, so that no change to
    votelace can move it, and it keeps no objects alive, so that the size of
    the program's heap cannot move it through garbage collection.
    """
    return _timed(_HOSTS)


def sample():
    """Seconds taken by a fifth of :func:`reference`'s work, short enough to time ten times a second."""
    return _timed(_HOSTS[::5])


def pool_reference(pool_class):
    """Seconds taken to open a two-worker process pool of ``pool_class``, run
    two trivial tasks in it and shut it down: what a process fan-out pays
    besides its work, which moves with the machine's load differently from
    :func:`reference`."""
    start = time.perf_counter()
    with pool_class(max_workers=2) as pool:
        list(pool.map(abs, (1, 2)))
    return time.perf_counter() - start
