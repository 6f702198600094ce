#!/usr/bin/env python3
"""Benchmark the compiled containment kernels against the pure-Python twins.

Times each kernel on a representative exhaustive workload, plus two
end-to-end brute-force counts through whichever backend is selected.
Caches are cleared before every timed run so both backends start cold.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import sys
import time
from itertools import permutations

from votelace import kernels
from votelace.domains import is_enriched_group_separable, is_single_peaked
from votelace.elections import _rank_vector
from votelace.enumeration import brute_force_count


def clear_caches():
    """Clear every functools cache in the loaded votelace modules."""
    for name, module in list(sys.modules.items()):
        if name == "votelace" or name.startswith("votelace."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def bench_contains_pattern():
    hosts = list(permutations(range(1, 8)))
    pats = [(2, 4, 1, 3), (3, 1, 4, 2), (2, 1, 4, 3), (3, 4, 1, 2)]
    hits = 0
    for host in hosts:
        for pat in pats:
            hits += kernels.contains_pattern(host, pat)
    return hits


def bench_strong_contains():
    pairs = list(permutations(range(1, 6)))
    smalls = [((1, 2), (2, 1)), ((4, 2, 3, 1), (4, 1, 3, 2))]
    hits = 0
    for first in pairs:
        for second in pairs:
            for s1, s2 in smalls:
                hits += kernels.strong_contains(first, second, s1, s2)
    return hits


def bench_contains_configuration():
    ident = tuple(range(4))
    hosts = [
        (ident, tuple(_rank_vector(p)), tuple(_rank_vector(r)))
        for p in permutations(range(1, 5))
        for r in permutations(range(1, 5))
    ]
    cfgs = [
        ((0, 1, 2), (1, 0, 2), (2, 0, 1)),
        ((0, 1, 2), (2, 1, 0), (0, 2, 1)),
        ((0, 1, 2), (0, 1, 2), (1, 2, 0)),
        ((0, 1, 2), (2, 0, 1), (2, 1, 0)),
    ]
    hits = 0
    for host in hosts:
        for cfg in cfgs:
            hits += kernels.contains_configuration(host, cfg)
    return hits


def bench_fits_axis():
    orders = list(permutations(range(1, 7)))
    axes = [tuple(_rank_vector(a)) for a in permutations(range(1, 7)) if a[0] < a[-1]]
    hits = 0
    for order in orders:
        for axis in axes[:180]:
            hits += kernels.fits_axis(order, axis)
    return hits


def bench_enriched_brute():
    return brute_force_count(4, 3, is_enriched_group_separable).count


def bench_single_peaked_brute():
    return brute_force_count(5, 2, is_single_peaked).count


def bench_pair_avoiders():
    from votelace.enumeration import single_crossing_pair_patterns
    from votelace.pairs import PairPattern, PairPatternSet, count_pair_avoiders
    from votelace.perms import Permutation

    forbidden = PairPatternSet(
        list(single_crossing_pair_patterns())
        + [PairPattern(Permutation((1, 2)), Permutation((2, 1)))]
    )
    return count_pair_avoiders(5, forbidden)


WORKLOADS = [
    ("contains_pattern: S_7 x 4 patterns", bench_contains_pattern),
    ("strong_contains: S_5^2 x 2 pair patterns", bench_strong_contains),
    ("contains_configuration: S_4^2 x 4 configs", bench_contains_configuration),
    ("fits_axis: S_6 x 180 axes", bench_fits_axis),
    ("end-to-end: pair-avoider count, m=5, 7 patterns", bench_pair_avoiders),
    ("end-to-end: enriched brute force (4,3)", bench_enriched_brute),
    ("end-to-end: single-peaked brute force (5,2)", bench_single_peaked_brute),
]


def run(repeats: int):
    backends = kernels.available_backends()
    if "c" not in backends:
        print("note: compiled kernels are not built; timing the pure backend only")
    print(f"{'workload':45s}" + "".join(f"{b:>12s}" for b in backends) + f"{'speedup':>10s}")
    initial = kernels.active_backend()
    try:
        for name, fn in WORKLOADS:
            times = {}
            result = None
            for backend in backends:
                kernels.use_backend(backend)
                best = float("inf")
                for _ in range(repeats):
                    clear_caches()
                    start = time.perf_counter()
                    got = fn()
                    best = min(best, time.perf_counter() - start)
                times[backend] = best
                if result is None:
                    result = got
                elif result != got:
                    raise SystemExit(f"backend disagreement on {name}: {result} vs {got}")
            row = f"{name:45s}" + "".join(f"{times[b] * 1000:10.1f}ms" for b in backends)
            if "c" in times and "python" in times:
                row += f"{times['python'] / times['c']:9.1f}x"
            print(row)
    finally:
        kernels.use_backend(initial)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per cell; best is kept")
    args = parser.parse_args()
    run(args.repeats)


if __name__ == "__main__":
    main()
