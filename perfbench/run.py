#!/usr/bin/env python3
"""The votelace benchmark.

Run from the root of a votelace checkout:

    python3 perfbench/run.py --workload {count,verify,query} \\
        --seed N --seconds S --trace {0,1} [--tiny]

``--trace 0`` times the workload on one kernel backend: ``VOTELACE_BACKEND``
when set, otherwise the compiled backend when it builds, otherwise python.
Units (count cells, verify suites, query requests) run back to back, each
from cold caches as a CLI invocation would, in passes over the workload's
unit list until ``--seconds`` have passed.  The first pass always runs to
its end, so every unit is measured; after that the run stops at the deadline,
once the unit in progress ends.  Each unit counts with its median time over
the run.

The machine is shared, so every time is scaled by a fixed reference
computation timed around and in the middle of it, and time spent in process
pools by a fixed trivial pool timed next to it (see ``reference.py``), which
reads it as seconds on the machine the bounds were set on.  The unscaled
figures are printed too.  The end-to-end metrics:

* ``setup_s``: median time to import ``votelace.cli`` in fresh interpreters;
* ``peak_rss_mb``: peak resident memory of the benchmark process;
* ``items_per_s``: items per second over one pass of median unit times; an
  item is a covered election (count), a suite check (verify) or a request
  (query);
* ``p50_ms``/``p99_ms``: median and 99th percentile of the units' median
  times (per count cell, per verify suite, per query request).

``--trace 1`` runs one pass per kernel backend, each in a fresh process:
untraced, then traced (see ``tracer.py``).  It checks that every output,
witnesses included, is identical across backends and between the two
passes, checks that the per-layer self times add up to the traced wall
time, prints and writes the per-layer split to ``.bench_build/out/``, and
reports the per-layer metrics.

Every run checks its outputs (see ``workloads.py``) outside the timed region.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every gate passed.  ``--tiny`` shrinks every workload for the
benchmark's own tests.
"""

import argparse
import bisect
import concurrent.futures
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass

import program
import reference
import tracer as tracing
import workloads

SETUP_SAMPLES = 15
REFERENCE_EVERY_S = 0.1
POOL_REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 1.0
CHILD_TIMEOUT_S = 170
BACKENDS = ("python", "c")

RECOGNIZERS = workloads.DOMAIN_NAMES
CACHED = (
    "_rank_vector", "_pair_perm_values", "_middles", "_pair_avoids",
    "_peak_mask", "_recursive_ok", "_ends_and_mids", "_axis_positions",
)
KERNELS = ("contains_pattern", "strong_contains", "contains_configuration", "fits_axis")
CELLS = tuple(f"{d}-{m}x{n}" for d, m, n in workloads.COUNT_CELLS)
SUITES = tuple(workloads.VERIFY_CHECKS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (for tests)")
    parser.add_argument("--child", choices=BACKENDS, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# running units


def clear_all(caches):
    def clear():
        for fn in caches.values():
            fn.cache_clear()

    return clear


class PoolWatch:
    """Watches the ``concurrent.futures`` process pools opened while it is installed.

    Keeps how many are alive and the (start, end) of each, and calls
    ``on_close`` whenever the last live pool has shut down.
    """

    def __init__(self, on_close):
        self.live = 0
        self.spans = []
        self.on_close = on_close

    def __enter__(self):
        self.original = concurrent.futures.ProcessPoolExecutor
        watch = self

        class WatchedPool(self.original):
            def __init__(self, *args, **kwargs):
                self._opened = time.perf_counter()
                super().__init__(*args, **kwargs)
                watch.live += 1

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._opened is not None:
                        watch.spans.append((self._opened, time.perf_counter()))
                        self._opened = None
                        watch.live -= 1
                if watch.live == 0:
                    watch.on_close()

        concurrent.futures.ProcessPoolExecutor = WatchedPool
        return self

    def __exit__(self, *exc):
        concurrent.futures.ProcessPoolExecutor = self.original


@dataclass
class Timing:
    outputs: list  # the first pass's
    scaled: list  # per unit, its latency in each pass, scaled to the reference machine
    raw: list  # per unit, its latency in each pass as measured
    samples: list  # every sample time read
    pool_references: list  # every pool reference time read
    attempted: int  # work over all passes
    failed: int
    notes: list  # problems seen across passes
    peak_rss_mb: float  # when the passes ended, before their latencies were worked out


def timed_passes(workload, seconds, clear):
    """Run passes, each unit from cold caches, until ``seconds`` have passed;
    only the first pass runs to its end regardless.

    :func:`reference.sample` runs before the first unit, after the last,
    and every ``REFERENCE_EVERY_S`` on a timer signal, in the middle of a
    unit too.  While a process pool is alive its workers hold the cores, so a
    reading then would measure them: the reading waits until the pool has
    shut down, and then also times :func:`reference.pool_reference`, at most
    once per ``POOL_REFERENCE_EVERY_S``.  A reading's own time is taken out
    of the unit it interrupts.

    A unit's time in pools is scaled by the mean of ``POOL_REFERENCE_S`` over
    the pool reference times read within ``REFERENCE_WINDOW_S`` of the unit
    (or the nearest ones), the rest of its time by the mean of ``SAMPLE_S``
    over the sample times read within that window: the mean speed of the
    machine over the unit's own time, however long the unit.
    """
    spans = [array("d") for _ in workload.units]  # per unit: start, end, start, end, ...
    tallies, notes, first = [0, 0], [], None
    marks = []  # (start, sample seconds, the reading's own seconds)
    pool_marks = []  # (start, pool reference seconds)
    due, reading = [False], [False]  # a reading waits for a pool to shut down; a reading runs

    def read(pool=False):
        if reading[0]:
            return
        reading[0] = True
        start = time.perf_counter()
        seconds = reference.sample()
        if pool:
            pool_marks.append((start, reference.pool_reference(pools.original)))
        marks.append((start, seconds, time.perf_counter() - start))
        reading[0] = False

    def tick(*_):
        if pools.live:
            due[0] = True
        elif not marks or time.perf_counter() - (marks[-1][0] + marks[-1][2]) >= REFERENCE_EVERY_S / 2:
            read()  # unless a reading just ended, so that slow readings cannot starve the work

    def closed():
        if due[0] or not pool_marks:
            due[0] = False
            read(pool=not pool_marks or time.perf_counter() - pool_marks[-1][0] >= POOL_REFERENCE_EVERY_S)

    with PoolWatch(closed) as pools:
        deadline = time.perf_counter() + seconds
        read()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            while True:
                outputs = []
                for i, unit in enumerate(workload.units):
                    clear()
                    start = time.perf_counter()
                    output = unit.run()
                    end = time.perf_counter()
                    spans[i].append(start)
                    spans[i].append(end)
                    outputs.append(output)
                    if first is not None and end >= deadline:
                        break
                attempted, failed = workload.tally(outputs)
                tallies[0] += attempted
                tallies[1] += failed
                if first is None:
                    first = outputs
                elif outputs != first[: len(outputs)]:
                    notes.append("a later pass gave different outputs than the first")
                if time.perf_counter() >= deadline:
                    break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        read()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def within(starts, start, end):
        # readings and pools that start inside a unit also end inside it
        return bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)

    def near(readings, times, start, end):
        lo = bisect.bisect_left(times, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(times, end + REFERENCE_WINDOW_S)
        return readings[lo:hi] or readings[max(lo - 1, 0):lo + 1]

    times = [t for t, _, _ in marks]
    pool_times = [t for t, _ in pool_marks]
    pool_spans = sorted(pools.spans)
    pool_starts = [t for t, _ in pool_spans]

    def latencies(start, end):
        lo, hi = within(times, start, end)
        net = end - start - sum(d for _, _, d in marks[lo:hi])
        lo, hi = within(pool_starts, start, end)
        pooled = sum(e - s for s, e in pool_spans[lo:hi])
        cpu_speed = statistics.fmean(reference.SAMPLE_S / r for _, r, _ in near(marks, times, start, end))
        scaled = (net - pooled) * cpu_speed
        if pooled:
            near_pools = near(pool_marks, pool_times, start, end)
            scaled += pooled * statistics.fmean(reference.POOL_REFERENCE_S / q for _, q in near_pools)
        return scaled, net

    both = [[latencies(*span) for span in zip(ss[0::2], ss[1::2])] for ss in spans]
    return Timing(
        outputs=first,
        scaled=[[s for s, _ in pairs] for pairs in both],
        raw=[[n for _, n in pairs] for pairs in both],
        samples=[r for _, r, _ in marks],
        pool_references=[q for _, q in pool_marks],
        attempted=tallies[0],
        failed=tallies[1],
        notes=notes,
        peak_rss_mb=peak,
    )


def one_pass(workload, clear):
    outputs = []
    for unit in workload.units:
        clear()
        outputs.append(unit.run())
    return outputs


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# --trace 0


def timed_main(args, ckernels, workdir):
    backend = os.environ.get("VOTELACE_BACKEND") or ("c" if ckernels else "python")
    if backend not in BACKENDS:
        raise SystemExit(f"error: VOTELACE_BACKEND={backend!r}; expected one of {BACKENDS}")
    if backend == "c" and not ckernels:
        raise SystemExit("error: VOTELACE_BACKEND=c but the compiled backend is unavailable")
    probes = program.import_seconds(backend, ckernels, SETUP_SAMPLES)
    setup = [elapsed for elapsed, _ in probes]
    setup_scaled = [elapsed * reference.REFERENCE_S / ref for elapsed, ref in probes]
    program.load(backend, ckernels)
    print(f"backend: {backend}")
    workload = workloads.build(args.workload, args.seed, args.tiny, workdir)
    clear = clear_all(program.caches())
    timing = timed_passes(workload, args.seconds, clear)
    outputs, raw, attempted, failed = timing.outputs, timing.raw, timing.attempted, timing.failed
    failures = timing.notes + workload.check(outputs)
    speed = reference.SAMPLE_S / statistics.median(timing.samples)
    pools = timing.pool_references
    pool_speed = (f"; pool speed {reference.POOL_REFERENCE_S / statistics.median(pools):.4f} "
                  f"(median of {len(pools)} pool reference runs)" if pools else "")
    per_unit = [statistics.median(samples) for samples in raw if samples]
    unit_s = [statistics.median(samples) for samples in timing.scaled if samples]
    items = sum(workload.items(unit, out) for unit, out in zip(workload.units, outputs))
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (timing.peak_rss_mb, "MB"),
        "items_per_s": (items / sum(unit_s), "1/s"),
        "p50_ms": (statistics.median(unit_s) * 1000, "ms"),
        "p99_ms": (percentile(unit_s, 99) * 1000, "ms"),
    }
    w = args.workload
    runs = sum(len(samples) for samples in raw)
    print(f"{w}: {len(unit_s)} distinct units run {runs} times in {sum(map(sum, raw)):.3f} s; "
          f"an item is {workload.item}")
    print(f"  machine speed {speed:.4f} of the reference machine (median of {len(timing.samples)} samples)"
          f"{pool_speed}; "
          f"unscaled: setup {statistics.median(setup):.4f} s, {items / sum(per_unit):.1f} items/s, "
          f"p50 {statistics.median(per_unit) * 1000:.3f} ms, p99 {percentile(per_unit, 99) * 1000:.3f} ms")
    print(f"  setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh imports of votelace.cli)")
    print(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
    throughput_name = {"verify": "checks_per_s", "query": "requests_per_s"}.get(w, "elections_per_s")
    print(f"  {w}.{throughput_name} = {metrics['items_per_s'][0]:.1f} 1/s (items_per_s)")
    if w == "verify":
        print(f"  {w}.wall_s = {sum(unit_s):.3f} s for the {len(unit_s)} suites")
    print(f"  {w}.p50_ms = {metrics['p50_ms'][0]:.3f} ms, {w}.p99_ms = {metrics['p99_ms'][0]:.3f} ms "
          f"(over the median times of {len(unit_s)} units)")
    print(f"  {w}.failed_ratio = {failed / max(attempted, 1):.6f} ({failed} of {attempted})")
    report(failures, attempted, failed, metrics)
    return 0 if not failures else 1


def report(failures, attempted, failed, metrics):
    for f in failures[:20]:
        print(f"GATE FAILED: {f}")
    if len(failures) > 20:
        print(f"GATE FAILED: ... and {len(failures) - 20} more")
    print("correctness: " + ("ok" if not failures else f"{len(failures)} gate failures"))
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# --trace 1: one child process per backend


def child_main(args, workdir):
    ckernels, _ = program.build_ckernels()
    program.load(args.child, ckernels)
    workload = workloads.build(args.workload, args.seed, args.tiny, workdir)
    caches = program.caches()
    clear = clear_all(caches)

    start = time.perf_counter()
    untraced = one_pass(workload, clear)
    wall_untraced = time.perf_counter() - start

    cache_stats = {name: [0, 0] for name in caches}

    def drain():
        for name, fn in caches.items():
            info = fn.cache_info()
            cache_stats[name][0] += info.hits
            cache_stats[name][1] += info.misses
            fn.cache_clear()

    clear()
    tracer = tracing.install(tracing.Tracer())
    try:
        traced = tracer.call(tracing.ROOT_SPAN, one_pass, workload, drain)
        drain()
    finally:
        tracer.uninstall()

    failures = workload.check(traced)
    if traced != untraced:
        failures.append("tracing changed the outputs")
    attempted, failed = workload.tally(traced)
    print(json.dumps({
        "backend": args.child,
        "outputs": traced,
        "wall_untraced": wall_untraced,
        "stats": tracer.stats,
        "counts": tracer.counts,
        "caches": cache_stats,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }))
    return 0


def run_child(args, backend, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--child", backend]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, VOTELACE_BACKEND=backend)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=program.ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{backend} child failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_of(span):
    return "unattributed" if span == tracing.ROOT_SPAN else span.split(".", 1)[0]


def split(child):
    """Self seconds per layer and per span, and whether they add up to the traced wall time."""
    stats = child["stats"]
    wall = stats[tracing.ROOT_SPAN][1]
    layers = {}
    for span, (_, _, self_s) in stats.items():
        layers[layer_of(span)] = layers.get(layer_of(span), 0.0) + self_s
    total = sum(layers.values())
    return {
        "wall_s": wall,
        "wall_untraced_s": child["wall_untraced"],
        "attributed_sum_s": total,
        "adds_up": abs(total - wall) <= 1e-6 * wall + 1e-6,
        "layers_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "spans": {name: {"calls": c, "inclusive_s": inc, "self_s": s} for name, (c, inc, s) in sorted(stats.items())},
        "counts": child["counts"],
        "caches": {name: {"hits": h, "misses": m} for name, (h, m) in sorted(child["caches"].items())},
    }


def per_layer_metrics(children):
    """The per_layer metrics of BENCHMARK.json; times per backend, counts once (they do not depend on it)."""
    metrics = {}
    counts_from = children.get("python") or next(iter(children.values()))
    stats, counts, caches = counts_from["stats"], counts_from["counts"], counts_from["caches"]

    def calls(span):
        return stats.get(span, [0, 0.0, 0.0])[0]

    metrics["elections.enumerated"] = (counts.get("elections.enumerated", 0), "count")
    metrics["elections.find_embedding_calls"] = (calls("elections.find_embedding"), "count")
    for r in RECOGNIZERS:
        metrics[f"domains.calls.{r}"] = (calls(f"domains.{r}"), "count")
    for fn in CACHED:
        hits, misses = caches.get(fn, (0, 0))
        metrics[f"cache.{fn}.hits"] = (hits, "count")
        metrics[f"cache.{fn}.misses"] = (misses, "count")
        metrics[f"cache.{fn}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for k in KERNELS:
        metrics[f"kernels.calls.{k}"] = (calls(f"kernels.{k}"), "count")
    metrics["fanout.pools"] = (counts.get("fanout.pools", 0), "count")
    metrics["fanout.tasks"] = (counts.get("fanout.tasks", 0), "count")

    for backend in BACKENDS:
        child = children.get(backend)
        st = child["stats"] if child else {}

        def self_s(span):
            return st.get(span, [0, 0.0, 0.0])[2]

        def incl_s(span):
            return st.get(span, [0, 0.0, 0.0])[1]

        def layer_s(layer):
            return sum(v[2] for name, v in st.items() if layer_of(name) == layer)

        times = {
            "elections.enumerate_s": self_s("elections.enumerate"),
            "elections.parse_s": self_s("elections.parse"),
            "elections.find_embedding_s": self_s("elections.find_embedding"),
            **{f"domains.self_s.{r}": self_s(f"domains.{r}") for r in RECOGNIZERS},
            "domains.witness_s": self_s("domains.witness"),
            **{f"kernels.self_s.{k}": self_s(f"kernels.{k}") for k in KERNELS},
            "perms.occurrences_s": self_s("perms.occurrences"),
            "pairs.strong_occurrences_s": self_s("pairs.strong_occurrences"),
            "pairs.count_pair_avoiders_s": self_s("pairs.count_pair_avoiders"),
            **{f"enumeration.cell_s.{c}": incl_s(f"enumeration.cell.{c}") for c in CELLS},
            "enumeration.self_s": layer_s("enumeration"),
            "fanout.wall_s": incl_s("fanout.pool"),
            **{f"verify.suite_s.{s}": incl_s(f"verify.suite.{s}") for s in SUITES},
            "verify.self_s": layer_s("verify"),
            "cli.self_s": layer_s("cli"),
            "unattributed_s": self_s(tracing.ROOT_SPAN),
            "trace.wall_s": incl_s(tracing.ROOT_SPAN),
        }
        for name, value in times.items():
            metrics[f"{name}.{backend}"] = (value, "s")
        ratio = incl_s(tracing.ROOT_SPAN) / child["wall_untraced"] if child else 0.0
        metrics[f"trace.overhead_ratio.{backend}"] = (ratio, "ratio")
    return metrics


def traced_main(args, ckernels, note):
    started = time.perf_counter()
    children = {}
    for backend in BACKENDS:
        if backend == "c" and not ckernels:
            print(f"backend c: unavailable ({note}); its per-layer metrics read 0")
            continue
        timeout = max(10.0, CHILD_TIMEOUT_S - (time.perf_counter() - started))
        children[backend] = run_child(args, backend, timeout)

    failures = []
    for backend, child in children.items():
        failures += [f"{backend}: {f}" for f in child["failures"]]
    expected = children["python"]["outputs"]
    for backend, child in children.items():
        if child["outputs"] != expected:
            diff = sum(1 for a, b in zip(child["outputs"], expected) if a != b)
            failures.append(f"backend {backend} disagrees with python on {diff} outputs")

    splits = {backend: split(child) for backend, child in children.items()}
    for backend, s in splits.items():
        if not s["adds_up"]:
            failures.append(f"{backend}: self times add up to {s['attributed_sum_s']:.6f} s, traced wall {s['wall_s']:.6f} s")
        print(f"backend {backend}: traced wall {s['wall_s']:.3f} s, untraced {s['wall_untraced_s']:.3f} s; self time by layer:")
        for layer, seconds in s["layers_self_s"].items():
            print(f"  {layer:14s} {seconds:10.4f} s {100 * seconds / s['wall_s']:6.2f}%")
    work = {b: (c["counts"], {name: v[0] for name, v in c["stats"].items()}, c["caches"]) for b, c in children.items()}
    if len({json.dumps(v, sort_keys=True) for v in work.values()}) > 1:
        print("note: call, cache or enumeration counts differ between backends; the count metrics are the python backend's")

    out_dir = os.path.join(program.BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "backends": splits}, fh, indent=1)
    print(f"per-layer split written to {os.path.relpath(out_path, program.ROOT)}")

    metrics = per_layer_metrics(children)
    attempted = sum(c["attempted"] for c in children.values())
    failed = sum(c["failed"] for c in children.values())
    report(failures, attempted, failed, metrics)
    return 0 if not failures else 1


def main(argv=None):
    args = parse_args(argv)
    if not program.program_present():
        print(f"error: no votelace package under {program.SRC}; run from the root of a votelace checkout",
              file=sys.stderr)
        return 2
    os.makedirs(program.BUILD, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=program.BUILD, prefix="inputs-") as workdir:
        if args.child:
            return child_main(args, workdir)
        ckernels, note = program.build_ckernels()
        print(f"compiled kernels: {'available' if ckernels else 'unavailable'} ({note})")
        if args.trace:
            return traced_main(args, ckernels, note)
        return timed_main(args, ckernels, workdir)


if __name__ == "__main__":
    sys.exit(main())
