"""Per-layer tracing of votelace from outside the package.

:func:`install` wraps the public entry points of each votelace module
(elections, domains, kernels, perms, pairs, enumeration, verify, cli) and
``concurrent.futures.ProcessPoolExecutor`` in timing spans.  Every reference
to a wrapped function in a loaded votelace module, and in the ``DOMAINS`` and
``SUITES`` tables, is swapped, so calls between modules are seen too.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every original
back.

Spans are aggregated as they close rather than kept one by one: per span name
the number of calls, the inclusive time and the self time (inclusive time
minus the time of spans opened inside it).  The benchmark opens a root span
around the traced pass, so the self times of all spans, the root's included,
add up to the traced wall time; the root's self time is the unattributed
part.  A span's own bookkeeping falls outside its timed interval and is
charged to its parent's self time, so a caller of many short spans (the
brute-force loop around recognizer calls) absorbs most of the tracing
overhead; ``trace.overhead_ratio`` says how much there is.  Work done inside
worker processes is not traced: the parent sees it as the wall time of the
``fanout.pool`` span that waits for it.
"""

import functools
import sys
import time

clock = time.perf_counter

ROOT_SPAN = "bench"


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, inclusive seconds, self seconds]
        self.counts = {}  # counter name -> int
        self._stack = [[0.0]]  # per open span: seconds spent in spans opened inside it
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def open(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, clock()

    def close(self, name, frame, start):
        elapsed = clock() - start
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        self._stack[-1][0] += elapsed
        entry = self._entry(name)
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]

    def call(self, name, fn, *args, **kwargs):
        frame, start = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, frame, start)

    def wrap(self, name, fn, name_of=None):
        """``fn`` with every call timed as span ``name`` (or ``name_of(*args, **kwargs)``)."""
        entry = self._entry(name) if name_of is None else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                e = entry or self._entry(name_of(*args, **kwargs))
                e[0] += 1
                e[1] += elapsed
                e[2] += elapsed - frame[0]

        return traced

    def wrap_generator(self, name, fn, counter=None):
        """``fn`` returning an iterator whose every step is timed as span ``name``;
        ``counter`` counts the items it yields."""
        tracer = self

        def steps(it):
            while True:
                frame, start = tracer.open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(name, frame, start)
                if counter is not None:
                    tracer.counts[counter] = tracer.counts.get(counter, 0) + 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ---------------------------------------------------------

    def _swap(self, table, key, value):
        self._undo.append((table, key, table[key]))
        table[key] = value

    def replace(self, original, wrapper, tables=()):
        """Point every reference to ``original`` in loaded votelace modules and in ``tables`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "votelace" or mod_name.startswith("votelace."):
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._swap(namespace, key, wrapper)
        for table in tables:
            for key, value in list(table.items()):
                if value is original:
                    self._swap(table, key, wrapper)

    def uninstall(self):
        while self._undo:
            table, key, value = self._undo.pop()
            if isinstance(table, dict):
                table[key] = value
            else:
                setattr(table, key, value)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced entry point of the loaded votelace package."""
    import concurrent.futures

    from votelace import cli, domains, elections, enumeration, kernels, pairs, perms, verify

    def fn(name, original, tables=(), **kw):
        tracer.replace(original, tracer.wrap(name, original, **kw), tables)

    for gen in (elections.all_elections, elections.elections_with_first):
        tracer.replace(gen, tracer.wrap_generator("elections.enumerate", gen, counter="elections.enumerated"))
    fn("elections.parse", elections.parse_election)
    fn("elections.find_embedding", elections.find_embedding)
    fn("elections.contains_configuration", elections.contains_configuration)
    fn("elections.sub_election", elections.sub_election)

    for key, recognizer in list(domains.DOMAINS.items()):
        fn(f"domains.{key}", recognizer, tables=(domains.DOMAINS,))
    witness = domains.DomainVerdict.witness

    def traced_witness(verdict):
        if verdict.holds or verdict._witness is not None:
            return witness.fget(verdict)
        return tracer.call("domains.witness", witness.fget, verdict)

    tracer._undo.append((domains.DomainVerdict, "witness", witness))
    domains.DomainVerdict.witness = property(traced_witness, doc=witness.__doc__)

    for name in ("contains_pattern", "strong_contains", "contains_configuration", "fits_axis"):
        fn(f"kernels.{name}", getattr(kernels, name))

    tracer.replace(perms.occurrences, tracer.wrap_generator("perms.occurrences", perms.occurrences))
    fn("perms.count_avoiders", perms.count_avoiders)
    tracer.replace(pairs.strong_occurrences, tracer.wrap_generator("pairs.strong_occurrences", pairs.strong_occurrences))
    fn("pairs.count_pair_avoiders", pairs.count_pair_avoiders)

    def cell_name(m, n, recognizer, label=None, **_):
        return f"enumeration.cell.{label or recognizer.__name__}-{m}x{n}"

    fn("enumeration.cell", enumeration.brute_force_count, name_of=cell_name)
    for name in ("contains_3voter", "count_avoiding_pairs", "upper_bound_3config", "three_voter_pattern_set"):
        fn(f"enumeration.{name}", getattr(enumeration, name))

    for key, suite in list(verify.SUITES.items()):
        fn(f"verify.suite.{key}", suite, tables=(verify.SUITES,))

    fn("cli.check", cli.cmd_check)
    fn("cli.contains", cli.cmd_contains)

    pool_class = concurrent.futures.ProcessPoolExecutor

    class TracedPool(pool_class):
        """Counts pools and tasks; the pool's lifetime is the ``fanout.pool`` span."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.count("fanout.pools")
            self._span = tracer.open()

        def submit(self, fn, /, *args, **kwargs):
            tracer.count("fanout.tasks")
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    span, self._span = self._span, None
                    tracer.close("fanout.pool", *span)

    tracer._undo.append((concurrent.futures, "ProcessPoolExecutor", pool_class))
    concurrent.futures.ProcessPoolExecutor = TracedPool
    return tracer
