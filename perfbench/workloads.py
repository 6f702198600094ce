"""The benchmark's three workloads, their inputs and their correctness gates.

A workload is a list of units: one unit is what a single CLI invocation
does (a ``count`` cell, a ``verify`` suite, a ``check`` or ``contains``
request).  ``Unit.run`` returns the unit's output; gates run afterwards,
outside the timed region, and return failure messages.

Why these workloads:

* ``count``: exhaustive ``brute_force_count`` over cache-resident cells that
  cover every recognizer.  Enumeration, ``Election`` validation and
  recognizer self time dominate; kernels are close to 0%.
* ``verify``: cross-formulation suites with ``--jobs 2``.  Kernels run with
  no cache in front, and the process fan-out does real work.
* ``query``: a seeded closed-loop stream of single ``check``/``contains``
  requests, one client.  Every election is seen once, so caches miss, and
  witness searches run only here.

The seed drives the query stream and the seeded suites; the count cells do
not depend on it.

An enriched (6,2) cell, whose 518,400 ordered ranking pairs overflow the
``_pair_avoids`` cache, is left out: that memory-bound count moved by up to a
third between runs on a shared two-vCPU machine, too much for any bound.
Cache misses are still measured, on ``query``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

VERIFY_JOBS = 2


@dataclass
class Unit:
    run: Callable[[], object]
    items: int = 1  # work items one run covers, for throughput


class Workload:
    """Units plus the gates that check their outputs."""

    item = ""  # what the throughput counts

    def items(self, unit: Unit, output) -> int:
        return unit.items

    def tally(self, outputs) -> tuple:
        """(attempted, failed) work for the failure ratio of one pass."""
        raise NotImplementedError

    def check(self, outputs) -> list:
        """Gate failures for the outputs of one full pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# count


class CountWorkload(Workload):
    item = "covered elections, (m!)^n per cell"

    def __init__(self, cells: dict):
        self.cells = cells  # (domain, m, n) -> pinned exact count
        self.units = [
            Unit(_cell_runner(d, m, n), math.factorial(m) ** n)
            for d, m, n in cells
        ]

    def tally(self, outputs):
        wrong = sum(1 for cell, got in zip(self.cells, outputs) if got != self.cells[cell])
        return len(outputs), wrong

    def check(self, outputs):
        from votelace import domains, enumeration

        got = dict(zip(self.cells, outputs))
        failures = [
            f"{d} ({m},{n}): counted {got[d, m, n]}, pinned {want}"
            for (d, m, n), want in self.cells.items()
            if got[d, m, n] != want
        ]

        def agree(what, a, b):
            if a != b:
                failures.append(f"{what}: {a} != {b}")

        for (d, m, n), value in got.items():
            if d == "enriched":
                agree(f"enriched ({m},{n}) brute force vs recurrence", value, enumeration.enriched_count(m, n))
            if d == "group-separable" and ("group-separable-bh", m, n) in got:
                agree(f"group-separable vs group-separable-bh ({m},{n})", value, got["group-separable-bh", m, n])
            if d == "enriched-recursive":
                brute = enumeration.brute_force_count(m, n, domains.DOMAINS["enriched"]).count
                agree(f"enriched-recursive vs enriched ({m},{n})", value, brute)
        return failures


def _cell_runner(domain, m, n):
    def run():
        from votelace import domains, enumeration

        return enumeration.brute_force_count(m, n, domains.DOMAINS[domain], label=domain).count

    return run


COUNT_CELLS = {
    ("enriched", 4, 4): 44544,
    ("medium", 4, 4): 55296,
    ("em", 4, 4): 118272,
    ("single-peaked", 6, 2): 181440,
    ("group-separable", 4, 3): 5856,
    ("group-separable-bh", 4, 3): 5856,
    ("enriched-recursive", 4, 3): 4992,
    ("single-crossing", 4, 3): 9168,
}

TINY_COUNT_CELLS = {
    ("enriched", 3, 3): 168,
    ("medium", 4, 2): 576,
    ("em", 4, 2): 480,
    ("single-peaked", 4, 2): 480,
    ("group-separable", 4, 2): 528,
    ("group-separable-bh", 4, 2): 528,
    ("enriched-recursive", 3, 3): 168,
    ("single-crossing", 3, 3): 204,
}


# ---------------------------------------------------------------------------
# verify


#: check counts do not depend on the seed: seeded suites draw a fixed number of samples.
#: Listed in the order they run: thm32, the median suite, early in a pass, so
#: that a pass cut at the deadline still times it, and far from the suites
#: that fork process pools (cor43, bound3), right after which the parent ran
#: thm32 about 6% slower.
VERIFY_CHECKS = {
    "closed-forms": 131,
    "thm32": 29099,
    "thm41": 24184,
    "cor43": 160,
    "bound3": 2,
    "bh-equivalence": 24699,
    "weak-bruhat": 15017,
}
TINY_VERIFY_CHECKS = {"bound3": 2, "closed-forms": 131}


class VerifyWorkload(Workload):
    item = "suite checks"

    def __init__(self, seed: int, suites: dict):
        self.suites = suites
        self.units = [Unit(_suite_runner(s, seed)) for s in suites]

    def items(self, unit, output):
        return output[0]

    def tally(self, outputs):
        return sum(o[0] for o in outputs), sum(len(o[1]) for o in outputs)

    def check(self, outputs):
        failures = []
        for suite, (checked, failed, _info) in zip(self.suites, outputs):
            failures += [f"{suite}: {f}" for f in failed]
            if checked != self.suites[suite]:
                failures.append(f"{suite}: {checked} checks, expected {self.suites[suite]}")
        return failures


def _suite_runner(suite, seed):
    def run():
        from votelace import verify

        result = verify.run_suite(suite, seed=seed, jobs=VERIFY_JOBS)
        return [result.checked, list(result.failures), list(result.info)]

    return run


# ---------------------------------------------------------------------------
# query

DOMAIN_NAMES = (
    "em", "enriched", "enriched-recursive", "group-separable", "group-separable-bh",
    "medium", "single-crossing", "single-peaked",
)
CONTAINS_KINDS = ("pattern", "pair", "config", "three-voter")
CHECK_SIZES = range(3, 9)  # candidates per checked election
VOTER_COUNTS = range(2, 7)  # voters per checked election
QUERY_POOL = 4800  # 2400 checks: 10 for each domain, m and n
TINY_QUERY_POOL = 96


def _ranking(rng, m):
    order = list(range(1, m + 1))
    rng.shuffle(order)
    return order


def _rows(rng, m, n, uniform=None):
    """Uniform rankings, or small perturbations of one ranking, which often lie
    in a domain; ``uniform=None`` picks either with even odds."""
    if uniform is None:
        uniform = rng.random() < 0.5
    if uniform:
        return [_ranking(rng, m) for _ in range(n)]
    base = _ranking(rng, m)
    rows = []
    for _ in range(n):
        row = list(base)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(m - 1)
            row[i], row[i + 1] = row[i + 1], row[i]
        rows.append(row)
    return rows


def _line(values):
    return " ".join(map(str, values))


@dataclass
class Request:
    label: str
    kind: str  # "check" or a contains kind
    args: argparse.Namespace
    data: dict


def _mix(rng, count):
    """The shuffled (kind, domain, m, n, uniform) of ``count`` requests: half
    ``check``, split evenly over the domains, m in [3, 8] and n in [2, 6],
    and within each of those alternately uniform and perturbed rows; the rest
    ``contains``, split evenly over the kinds.  Exact shares rather than
    independent draws, so that the seed does not move the share of a request
    class: the slowest one, single-peaked at m = 8, is about 1% of requests,
    right where p99 falls."""
    checks = [("check", d, m, n) for m in CHECK_SIZES for n in VOTER_COUNTS for d in DOMAIN_NAMES]
    mix = [(*checks[i % len(checks)], (i // len(checks)) % 2 == 0) for i in range(count // 2)]
    mix += [(CONTAINS_KINDS[i % len(CONTAINS_KINDS)], None, None, None, None) for i in range(count - count // 2)]
    rng.shuffle(mix)
    return mix


def make_requests(seed: int, count: int, workdir: Path) -> list:
    """The seeded request pool; election and configuration files go to ``workdir``."""
    rng = random.Random(seed)
    requests = []

    def write(rows):
        path = workdir / f"e{len(requests)}-{rng.getrandbits(32):08x}.txt"
        path.write_text("\n".join(_line(r) for r in rows) + "\n", encoding="utf-8")
        return path

    for kind, domain, m, n, uniform in _mix(rng, count):
        if kind == "check":
            rows = _rows(rng, m, n, uniform)
            args = argparse.Namespace(command="check", file=write(rows), domain=domain)
            requests.append(Request(f"check {domain} {m}x{n}", "check", args, {"rows": rows, "domain": domain}))
            continue
        if kind == "pattern":
            k = rng.randint(2, 5)
            data = {"pattern": _ranking(rng, k), "host": _ranking(rng, rng.randint(k, 9))}
            operands = [_line(data["pattern"]), _line(data["host"])]
        elif kind == "pair":
            h = rng.randint(2, 4)
            big = rng.randint(h, 7)
            data = {"small": (_ranking(rng, h), _ranking(rng, h)), "big": (_ranking(rng, big), _ranking(rng, big))}
            operands = [f"{_line(a)} | {_line(b)}" for a, b in (data["small"], data["big"])]
        elif kind == "config":
            m, n = rng.randint(3, 6), rng.randint(2, 5)
            h, l = rng.randint(2, min(4, m)), rng.randint(1, min(3, n))
            data = {"election": _rows(rng, m, n), "config": _rows(rng, h, l)}
            operands = [str(write(data["election"])), str(write(data["config"]))]
        else:
            m, h = rng.randint(3, 6), rng.randint(2, 3)
            data = {name: _ranking(rng, size) for name, size in (("pi", m), ("rho", m), ("tau", h), ("sigma", h))}
            operands = [_line(data[name]) for name in ("pi", "rho", "tau", "sigma")]
        args = argparse.Namespace(command="contains", kind=kind, operands=operands, witness=True)
        requests.append(Request(f"contains {kind} {' / '.join(operands)}", kind, args, data))
    return requests


def _request_runner(request: Request):
    def run():
        from votelace import cli
        from votelace.errors import GuardExceeded, ParseError

        handler = cli.cmd_check if request.kind == "check" else cli.cmd_contains
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = handler(request.args)
            except (ParseError, GuardExceeded, ValueError, OSError):
                code = 2  # what cli.main maps these to: a refused request
        return [code, out.getvalue()]

    return run


class QueryWorkload(Workload):
    item = "requests"

    def __init__(self, seed: int, pool: int, workdir: Path):
        self.requests = make_requests(seed, pool, workdir)
        self.units = [Unit(_request_runner(r)) for r in self.requests]

    def tally(self, outputs):
        return len(outputs), sum(1 for code, _ in outputs if code not in (0, 1))

    def check(self, outputs):
        failures = []
        for request, (code, text) in zip(self.requests, outputs):
            try:
                problem = _check_request(request, code, text)
            except Exception as exc:  # noqa: BLE001 - a malformed report is a failed gate, not a crash
                problem = f"unreadable report {text!r}: {exc!r}"
            if problem:
                failures.append(f"{request.label}: {problem}")
        return failures


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.split()
        elif line.strip() in ("true", "false"):
            out["found"] = line.strip() == "true"
    return out


def _ints(values):
    return tuple(int(v) for v in values)


def _rank_pattern(values):
    """The permutation order-isomorphic to ``values``."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def _realizes(values, small, big):
    """True iff the value set realizes ``small`` inside the permutation ``big``."""
    chosen = set(values)
    return _rank_pattern([v for v in big if v in chosen]) == tuple(small)


def _check_request(request, code, text):
    """None when the output is right; otherwise what is wrong."""
    from votelace import domains
    from votelace.elections import (
        Election, contains_configuration, find_embedding, sub_election,
    )
    from votelace.enumeration import three_voter_pattern_set
    from votelace.pairs import PairPattern, strong_occurrences
    from votelace.perms import Permutation, occurrences

    if code not in (0, 1):
        return f"refused with exit {code}"
    fields = _fields(text)
    data = request.data
    if request.kind == "check":
        holds = fields.get("holds") == ["true"]
        if fields.get("domain") != [data["domain"]] or code != (0 if holds else 1):
            return f"exit {code} does not match the report {text!r}"
        e = Election.from_rows(data["rows"])
        recognizer = domains.DOMAINS[data["domain"]]
        second = _SECOND_FORMULATION.get(data["domain"])
        if second is not None and second(e) != holds:
            return f"second formulation says {not holds}"
        if not holds:
            voters, candidates = _ints(fields["violating voters"]), _ints(fields["violating candidates"])
            if recognizer(sub_election(e, voters, candidates)).holds:
                return f"witness voters {voters} candidates {candidates} does not violate"
        return None

    found = fields.get("found")
    if found is None or code != (0 if found else 1):
        return f"exit {code} does not match the report {text!r}"
    if request.kind == "pattern":
        pattern, host = Permutation(tuple(data["pattern"])), Permutation(tuple(data["host"]))
        if (next(occurrences(pattern, host), None) is not None) != found:
            return "occurrence stream disagrees"
        if found:
            idx = _ints(fields["witness indices"])
            ok = len(idx) == len(pattern) and list(idx) == sorted(set(idx)) and idx[0] >= 1 and idx[-1] <= len(host)
            if not ok or _rank_pattern([host.values[i - 1] for i in idx]) != pattern.values:
                return f"witness indices {idx} are not an occurrence"
    elif request.kind == "pair":
        small = PairPattern.of(*data["small"])
        big = PairPattern.of(*data["big"])
        if (next(strong_occurrences(small, big), None) is not None) != found:
            return "strong occurrence stream disagrees"
        if found and not _value_witness_ok(_ints(fields["witness values"]), small, big):
            return "witness values are not a strong occurrence"
    elif request.kind == "config":
        e, cfg = Election.from_rows(data["election"]), Election.from_rows(data["config"])
        if (find_embedding(e, cfg) is not None) != found:
            return "find_embedding disagrees"
        if found:
            f = tuple(int(x.split("->")[1]) for x in fields["witness voter map"])
            g = tuple(int(x.split("->")[1]) for x in fields["witness candidate map"])
            if not _embedding_ok(e, cfg, f, g):
                return f"maps {f} {g} are not an embedding"
    else:
        pi, rho, tau, sigma = (Permutation(tuple(data[k])) for k in ("pi", "rho", "tau", "sigma"))
        generic = contains_configuration(_three_voter(pi, rho), _three_voter(tau, sigma))
        if generic != found:
            return f"generic configuration containment says {generic}"
        if found:
            q = PairPattern.from_line(" ".join(fields["witness pattern"]))
            if q not in three_voter_pattern_set(tau, sigma):
                return f"witness pattern {q} is not in the pattern set"
            if not _value_witness_ok(_ints(fields["witness values"]), q, PairPattern(pi, rho)):
                return "witness values are not a strong occurrence"
    return None


def _value_witness_ok(values, small, big):
    return (
        len(set(values)) == len(small)
        and _realizes(values, small.first.values, big.first.values)
        and _realizes(values, small.second.values, big.second.values)
    )


def _embedding_ok(e, cfg, f, g):
    if len(set(f)) != cfg.num_voters or len(set(g)) != cfg.num_candidates:
        return False
    if not all(1 <= v <= e.num_voters for v in f) or not all(1 <= c <= e.num_candidates for c in g):
        return False
    host, small = e.rank_vectors(), cfg.rank_vectors()
    for i, v in enumerate(f):
        for s, t in combinations(range(cfg.num_candidates), 2):
            if (small[i][s] < small[i][t]) != (host[v - 1][g[s] - 1] < host[v - 1][g[t] - 1]):
                return False
    return True


def _three_voter(pi, rho):
    from votelace.elections import Election

    return Election.from_rows([tuple(range(1, len(pi) + 1)), pi.values, rho.values])


def _em_by_configurations(e):
    from votelace import domains
    from votelace.elections import contains_configuration

    return not any(contains_configuration(e, cfg) for cfg in domains.ENRICHED_FORBIDDEN_CONFIGURATIONS)


def _recognizer(name):
    def holds(e):
        from votelace import domains

        return domains.DOMAINS[name](e).holds

    return holds


_SECOND_FORMULATION = {
    "group-separable": _recognizer("group-separable-bh"),
    "group-separable-bh": _recognizer("group-separable"),
    "enriched": _recognizer("enriched-recursive"),
    "enriched-recursive": _recognizer("enriched"),
    "em": _em_by_configurations,
}


# ---------------------------------------------------------------------------

NAMES = ("count", "verify", "query")


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "count":
        return CountWorkload(TINY_COUNT_CELLS if tiny else COUNT_CELLS)
    if name == "verify":
        return VerifyWorkload(seed, TINY_VERIFY_CHECKS if tiny else VERIFY_CHECKS)
    if name == "query":
        return QueryWorkload(seed, TINY_QUERY_POOL if tiny else QUERY_POOL, Path(workdir))
    raise ValueError(f"unknown workload {name!r}; have {NAMES}")
