"""Cross-formulation verification suites.

Every claim the package relies on is double-checked here by running two
independent routes over exhaustive small ranges (plus seeded random samples
where the exhaustive range would be too large): recognizer vs recognizer,
recurrence vs brute force, strong-order reduction vs generic containment.
Failures carry the full counterexample; its text is built only when a check
fails, so a passing suite pays for nothing but its two routes.  Recognizers
are compared as two verdict streams (:func:`votelace.perms.verdicts`), each
read from a recognizer's ``table(m)`` and ``rule(m)``, zipped with the
elections' rankings in enumeration order; an election object is built only
to print a failure (or, for prop33, for the configuration containment it
checks against).  The 3-voter host elections (id, pi, rho) are built once
per number of candidates and shared by every configuration checked against
them; their configuration key sets are cached on their rankings, once per
shape.  Every suite counts in process: its cells are too small to pay for
starting a process pool.
"""

from __future__ import annotations

import math
import random
from itertools import permutations as _itertools_permutations, product
from typing import Callable

from votelace import domains
from votelace.elections import Election, _unchecked_election, contains_configuration
from votelace.enumeration import (
    brute_force_count,
    contains_3voter,
    count_avoiding_pairs,
    enriched_count,
    enriched_count_formula,
    reduced_enriched_count,
    reduced_enriched_count_closed,
    single_crossing_pair_patterns,
    upper_bound_3config,
)
from votelace.pairs import PairPattern, strong_contains, weak_bruhat_le
from votelace.perms import Permutation, Record, count_avoiders, verdicts

DEFAULT_SEED = 1729


class SuiteResult(Record):
    """A suite's name, its number of checks, and its failures and notes as
    printed lines.  Equal results have equal fields; a result is mutable,
    so it is unhashable."""

    _fields = ("name", "checked", "failures", "info")

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []
        self.info: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, counterexample: Callable[[], str]) -> None:
        """Count one check; ``counterexample`` formats it, and runs only if it failed."""
        self.checked += 1
        if not ok:
            self.failures.append(counterexample())


def _perms(n: int) -> list[Permutation]:
    return [Permutation(v) for v in _itertools_permutations(range(1, n + 1))]


def _random_values(rng: random.Random, n: int) -> tuple[int, ...]:
    # a uniform permutation of 1..n: one shuffle of 1..n, the only draw from rng
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def _three_voter_election(pi: Permutation, rho: Permutation) -> Election:
    # (id, pi, rho)
    m = len(pi)
    return _unchecked_election(m, (tuple(range(1, m + 1)), pi.values, rho.values))


def _three_voter_hosts(perms: list[Permutation]) -> list[tuple[Permutation, Permutation, Election]]:
    # every (pi, rho, (id, pi, rho)) over these permutations, pi major
    return [(pi, rho, _three_voter_election(pi, rho)) for pi in perms for rho in perms]


def _two_verdict_streams(res: SuiteResult, cells, first, second, names: tuple[str, str]) -> None:
    # one check per election of each (m, n) cell: the verdict streams of two
    # recognizers, each read as its table(m) and rule(m), must agree
    for m, n in cells:
        rankings = list(_itertools_permutations(range(1, m + 1)))
        for prefs, a, b in zip(
            product(rankings, repeat=n),
            verdicts(first.table(m), n, first.rule(m)),
            verdicts(second.table(m), n, second.rule(m)),
        ):
            res.check(a == b, lambda: f"(m,n)=({m},{n}) election {_text(m, prefs)}: {names[0]}={a} {names[1]}={b}")


def _text(m: int, prefs: tuple[tuple[int, ...], ...]) -> str:
    # the election as a failure prints it
    return repr(_unchecked_election(m, prefs).to_text())


def suite_bh_equivalence(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Direct group-separability agrees with the forbidden-configuration form."""
    res = SuiteResult("bh-equivalence")
    direct, bh = domains.is_group_separable_direct, domains.is_group_separable_bh
    cells = [(m, n) for m in range(1, 5) for n in range(1, 4)]
    _two_verdict_streams(res, cells, direct, bh, ("direct", "bh"))
    rng = random.Random(seed)
    direct_rule, bh_rule = direct.rule(5), bh.rule(5)
    for _ in range(10_000):
        orders = tuple(_random_values(rng, 5) for _ in range(4))
        a = direct_rule(map(direct.signature, orders))
        b = bh_rule(map(bh.signature, orders))
        res.check(a == b, lambda: f"sampled (5,4) election {_text(5, orders)}: direct={a} bh={b}")
    return res


def suite_thm32(seed: int = DEFAULT_SEED) -> SuiteResult:
    """The recursive characterization agrees with the configuration-based recognizer."""
    res = SuiteResult("thm32")
    cells = [(m, n) for m in range(1, 5) for n in range(1, 4)] + [(5, 2)]
    _two_verdict_streams(
        res, cells, domains.is_enriched_group_separable, domains.is_enriched_recursive, ("configuration", "recursive")
    )
    return res


def suite_prop33(seed: int = DEFAULT_SEED) -> SuiteResult:
    """The extremes-vs-middles condition equals avoidance of the four forbidden configurations."""
    res = SuiteResult("prop33")
    em = domains.em_condition
    cells = [(m, 2) for m in range(1, 6)] + [(4, 3)]
    for m, n in cells:
        rankings = list(_itertools_permutations(range(1, m + 1)))
        for prefs, a in zip(product(rankings, repeat=n), verdicts(em.table(m), n, em.rule(m))):
            e = _unchecked_election(m, prefs)
            b = not any(
                contains_configuration(e, cfg) for cfg in domains.ENRICHED_FORBIDDEN_CONFIGURATIONS
            )
            res.check(a == b, lambda: f"(m,n)=({m},{n}) election {e.to_text()!r}: em={a} config-avoidance={b}")
    return res


def suite_thm41(seed: int = DEFAULT_SEED) -> SuiteResult:
    """The strong-order route to 3-voter containment agrees with the generic oracle.

    This equivalence also pins the composition convention used when building
    the pattern set.
    """
    res = SuiteResult("thm41")
    perms = {m: _perms(m) for m in (2, 3, 4)}
    hosts = {m: _three_voter_hosts(perms[m]) for m in (3, 4)}
    for h, m in [(2, 3), (2, 4), (3, 4)]:
        small = perms[h]
        for tau in small:
            for sigma in small:
                cfg = _three_voter_election(tau, sigma)
                for pi, rho, host in hosts[m]:
                    a = contains_3voter(pi, rho, tau, sigma)
                    b = contains_configuration(host, cfg)
                    res.check(
                        a == b,
                        lambda: f"tau={tau} sigma={sigma} pi={pi} rho={rho}: strong-order={a} generic={b}",
                    )
    rng = random.Random(seed)
    by_values = {p.values: p for m in (3, 5) for p in _perms(m)}
    for _ in range(1000):
        tau, sigma = by_values[_random_values(rng, 3)], by_values[_random_values(rng, 3)]
        pi, rho = by_values[_random_values(rng, 5)], by_values[_random_values(rng, 5)]
        a = contains_3voter(pi, rho, tau, sigma)
        b = contains_configuration(_three_voter_election(pi, rho), _three_voter_election(tau, sigma))
        res.check(
            a == b, lambda: f"sampled tau={tau} sigma={sigma} pi={pi} rho={rho}: strong-order={a} generic={b}"
        )
    return res


def suite_cor43(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Counting avoiding (V2, V3) pairs through the strong order matches direct counting."""
    res = SuiteResult("cor43")
    patterns = [(t, s) for h in (2, 3) for t in _perms(h) for s in _perms(h)]
    for m in range(1, 5):
        hosts = [host for _, _, host in _three_voter_hosts(_perms(m))]
        for tau, sigma in patterns:
            cfg = _three_voter_election(tau, sigma)
            direct = sum(not contains_configuration(host, cfg) for host in hosts)
            via_patterns = count_avoiding_pairs(m, tau, sigma).count
            res.check(
                direct == via_patterns,
                lambda: f"m={m} tau={tau} sigma={sigma}: direct={direct} strong-order={via_patterns}",
            )
    return res


def suite_recurrence(seed: int = DEFAULT_SEED) -> SuiteResult:
    """The enriched-count recurrence matches exhaustive recognition."""
    res = SuiteResult("recurrence")
    cells = [(m, n) for m in range(1, 5) for n in range(1, 4)] + [(5, 2), (5, 3)]
    for m, n in cells:
        brute = brute_force_count(m, n, domains.is_enriched_group_separable).count
        expected = enriched_count(m, n)
        res.check(brute == expected, lambda: f"(m,n)=({m},{n}): brute-force={brute} recurrence={expected}")
        res.info.append(f"({m},{n}): brute-force={brute} recurrence={expected}")
    return res


def suite_closed_forms(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Closed forms and fixed-size formulas match the integer recurrences."""
    res = SuiteResult("closed-forms")
    for m in range(0, 11):
        for n in range(1, 9):
            exact = reduced_enriched_count(m, n)
            closed = reduced_enriched_count_closed(m, n)
            res.check(closed == exact, lambda: f"closed form at (m,n)=({m},{n}): {closed} vs {exact}")
    for selector, size in (("m3", 3), ("m4", 4), ("m5", 5)):
        for n in range(1, 11):
            formula = enriched_count_formula(selector, n)
            exact = enriched_count(size, n)
            res.check(formula == exact, lambda: f"{selector} at n={n}: formula={formula} recurrence={exact}")
    for m in range(0, 13):
        formula = enriched_count_formula("n2", m)
        exact = enriched_count(m, 2)
        res.check(formula == exact, lambda: f"n2 at m={m}: formula={formula} recurrence={exact}")
    return res


def suite_weak_bruhat(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Avoiding the pair pattern [12, 21] is exactly weak-Bruhat comparability."""
    res = SuiteResult("weak-bruhat")
    rising_falling = PairPattern.of((1, 2), (2, 1))
    for m in range(1, 6):
        perms = _perms(m)
        for pi in perms:
            for rho in perms:
                avoids = not strong_contains(rising_falling, PairPattern(pi, rho))
                below = weak_bruhat_le(rho, pi)
                res.check(
                    avoids == below,
                    lambda: f"pi={pi} rho={rho}: avoids-[12|21]={avoids} inversion-subset={below}",
                )
    return res


def suite_bound3(seed: int = DEFAULT_SEED) -> SuiteResult:
    """The 3-voter pattern bound is sound for single-crossing counts at desk scale."""
    res = SuiteResult("bound3")
    pi_set = single_crossing_pair_patterns()
    for m, n in [(3, 3), (4, 3)]:
        count = brute_force_count(m, n, domains.is_single_crossing).count
        bound = upper_bound_3config(m, n, pi_set)
        res.check(count <= bound, lambda: f"(m,n)=({m},{n}): single-crossing count {count} exceeds bound {bound}")
        res.info.append(f"({m},{n}): count={count} bound={bound}")
    return res


def suite_gamma_link(seed: int = DEFAULT_SEED) -> SuiteResult:
    """At two voters, enriched elections factor through pattern-avoiding permutations."""
    res = SuiteResult("gamma-link")
    for m in range(1, 7):
        brute = brute_force_count(m, 2, domains.is_enriched_group_separable).count
        factored = math.factorial(m) * count_avoiders(m, domains.ENRICHED_FORBIDDEN)
        res.check(brute == factored, lambda: f"m={m}: brute-force={brute} m!*avoiders={factored}")
        res.info.append(f"m={m}: brute-force={brute} m!*avoiders={factored}")
    return res


SUITES = {
    "bh-equivalence": suite_bh_equivalence,
    "thm32": suite_thm32,
    "prop33": suite_prop33,
    "thm41": suite_thm41,
    "cor43": suite_cor43,
    "recurrence": suite_recurrence,
    "closed-forms": suite_closed_forms,
    "weak-bruhat": suite_weak_bruhat,
    "bound3": suite_bound3,
    "gamma-link": suite_gamma_link,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, jobs: int = 1) -> SuiteResult:
    """Run one suite.  ``jobs`` is accepted for compatibility and ignored:
    no suite opens a process pool.  ``jobs`` below 1 raises ``ValueError``."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name](seed=seed)
