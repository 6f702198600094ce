"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import time
from contextlib import contextmanager

from votelace.domains import (
    ENRICHED_FORBIDDEN,
    is_enriched_group_separable,
    is_single_peaked,
)
from votelace.enumeration import (
    brute_force_count,
    enriched_count_formula,
    reduced_enriched_count,
)
from votelace.perms import count_avoiders
from votelace.verify import run_suite


@contextmanager
def criterion(number: int, summary: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {summary}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS  {summary}  ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.2f}s > {budget_seconds}s"
    )


def _suite_passes(name: str, **kwargs):
    result = run_suite(name, **kwargs)
    assert result.failures == [], f"suite {name}: {result.failures[:5]}"
    return result


def test_criterion_01_enriched_count_reproduction():
    with criterion(1, "brute-force enriched (5,2) count = 8160", 5):
        assert brute_force_count(5, 2, is_enriched_group_separable).count == 8160


def test_criterion_02_single_peaked_count_reproduction():
    with criterion(2, "brute-force single-peaked (5,2) count = 8400", 30):
        assert brute_force_count(5, 2, is_single_peaked).count == 8400


def test_criterion_03_four_candidate_coincidence():
    with criterion(3, "single-peaked (4,2) = 480 and (4,3) = 4992, matching the formula", 120):
        assert enriched_count_formula("m4", 2) == 480
        assert enriched_count_formula("m4", 3) == 24 * 4**2 * (2**4 - 3) == 4992
        assert brute_force_count(4, 2, is_single_peaked).count == 480
        assert brute_force_count(4, 3, is_single_peaked).count == 4992


def test_criterion_04_recurrence_vs_exhaustion():
    with criterion(4, "recurrence matches brute force (m <= 4, n <= 3; (5,2); (5,3))", 300):
        _suite_passes("recurrence")


def test_criterion_05_closed_forms():
    with criterion(5, "closed form exact (m <= 10, n <= 8); formulas exact", 1):
        _suite_passes("closed-forms")


def test_criterion_06_three_voter_oracle_equivalence():
    with criterion(6, "3-voter strong-order route = generic containment, zero mismatches", 180):
        result = _suite_passes("thm41")
        assert result.checked == 144 + 2304 + 20736 + 1000


def test_criterion_07_avoiding_pair_counts():
    with criterion(7, "avoiding-pair counts via strong order = direct counts (m <= 4)", 120):
        result = _suite_passes("cor43")
        assert result.checked == 4 * 40


def test_criterion_08_group_separability_equivalence():
    with criterion(8, "direct and configuration group-separability agree, zero mismatches", 180):
        result = _suite_passes("bh-equivalence")
        assert result.checked > 14_000


def test_criterion_09_recursive_and_em_equivalences():
    with criterion(9, "recursive characterization and extremes-vs-middles agree", 180):
        _suite_passes("thm32")
        _suite_passes("prop33")


def test_criterion_10_gamma_sequence():
    with criterion(10, "avoider counts n = 0..6 are 1, 1, 2, 6, 20, 68, 232", 1):
        expected = [1, 1, 2, 6, 20, 68, 232]
        assert [count_avoiders(n, ENRICHED_FORBIDDEN) for n in range(7)] == expected
        assert [reduced_enriched_count(n, 2) for n in range(7)] == expected


def test_criterion_11_weak_bruhat_equivalence():
    with criterion(11, "avoiding [12|21] = weak-order comparability, exhaustive m <= 5", 10):
        result = _suite_passes("weak-bruhat")
        assert result.checked == sum(math.factorial(m) ** 2 for m in range(1, 6))


def test_criterion_12_bound_soundness():
    with criterion(12, "single-crossing counts at (3,3), (4,3) within the pattern bound", 180):
        _suite_passes("bound3")
