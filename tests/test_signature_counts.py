"""Counting in signature space agrees with recognizing every election."""

import functools
import math

import pytest

from votelace.domains import DOMAINS, ENRICHED_FORBIDDEN, GROUP_SEPARABLE_FORBIDDEN
from votelace.elections import all_elections
from votelace.enumeration import brute_force_count
from votelace.errors import GuardExceeded

SMALL_CELLS = [
    (m, n) for m in range(1, 9) for n in range(1, 7) if math.factorial(m) ** n <= 20_000
]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_count_matches_recognizing_every_election(domain):
    recognizer = DOMAINS[domain]
    for m, n in SMALL_CELLS:
        oracle = sum(recognizer(e).holds for e in all_elections(m, n))
        assert brute_force_count(m, n, recognizer).count == oracle, (domain, m, n)


def test_jobs_split_gives_the_same_count():
    for domain, recognizer in DOMAINS.items():
        solo = brute_force_count(3, 3, recognizer).count
        assert brute_force_count(3, 3, recognizer, jobs=2).count == solo, domain


@pytest.mark.parametrize("m, n", [(2, 7), (9, 1)])
def test_recognizer_cap_is_checked_once_per_count(m, n):
    with pytest.raises(GuardExceeded):
        brute_force_count(m, n, DOMAINS["medium"])


@pytest.mark.parametrize("m, n", [(0, 2), (3, 0), (-1, 2)])
def test_empty_sizes_are_rejected(m, n):
    with pytest.raises(ValueError):
        brute_force_count(m, n, DOMAINS["medium"])


def test_plain_callable_is_rejected():
    with pytest.raises(TypeError):
        brute_force_count(3, 2, lambda e: True)


def test_wrapped_recognizer_counts_the_same():
    recognizer = DOMAINS["enriched"]

    @functools.wraps(recognizer)
    def wrapped(e):
        return recognizer(e)

    assert brute_force_count(4, 2, wrapped).count == brute_force_count(4, 2, recognizer).count == 480


@pytest.mark.parametrize("patterns", [GROUP_SEPARABLE_FORBIDDEN, ENRICHED_FORBIDDEN])
def test_pairwise_pattern_sets_are_closed_under_inversion(patterns):
    # the pairwise combines check each unordered voter pair one way round only
    members = set(patterns)
    assert {p.inverse() for p in members} == members
