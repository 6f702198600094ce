"""Permutation patterns, pair patterns, and forbidden configurations in
restricted elections: recognizers, exact enumeration, and exhaustive
small-instance verification."""

from votelace.elections import (
    Election,
    all_elections,
    contains_configuration,
    find_embedding,
    pair_permutation,
    parse_election,
    restrict,
    sub_election,
)
from votelace.domains import DOMAINS, DomainVerdict, Witness
from votelace.enumeration import (
    CountReport,
    brute_force_count,
    contains_3voter,
    count_avoiding_pairs,
    enriched_count,
    enriched_count_formula,
    reduced_enriched_count,
    reduced_enriched_count_closed,
    single_crossing_pair_patterns,
    three_voter_pattern_set,
    upper_bound_3config,
)
from votelace.errors import GuardExceeded, ParseError
from votelace.pairs import (
    PairPattern,
    count_pair_avoiders,
    inversion_set,
    strong_contains,
    strong_occurrences,
    weak_bruhat_le,
)
from votelace.perms import (
    Permutation,
    compose,
    contains_pattern,
    count_avoiders,
    identity,
    occurrences,
)

__version__ = "0.1.0"
