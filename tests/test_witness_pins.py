"""Witnesses of failing verdicts are pinned.

Every election at (m,n) = (4,3), plus a seeded sample, is checked; the
witnesses of the failing verdicts are digested and compared with digests
taken from earlier implementations, so any change in which triple, 4-subset,
subset, voters or candidates a witness names shows up here.  Medium, em and
group-separable are pinned against the table-scanning recognizers their
bitmask combines replaced, on a sample at (8,4).  Single-crossing and
single-peaked are pinned against the voter-ordering search and the axis scan
(minimized witnesses, so every sub-election the minimizer tries counts), on
samples at (8,6) and (6,4).  Group-separable-bh, enriched and
enriched-recursive are pinned against the pairwise pattern-search combine
and the per-call re-normalizing recursion, at (4,3) and on the (8,4) sample.
The three minimized domains are also pinned at the largest sizes a ``check``
request reaches them with (single-peaked and enriched-recursive at (8,6),
single-crossing at (6,4)), taken while every minimizer trial still built
its sub-election.
"""

import hashlib
import random

import pytest

from votelace import domains
from votelace.elections import Election, all_elections

PINNED = {
    # (domain, cell): (failing verdicts, sha256 of their witnesses)
    ("medium", "4x3"): (7680, "42100a1c6a36d624d29e1b382f81e0947e52d708a8a8c0123b4c4e02cc870fcb"),
    ("em", "4x3"): (5760, "73ce7021aa84c8ac4cfb7c90e145578b9fefae9a2c74c217671a33ff77d9a0e8"),
    ("group-separable", "4x3"): (7968, "21fabb66bd2e382aae2609a67c5bd4f3ca820391e669e3e0356d5be421b23886"),
    ("medium", "8x4"): (160, "6536f3ad9d7a6880419575138391bff99657bd4c3c7a80238cf243e91aa21b57"),
    ("em", "8x4"): (266, "0884d795bd79695eae037de88d6b55082c51982e9151d30a3478803ad889c7cc"),
    ("group-separable", "8x4"): (231, "120e9f81f2755a8b0731f019b7850338ebbd94c195c8999b96bdb835be8fbc9f"),
    ("single-crossing", "4x3"): (4656, "319a1b9a089d0c2f03ec3ccad92c00b0a7349cb5e15292429ccc33f41f03d4c5"),
    ("single-crossing", "8x6"): (181, "7a69315dbb29ff93f428de31c7de4f83fa55b2f203a0aa311c0ec0bed92734c0"),
    ("single-peaked", "4x3"): (8832, "933d09d4afcb32bbc081a44f00500ef773df5b89e52b0014e343f2cf5c83722b"),
    ("single-peaked", "6x4"): (238, "2711858f0481635ba84362024753053930c3190263d1bc1d9e259f0f288d67ee"),
    ("single-peaked", "8x6"): (282, "df6911d42b1c75b55d843ce9ac4384aac8ced62cb6d978c22c3a32de493b74f4"),
    ("single-crossing", "6x4"): (154, "0ec66da8b1c2b17634381f69932211ffa6f01183b5360ede6b828a83dc9ac31d"),
    ("group-separable-bh", "4x3"): (7968, "7fa2845d894df8d2caa483e15d122651cbc8a5a8c9d5879e1a820d6dab463c5f"),
    ("group-separable-bh", "8x4"): (231, "7165ce9bfb9e5ce5106dee26d4773f035790f81030c491fb4e8e98cfb5a27d01"),
    ("enriched", "4x3"): (8832, "15f9ff0847f65a00e7b1398a3f24c5aec098eb6e9c6906205fd17838beb1ab9a"),
    ("enriched", "8x4"): (271, "3c74d504f49b859e9be138b0af9dd6dd2279ea2a1195a395884a5370e8315904"),
    ("enriched-recursive", "4x3"): (8832, "583c8a7dccd21b17dbb13f07e8002bac7eaad3736a971618424bd3075bd28d07"),
    ("enriched-recursive", "8x4"): (271, "6c9dfa9ab5ee7593c4b70021a6a39459815700ce69745125f6f944e272c13c57"),
    ("enriched-recursive", "8x6"): (283, "c023837227ca8bb0b09f704e26cd3838af5987d7cdc2fdd33fa56b96b38032b7"),
}


def _sample(m: int, n: int, count: int, seed: int) -> list[Election]:
    """A third each of uniform rows, near-identity rows (a few adjacent swaps
    each) and rows drawn from two rankings (always medium-restricted), so that
    witnesses land on late triples and on subsets larger than three too."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        pair = [rng.sample(range(1, m + 1), m) for _ in range(2)]
        rows = []
        for _ in range(n):
            if k % 3 == 0:
                row = rng.sample(range(1, m + 1), m)
            elif k % 3 == 1:
                row = list(range(1, m + 1))
                if rng.random() < 0.5:
                    row.reverse()
                for _ in range(rng.randrange(3)):
                    i = rng.randrange(m - 1)
                    row[i], row[i + 1] = row[i + 1], row[i]
            else:
                row = rng.choice(pair)
            rows.append(row)
        out.append(Election.from_rows(rows))
    return out


def _cells():
    return {
        "4x3": lambda: all_elections(4, 3),
        "8x4": lambda: _sample(8, 4, 300, seed=20190625),
        "8x6": lambda: _sample(8, 6, 300, seed=20190625),
        "6x4": lambda: _sample(6, 4, 300, seed=20190625),
    }


def _digest(domain: str, elections) -> tuple[int, str]:
    recognizer = domains.DOMAINS[domain]
    h = hashlib.sha256()
    failing = 0
    for e in elections:
        verdict = recognizer(e)
        if not verdict.holds:
            failing += 1
            w = verdict.witness
            h.update(f"{e.to_text()!r}|{w.voters}|{w.candidates}\n".encode())
    return failing, h.hexdigest()


@pytest.mark.parametrize("cell, domain", sorted((cell, domain) for domain, cell in PINNED))
def test_witnesses_match_pins(domain, cell):
    assert _digest(domain, _cells()[cell]()) == PINNED[domain, cell]
