"""Witnesses of failing medium, em and group-separable verdicts are pinned.

Every election at (m,n) = (4,3), plus a seeded sample at (8,4), is checked;
the witnesses of the failing verdicts are digested and compared with digests
taken from the table-scanning recognizers these replaced, so any change in
which triple, 4-subset, subset or voters a witness names shows up here.
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


@pytest.mark.parametrize("domain", ["medium", "em", "group-separable"])
@pytest.mark.parametrize("cell", ["4x3", "8x4"])
def test_witnesses_match_pins(domain, cell):
    assert _digest(domain, _cells()[cell]()) == PINNED[domain, cell]
