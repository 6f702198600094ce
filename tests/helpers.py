"""Shared test helpers."""

from itertools import permutations as itertools_permutations
from math import comb

from votelace.elections import Election
from votelace.perms import Permutation


def perm(compact: str) -> Permutation:
    """Build a permutation from compact one-line notation, e.g. perm("2413")."""
    return Permutation(tuple(int(ch) for ch in compact))


def election(*rows: str) -> Election:
    """Build an election from compact ranking strings, e.g. election("1234", "2413")."""
    return Election.from_rows([tuple(int(ch) for ch in row) for row in rows])


def symmetric_group(n: int) -> list[Permutation]:
    return [Permutation(v) for v in itertools_permutations(range(1, n + 1))]


def split_fields(sig: int, widths) -> list[int]:
    """Cut a packed signature into consecutive fields of the given bit
    widths, lowest first; no bit may lie above the last field."""
    fields = []
    for width in widths:
        fields.append(sig & ((1 << width) - 1))
        sig >>= width
    assert sig == 0, "bits above the last field"
    return fields


def or_layout(m: int, medium: bool, pair_slots: int) -> tuple[int, ...]:
    """Field widths of an OR-fold signature over m candidates: three medium
    fields of C(m,3) bits (when ``medium``), then two pair fields of
    ``pair_slots`` bits per 4-subset."""
    t = comb(m, 3) if medium else 0
    p = pair_slots * comb(m, 4)
    return (t, t, t, p, p)
