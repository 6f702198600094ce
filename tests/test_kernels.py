"""Each boolean kernel answers as its search stream does, on every input.

A boolean is a lookup (strong signatures, configuration keys) or the first
step of a search; either way it must say whether the search's stream yields
something, or raise the ``ValueError`` the stream raises: at and past the
32-entry input cap, and on malformed input.
"""

import re

import pytest

from votelace import kernels
from votelace.elections import Election, contains_configuration
from votelace.perms import Permutation

#: each boolean kernel with the search whose stream it decides
STREAMS = {
    "contains_pattern": kernels.pattern_occurrences,
    "strong_contains": kernels.strong_occurrences,
    "contains_configuration": kernels.configuration_embeddings,
}


def _outcome(kernel, *args):
    # the value a kernel returns, or the message of the ValueError it raises
    try:
        return kernel(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _ident(n):
    return tuple(range(1, n + 1))


def _cap_cases():
    """(n, kernel name, arguments): kernel calls with n entries, at and past
    the 32-entry cap, each argument long in turn, plus the trivial answers
    (empty or oversized pattern, too few voters or candidates) on long inputs."""
    for n in range(31, 35):
        long, rev = _ident(n), _ident(n)[::-1]
        yield n, "contains_pattern", (long, (2, 1))
        yield n, "contains_pattern", (long, long)
        yield n, "contains_pattern", ((1, 2), long)
        yield n, "contains_pattern", (long, ())
        yield n, "strong_contains", (long, long, (1, 2), (2, 1))
        yield n, "strong_contains", (long, rev, (1, 2), (2, 1))
        yield n, "strong_contains", ((1, 2), (1, 2), long, long)
        yield n, "strong_contains", ((1, 2), (2, 1), (1,), long)
        yield n, "strong_contains", (long, long, (), ())
        yield n, "strong_contains", (long, long, long, rev)
        yield n, "contains_configuration", ((long,) * 2, ((1, 2), (2, 1)))
        yield n, "contains_configuration", (((1, 2),) * (n - 1) + ((2, 1),), ((1, 2), (2, 1)))
        yield n, "contains_configuration", ((long,), ((1, 2), (1, 2)))
        yield n, "contains_configuration", (((1, 2),) * n, ((1, 2, 3),))
        yield n, "contains_configuration", ((long,) * n, ())
        yield n, "contains_configuration", ((long,) * n, ((),))
        yield n, "fits_axis", (long, tuple(range(n)))
        yield n, "fits_axis", ((1, 3, 2) + long[3:], tuple(range(n)))
        yield n, "fits_axis", ((1,), tuple(range(n)))


def _stream_outcome(name, args):
    # what the boolean should answer: whether the stream yields something
    if name == "fits_axis":
        return _outcome(_fits_axis_by_intervals, *args)
    return _outcome(lambda *a: next(STREAMS[name](*a), None) is not None, *args)


def _fits_axis_by_intervals(order, axis_pos):
    # fits_axis has no stream: every prefix of the order must span an
    # interval of axis positions
    kernels._refuse_long(order, axis_pos)
    return all(
        max(axis_pos[c - 1] for c in order[:k]) - min(axis_pos[c - 1] for c in order[:k]) == k - 1
        for k in range(1, len(order) + 1)
    )


def test_each_boolean_answers_as_its_stream_at_the_input_cap():
    outcomes = set()
    for n, name, args in _cap_cases():
        want = _stream_outcome(name, args)
        assert _outcome(getattr(kernels, name), *args) == want, (n, name, args)
        outcomes.add(want if isinstance(want, bool) else want.split(":")[0])
    assert outcomes == {True, False, "ValueError"}


def test_malformed_input_is_refused_as_the_stream_refuses_it():
    long = tuple(range(1, 32))
    cases = [
        ("strong_contains", ((1, 2), (2, 1), (1,), long)),  # unequal pattern components
        ("strong_contains", ((1, 2), (1, 2), (31, 1), (1, 2))),  # not a permutation
        ("strong_contains", ((1, 2, 3), (1, 2), (1,), (1,))),  # unequal host components
        ("strong_contains", ((2, 2), (1, 2), (1,), (1,))),
        ("strong_contains", ((1, 2), (2, 1), (1, 2), (1, 1))),
        ("strong_contains", ((1, 2), (2, 1), (2, 1), (2, 1))),  # formed nowhere
        ("strong_contains", ((1, 2), (2, 1), (1, 2, 3), (1, 2, 3))),  # longer than the host
        ("strong_contains", (long[:20], long[:20][::-1], long[:10], long[:10][::-1])),  # past MAX_SUBSETS
        ("strong_contains", (long[:20], long[:20], long[:10], long[:10])),
        ("contains_configuration", (((1, 2), (2, 2)), ((1, 2),))),
        ("contains_configuration", (((1, 2), (2, 1)), ((1, 3),))),
        ("contains_configuration", (((1, 2), (2, 1)), ((1, 2), (1,)))),
        ("contains_configuration", (((1, 2), (2, 1)), ((2, 1), (1, 2)))),
    ]
    outcomes = set()
    for name, args in cases:
        want = _stream_outcome(name, args)
        assert _outcome(getattr(kernels, name), *args) == want, (name, args)
        outcomes.add(want if isinstance(want, bool) else want.split(":")[1].strip().split()[0])
    assert outcomes == {True, False, "components", "not"}
    # the pattern search reads values only by comparing them, so an entry
    # that is not a permutation would be searched rather than refused
    for args in [((3.5, 1, 2), (2, 1)), ((1, 1, 2), (1, 2)), ((1, 2, 3), (1, 1)), ((1, 2), (True, 2)), ((2, 3), (1,))]:
        want = _stream_outcome("contains_pattern", args)
        assert want.startswith("ValueError: not a permutation"), args
        assert _outcome(kernels.contains_pattern, *args) == want, args
    # 1.0 and True equal 1, so a cached signature of the equal valid tuple
    # would answer them: each is refused on cold caches, and again after
    # the equal valid call has warmed them
    valid = ((1, 2), (2, 1), (1,), (1,))
    for args in [((1, 2), (2, 1), (1.0,), (1,)), ((True, 2), (2, 1), (1,), (1,))]:
        want = _stream_outcome("strong_contains", args)
        assert want.startswith("ValueError: not a permutation"), args
        kernels.strong_signature.cache_clear()
        kernels.subset_patterns.cache_clear()
        assert _outcome(kernels.strong_contains, *args) == want, ("cold", args)
        assert kernels.strong_contains(*valid)
        assert _outcome(kernels.strong_contains, *args) == want, ("warm", args)


def test_fits_axis_refuses_malformed_input_before_reading_it():
    # an order that is not a permutation of 1..len(order) would be read at
    # axis_pos[-1] or past the axis's end, as would an axis shorter than the
    # order; a longer axis is read at the order's candidates only
    cases = [
        (((1, 0), (0, 1)), "ValueError: not a permutation of 1..2: (1, 0)"),
        (((1, 1), (0, 1)), "ValueError: not a permutation of 1..2: (1, 1)"),
        (((2, 3), (0, 1, 2)), "ValueError: not a permutation of 1..2: (2, 3)"),
        (((1, 2, 3), (0, 1)), "ValueError: axis of 2 positions is shorter than the order (1, 2, 3)"),
        (((2, 1), (0, 1)), True),
        (((1, 2), (1, 0, 2)), True),
        (((1, 2), (0, 2, 1)), False),
        (((1,), (4, 0, 1, 2, 3)), True),
    ]
    for args, want in cases:
        assert _outcome(kernels.fits_axis, *args) == want, args


def test_rankings_of_anything_but_ints_are_refused():
    # 1.0 and True sort and compare like 1, but a permutation or a ranking
    # holds ints only: each is refused where it enters, not deep inside a
    # search that later meets a float or a bool
    for build, entries in [
        (lambda: Permutation((2.0, 1.0)), "(2.0, 1.0)"),
        (lambda: Permutation((True, 2)), "(True, 2)"),
        (lambda: Permutation(("1", 2)), "('1', 2)"),
        (lambda: Election(3, [(1, 2, 3), (1.0, 2.0, 3.0)]), "(1.0, 2.0, 3.0)"),
        (lambda: Election(3, [(True, 3, 2)]), "(True, 3, 2)"),
        (lambda: kernels.fits_axis((1.0, 2.0), (0, 1)), "(1.0, 2.0)"),
        (lambda: kernels.fits_axis((2, True), (0, 1)), "(2, True)"),
    ]:
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.\d: " + re.escape(entries)):
            build()


def test_configuration_keys_refuse_past_the_cap():
    # the key route of elections refuses a host with more than 32 voters or
    # candidates, as the search does, and decides one with at most 32
    cfg = Election.from_rows([(1, 2), (2, 1)])
    for n in range(31, 35):
        wide = Election.from_rows([tuple(range(1, n + 1)), tuple(range(n, 0, -1))])
        tall = Election.from_rows([(1, 2)] * (n - 1) + [(2, 1)])
        for host in (wide, tall):
            want = _stream_outcome("contains_configuration", (host.preferences, cfg.preferences))
            assert _outcome(contains_configuration, host, cfg) == want
            assert want == (True if n <= 32 else "ValueError: kernel input longer than 32")


def test_python_kernels_refuse_past_the_cap():
    # the cap refuses nothing up to 32 entries, and every pattern, strong or
    # axis check past it
    for n, name, args in _cap_cases():
        refused = _outcome(getattr(kernels, name), *args) == "ValueError: kernel input longer than 32"
        if n <= 32:
            assert not refused, (name, args)
        elif name != "contains_configuration":
            assert refused, (name, args)
