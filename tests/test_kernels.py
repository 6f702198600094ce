"""The compiled kernels must agree with the pure-Python twins everywhere.

The compiled kernels come from the ``ckernels`` fixture, which builds the
tracked ``_ckernels.c``; their tests skip only when no C compiler is on PATH.
"""

import importlib.util
import os
import random
import subprocess
import sys
from itertools import permutations

import pytest

from votelace import _pykernels

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def ck(ckernels):
    if ckernels is None:
        pytest.skip("no C compiler on PATH")
    return ckernels


def test_c_source_quotes_the_current_pyx():
    # the benchmark's own staleness check: _ckernels.c quotes every .pyx line
    # it was generated from, and a .pyx edit without regenerating the C shows
    spec = importlib.util.spec_from_file_location("perfbench_program", os.path.join(ROOT, "perfbench", "program.py"))
    program = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(program)
    with open(program.C_SOURCE, encoding="utf-8") as c, open(program.PYX_SOURCE, encoding="utf-8") as pyx:
        assert program.stale_lines(c.read(), pyx.read()) == []


def test_contains_pattern_agrees_exhaustively(ck):
    hosts = [p for n in range(6) for p in permutations(range(1, n + 1))]
    pats = [p for k in range(4) for p in permutations(range(1, k + 1))]
    for host in hosts:
        for pat in pats:
            assert ck.contains_pattern(host, pat) == _pykernels.contains_pattern(host, pat)


def test_strong_contains_agrees_exhaustively(ck):
    # hosts of length 0-5 and patterns of length 0-3: the empty pattern, and
    # patterns longer than the host, included
    def pairs(lengths):
        return [
            (a, b) for k in lengths for a in permutations(range(1, k + 1)) for b in permutations(range(1, k + 1))
        ]

    bigs, smalls = pairs(range(6)), pairs(range(4))
    for b1, b2 in bigs:
        for s1, s2 in smalls:
            assert ck.strong_contains(b1, b2, s1, s2) == _pykernels.strong_contains(b1, b2, s1, s2)


def test_contains_configuration_agrees_on_random_cases(ck):
    rng = random.Random(99)

    def ranks(m):
        order = list(range(m))
        rng.shuffle(order)
        return tuple(order)

    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        l, h = rng.randint(1, 4), rng.randint(1, 5)
        host = tuple(ranks(m) for _ in range(n))
        cfg = tuple(ranks(h) for _ in range(l))
        assert ck.contains_configuration(host, cfg) == _pykernels.contains_configuration(host, cfg)


def test_fits_axis_agrees_exhaustively(ck):
    for order in permutations((1, 2, 3, 4)):
        for axis in permutations(range(4)):
            assert ck.fits_axis(order, axis) == _pykernels.fits_axis(order, axis)


def _import_kernels(backend):
    probe = "from votelace import kernels; print(kernels.active_backend())"
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "VOTELACE_BACKEND": backend},
        capture_output=True,
        text=True,
    )


def test_unknown_backend_rejected():
    out = _import_kernels("fortran")
    assert out.returncode != 0
    assert "ValueError" in out.stderr and "fortran" in out.stderr


def test_backend_env_var_honored():
    out = _import_kernels("python")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"


def test_compiled_kernels_reject_oversized_input(ck):
    big = tuple(range(1, 40))
    with pytest.raises(ValueError):
        ck.contains_pattern(big, (1, 2))


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
        ranks = tuple(range(n))
        yield n, "contains_configuration", ((ranks,) * 2, ((0, 1), (1, 0)))
        yield n, "contains_configuration", (((0, 1),) * (n - 1) + ((1, 0),), ((0, 1), (1, 0)))
        yield n, "contains_configuration", ((ranks,), ((0, 1), (0, 1)))
        yield n, "contains_configuration", (((0, 1),) * n, ((0, 1, 2),))
        yield n, "contains_configuration", ((ranks,) * n, ())
        yield n, "contains_configuration", ((ranks,) * n, ((),))
        yield n, "fits_axis", (long, tuple(range(n)))
        yield n, "fits_axis", ((1, 3, 2) + long[3:], tuple(range(n)))
        yield n, "fits_axis", ((1,), tuple(range(n)))


def test_both_backends_refuse_alike_at_the_input_cap(ck):
    outcomes = set()
    for n, name, args in _cap_cases():
        want = _outcome(getattr(ck, name), *args)
        assert _outcome(getattr(_pykernels, name), *args) == want, (n, name, args)
        outcomes.add(want)
    assert outcomes == {True, False, "ValueError: kernel input longer than 32"}


def test_python_kernels_refuse_past_the_cap():
    # the same refusals where no compiler is at hand: nothing up to 32
    # entries, and every pattern, strong or axis search past it
    for n, name, args in _cap_cases():
        refused = isinstance(_outcome(getattr(_pykernels, name), *args), str)
        if n <= 32:
            assert not refused, (name, args)
        elif name != "contains_configuration":
            assert refused, (name, args)
