"""The cache contract: every functools cache in votelace is a module attribute
bound under its own ``__name__``.

Clearing caches between benchmark units (``perfbench/program.py:caches()``)
finds them by scanning the votelace modules and keys them by ``__name__``.
A cache bound under another name, one without a name (``lru_cache`` of a
``partial``), two caches sharing a name, or a cache made inside a function
would escape that scan and leave later units warm.
"""

import functools
import gc
import importlib
import pkgutil

import votelace
from votelace import enumeration, pairs
from votelace.domains import DOMAINS
from votelace.elections import Election, contains_configuration

MODULES = [votelace] + [
    importlib.import_module(f"votelace.{info.name}")
    for info in pkgutil.iter_modules(votelace.__path__)
    if not info.name.startswith("_")
]


def _is_cache(value) -> bool:
    return callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None))


def _origin(cache) -> str:
    # the module of the function a cache wraps, through any partials
    target = cache.__wrapped__
    while isinstance(target, functools.partial):
        target = target.func
    return getattr(target, "__module__", None) or ""


def _module_caches() -> dict:
    # every cache bound in a votelace module's namespace, by binding name,
    # each with the modules that bind it
    found = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if _is_cache(value):
                found.setdefault(name, set()).add(value)
    return found


def test_module_caches_are_bound_under_their_own_names():
    found = _module_caches()
    assert found, "no caches found"
    for name, values in found.items():
        for value in values:
            assert getattr(value, "__name__", None) == name, (name, value)
        # one cache per name, so keying them by name loses none
        assert len(values) == 1, (name, values)


def test_every_cache_made_by_votelace_code_is_a_module_cache():
    # run every recognizer (with its witness), a count and the lookups, then
    # look for cache wrappers anywhere in memory that the modules do not bind
    e = Election.from_rows([(1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2)])
    for recognizer in DOMAINS.values():
        verdict = recognizer(e)
        if not verdict.holds:
            verdict.witness
    enumeration.brute_force_count(3, 2, DOMAINS["single-peaked"])
    pairs.count_pair_avoiders(3, enumeration.single_crossing_pair_patterns())
    contains_configuration(e, Election.from_rows([(1, 2), (2, 1)]))
    bound = {id(value) for values in _module_caches().values() for value in values}
    stray = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper) and _origin(obj).startswith("votelace") and id(obj) not in bound
    ]
    assert not stray, stray


def _containers() -> dict:
    # the size of every plain container bound in a votelace module's
    # namespace, but the interpreter's shared builtins
    return {
        (module.__name__, name): len(value)
        for module in MODULES
        for name, value in vars(module).items()
        if name != "__builtins__" and isinstance(value, (dict, list, set, bytearray))
    }


def test_no_module_container_grows_as_a_memo():
    # a memo outside functools escapes the benchmark's per-unit clearing and
    # leaves later units warm: counting every domain, a failing check with
    # its witness and a verification suite leave every module-level dict,
    # list, set and bytearray at its size
    from votelace.verify import run_suite

    before = _containers()
    assert before, "no containers found"
    for recognizer in DOMAINS.values():
        enumeration.brute_force_count(5, 2, recognizer)
    e = Election.from_rows([(1, 2, 3, 4, 5, 6), (3, 1, 6, 2, 5, 4), (6, 4, 2, 5, 1, 3), (2, 5, 4, 6, 3, 1)])
    verdict = DOMAINS["single-peaked"](e)
    assert not verdict.holds and verdict.witness is not None
    assert run_suite("thm32").passed
    assert _containers() == before
