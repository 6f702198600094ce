"""Value semantics of the package's records: repr, equality, hashing,
immutability, pickling and copying, and the constructors' refusals."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import re

import pytest

import votelace
from votelace.domains import Witness
from votelace.elections import Election
from votelace.enumeration import CountReport
from votelace.pairs import PairPattern
from votelace.perms import Frozen, Permutation, Record
from votelace.verify import SuiteResult

#: per immutable record: a maker (each call builds a new, equal value), the
#: value's repr, a different value of the same class, and one of its fields
FROZEN = {
    "Permutation": (
        lambda: Permutation((2, 4, 1, 3)),
        "Permutation((2, 4, 1, 3))",
        Permutation((2, 4, 3, 1)),
        "values",
    ),
    "Election": (
        lambda: Election(2, ((1, 2), (2, 1))),
        "Election(num_candidates=2, preferences=((1, 2), (2, 1)))",
        Election(2, ((2, 1), (1, 2))),
        "preferences",
    ),
    "PairPattern": (
        lambda: PairPattern(Permutation((1, 2)), Permutation((2, 1))),
        "PairPattern(first=Permutation((1, 2)), second=Permutation((2, 1)))",
        PairPattern(Permutation((2, 1)), Permutation((1, 2))),
        "first",
    ),
    "Witness": (
        lambda: Witness((1, 2), (1, 2, 3)),
        "Witness(voters=(1, 2), candidates=(1, 2, 3))",
        Witness((1, 3), (1, 2, 3)),
        "voters",
    ),
    "CountReport": (
        lambda: CountReport(4, 2, "enriched", 360, "brute-force"),
        "CountReport(m=4, n=2, label='enriched', count=360, method='brute-force')",
        CountReport(4, 2, "enriched", 360, "formula"),
        "count",
    ),
}


def _subclasses(base: type) -> list[type]:
    # every subclass of ``base`` defined in the package, at any depth
    for module in pkgutil.iter_modules(votelace.__path__):
        if module.name != "__main__":
            importlib.import_module(f"votelace.{module.name}")
    found, todo = [], [base]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("votelace."):
                found.append(cls)
                todo.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


RECORDS = [cls for cls in _subclasses(Record) if cls is not Frozen]
FROZEN_RECORDS = _subclasses(Frozen)


def _suite_result() -> SuiteResult:
    result = SuiteResult("thm32")
    result.check(True, lambda: "unused")
    result.check(False, lambda: "pi=2 1")
    result.info.append("(3,3): count=204")
    return result


def _round_trips(value):
    yield from (pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    yield copy.copy(value)
    yield copy.deepcopy(value)


@pytest.mark.parametrize("name", FROZEN)
def test_repr_is_pinned_and_rebuilds_the_value(name):
    make, text, _, _ = FROZEN[name]
    assert repr(make()) == text
    assert eval(text) == make()


@pytest.mark.parametrize("name", FROZEN)
def test_equal_values_compare_and_hash_alike(name):
    make, _, other, _ = FROZEN[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_other_types_are_unequal(name):
    make, _, _, field = FROZEN[name]
    value = make()
    for stranger in (getattr(value, field), (getattr(value, field),), None, object(), str(value)):
        assert value != stranger and not value == stranger
        assert value.__eq__(stranger) is NotImplemented


@pytest.mark.parametrize("name", FROZEN)
def test_fields_refuse_writes(name):
    make, _, other, field = FROZEN[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


@pytest.mark.parametrize("name", FROZEN)
def test_pickle_and_copy_round_trip(name):
    make, _, _, _ = FROZEN[name]
    value = make()
    for twin in _round_trips(value):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_names_its_fields(cls):
    # equality, the repr, and for a frozen record the hash and the pickle, read it
    assert isinstance(cls._fields, tuple) and cls._fields
    assert all(isinstance(name, str) for name in cls._fields)


@pytest.mark.parametrize("cls", FROZEN_RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_fields_are_the_constructor_parameters(cls):
    # the pickle and copy call the constructor with the field tuple
    assert cls._fields == tuple(inspect.signature(cls).parameters)


def test_the_examples_cover_every_frozen_record():
    assert sorted(cls.__name__ for cls in FROZEN_RECORDS) == sorted(FROZEN)


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_hash_of_the_field_tuple(name):
    make, _, _, _ = FROZEN[name]
    value = make()
    assert hash(value) == hash(tuple(getattr(value, field) for field in type(value)._fields))


def test_election_round_trips_with_its_cached_key_sets():
    e = Election(3, ((1, 2, 3), (3, 1, 2)))
    assert e.configuration_keys[2, 2]
    for twin in _round_trips(e):
        assert twin == e and twin.configuration_keys[2, 2] == e.configuration_keys[2, 2]


def test_election_pickles_its_fields_only():
    # the pickle goes through the constructor, so the key sets are rebuilt
    e = Election(3, ((1, 2, 3), (3, 1, 2)))
    assert e.configuration_keys[2, 2]
    for twin in _round_trips(e):
        assert "configuration_keys" not in vars(twin)


def test_suite_result_is_mutable_and_unhashable():
    result = _suite_result()
    assert repr(result) == "SuiteResult(name='thm32', checked=2, failures=['pi=2 1'], info=['(3,3): count=204'])"
    assert repr(SuiteResult("x")) == "SuiteResult(name='x', checked=0, failures=[], info=[])"
    assert result == _suite_result() and not result != _suite_result()
    assert result != SuiteResult("thm32") and result != "thm32"
    assert not result.passed
    for twin in _round_trips(result):
        assert type(twin) is SuiteResult and twin == result
    with pytest.raises(TypeError):
        hash(result)
    result.checked = 0
    assert result.checked == 0


@pytest.mark.parametrize("build, error, message", [
    (lambda: Permutation((1, 1)), ValueError, "not a permutation of 1..2: (1, 1)"),
    (lambda: Permutation((0, 1)), ValueError, "not a permutation of 1..2: (0, 1)"),
    (lambda: Permutation((2, 3)), ValueError, "not a permutation of 1..2: (2, 3)"),
    (lambda: Election(0, ()), ValueError, "an election needs at least one candidate and one voter"),
    (lambda: Election(2, ()), ValueError, "an election needs at least one candidate and one voter"),
    (lambda: Election(0, ((),)), ValueError, "an election needs at least one candidate and one voter"),
    (lambda: Election(2, ((1, 2), (2, 2))), ValueError, "not a permutation of 1..2: (2, 2)"),
    (lambda: Election(2, ((1, 2, 3),)), ValueError, "not a permutation of 1..2: (1, 2, 3)"),
    (lambda: PairPattern(Permutation((1, 2)), Permutation((1, 2, 3))), ValueError,
     "components differ in length: 2 vs 3"),
    (lambda: CountReport(3, 2, "x", 1.5, "formula"), TypeError, "counts are exact integers, got 1.5"),
    (lambda: CountReport(3, 2, "x", "36", "formula"), TypeError, "counts are exact integers, got '36'"),
    (lambda: CountReport(3, 2, "x", -1, "formula"), ValueError, "counts are nonnegative"),
    (lambda: CountReport(3, 2, "x", 36, "guesswork"), ValueError, "unknown method 'guesswork'"),
], ids=[
    "perm-repeat", "perm-zero", "perm-gap", "election-empty", "election-no-voter", "election-no-candidate",
    "election-repeat", "election-long-ranking", "pair-lengths", "count-float", "count-str", "count-negative",
    "count-method",
])
def test_constructors_refuse(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_constructors_take_iterables_and_keywords():
    assert Permutation(iter([2, 1])).values == (2, 1)
    assert Permutation(values=[2, 1]) == Permutation((2, 1))
    e = Election(num_candidates=2, preferences=[[1, 2], Permutation((2, 1))])
    assert e.preferences == ((1, 2), (2, 1)) and e == Election(2, ((1, 2), (2, 1)))
    assert PairPattern(first=Permutation((1,)), second=Permutation((1,))) == PairPattern.of((1,), (1,))
    assert Witness(voters=(1,), candidates=(1, 2)) == Witness((1,), (1, 2))
    assert CountReport(m=1, n=1, label="x", count=1, method="formula") == CountReport(1, 1, "x", 1, "formula")
