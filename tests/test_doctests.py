import doctest
import importlib
import pkgutil

import pytest

import votelace

MODULES = [
    f"votelace.{info.name}" for info in pkgutil.iter_modules(votelace.__path__) if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
