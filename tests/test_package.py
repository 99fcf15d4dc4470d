"""The package's public surface: each module's ``__all__`` is its one declaration."""

import importlib
import inspect

import pytest

import stripzeros


@pytest.mark.parametrize(
    "name", ["zeros", "argbranch", "sampled", "oscillation", "hilbert", "zoo", "logmodel"]
)
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(f"stripzeros.{name}")
    public = [
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert public
    for attr in public:
        assert attr in module.__all__, f"{name}.{attr} is missing from __all__"
        assert getattr(stripzeros, attr, None) is getattr(module, attr), attr
