"""The package's public surface: each module's ``__all__`` is its one declaration."""

import importlib
import inspect
import types
from pathlib import Path

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


def test_tracer_layers_name_package_functions():
    # the benchmark's tracer looks every layer up by name and takes a method
    # from its class's __dict__, so a dropped or renamed one would break only
    # traced runs; its source is run here, writing no bytecode beside it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    assert spans.LAYERS
    for mod_name, attr, _metric, _counter in spans.LAYERS:
        module = importlib.import_module(f"stripzeros.{mod_name}")
        owner, _, meth = attr.rpartition(".")
        if owner:
            assert meth in vars(getattr(module, owner)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
