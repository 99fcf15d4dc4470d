"""The package's public surface: each module's ``__all__`` is its one declaration."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import stripzeros
from stripzeros import logmodel


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


def _spans():
    """The benchmark's tracer module, run from source, writing no bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    return spans


def test_tracer_layers_name_package_functions():
    # the benchmark's tracer looks every layer up by name and takes a method
    # from its class's __dict__, so a dropped or renamed one would break only
    # traced runs
    spans = _spans()
    assert spans.LAYERS
    for mod_name, attr, _metric, _counter in spans.LAYERS:
        module = importlib.import_module(f"stripzeros.{mod_name}")
        owner, _, meth = attr.rpartition(".")
        if owner:
            assert meth in vars(getattr(module, owner)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_tracer_counts_the_kernel_pairs_of_the_scan(monkeypatch):
    # the tracer reads the zeros and the grid of hlf_samples, and the zeros
    # and the radius of phi_sum, from their positional arguments, so a change
    # to their shape breaks only traced runs
    spans = _spans()
    calls = {"hlf_samples": [], "phi_sum": []}

    def record(name):
        fn = getattr(logmodel, name)

        def recorder(*args, **kwargs):
            calls[name].append((args, kwargs, fn(*args, **kwargs)))
            return calls[name][-1][2]

        monkeypatch.setattr(logmodel, name, recorder)

    record("hlf_samples")
    record("phi_sum")
    stripzeros.theorem_divergence_scan(
        [(3, stripzeros.cluster_model(3)), (10, stripzeros.sine_type_model(1.0, truncation=10))]
    )
    assert len(calls["hlf_samples"]) == 2
    for args, kwargs, _ in calls["hlf_samples"]:
        model, template = args
        want = template.n * len(model.zeros)
        assert spans._kernel_pairs(spans.Tracer(), args, kwargs) == want
    (counter,) = [c for _, attr, _, c in spans.LAYERS if attr == "phi_sum"]
    assert len(calls["phi_sum"]) == 2
    for args, kwargs, result in calls["phi_sum"]:
        zs, _t, radius = args
        assert radius is None and not kwargs
        want = {"argbranch.phi_sum_calls": 1, "argbranch.pair_evals": len(zs)}
        assert counter(spans.Tracer(), args, kwargs, result) == want
