"""Names the benchmark's tracer looks up in the package.

``perfbench/tracer.py`` wraps functions by name from outside the program;
a rename here would silently leave a layer untraced, so these checks keep
the names it relies on resolvable.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from emergence import scenarios
from emergence.engine import brute_force_emerge, verify_emergence
from emergence.parameter_algebra import ParameterAlgebra
from emergence.scenarios import ScenarioSpec, run_scenario_spec

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name: str):
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key,
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # a dataclass looks its module up
        spec.loader.exec_module(module)
    return sys.modules[key]


def _tracer_layers() -> dict:
    return _perfbench_module("tracer").LAYERS


def test_every_traced_function_resolves_on_its_layer():
    for layer, (functions, _, _) in _tracer_layers().items():
        module = importlib.import_module(f"emergence.{layer}")
        for name in functions:
            if name != "act":
                assert callable(getattr(module, name, None)), \
                    f"emergence.{layer}.{name}"


def test_some_parameter_algebra_class_defines_act():
    classes = [ParameterAlgebra]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    assert any("act" in vars(cls) for cls in classes[1:])


def test_verify_emergence_keeps_its_sample_count_parameter():
    assert "n_samples" in inspect.signature(verify_emergence).parameters


def test_every_traced_function_has_a_caller_in_the_package():
    # a traced function nothing calls reads 0 calls, and the time of
    # whatever runs in its place shows on no layer
    called = set()
    for path in (ROOT / "src" / "emergence").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    for layer, (functions, _, _) in _tracer_layers().items():
        for name in functions:
            if name != "act":
                assert name in called, f"emergence.{layer}.{name}"


def _recorded_calls(monkeypatch, original, argument: str) -> list:
    """Wrap ``original`` by name in every package module, as the tracer
    does; returns each call's ``argument`` (defaults applied), in call
    order."""
    signature = inspect.signature(original)
    values = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values.append(bound.arguments[argument])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "emergence":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return values


def _recorded_sample_counts(monkeypatch) -> list:
    """Each ``verify_emergence`` call's ``n_samples``, in call order."""
    return _recorded_calls(monkeypatch, scenarios.verify_emergence,
                           "n_samples")


def test_the_scenarios_call_the_oracle_by_its_traced_name(monkeypatch):
    params = _recorded_calls(monkeypatch, brute_force_emerge, "params")
    # each call's parameter count: one call per oracle-checked map
    cases = ((ScenarioSpec(name="boolean", grid=(8,), masks=8, block=1,
                           samples=20, seed=1), [3]),
             (ScenarioSpec(name="idempotent", grid=(8,), samples=20, seed=1),
              [3, 3]),
             (ScenarioSpec(name="gravity_from_noncommutativity", grid=(8, 8),
                           theta_values=(0.5,), samples=20, seed=1), []))
    for spec, sizes in cases:
        del params[:]
        assert run_scenario_spec(spec).passed
        assert [len(p) for p in params] == sizes


def test_each_map_is_verified_on_its_build_draws_then_its_samples(
        monkeypatch):
    counts = _recorded_sample_counts(monkeypatch)
    for fields in ({"name": "gravity_from_noncommutativity", "grid": (8, 8),
                    "theta_values": (0.5,)},
                   {"name": "idempotent", "grid": (8,)}):
        for samples in (25, 100):
            del counts[:]
            spec = ScenarioSpec(**fields, samples=samples, seed=1)
            assert run_scenario_spec(spec).passed
            maps = 2 if fields["name"] == "idempotent" else 1
            assert counts == [min(samples, 40), samples] * maps


def test_a_gravity_pass_keeps_its_traced_draw_count(monkeypatch):
    # the tracer's engine.verify_emergence.draws sums n_samples per pass
    counts = _recorded_sample_counts(monkeypatch)
    workloads = _perfbench_module("workloads")
    for entry in workloads.entries("gravity_24x24"):
        assert run_scenario_spec(ScenarioSpec.from_dict(
            {**entry.spec, "seed": 1})).passed
    assert sum(counts) == 280
