"""Names the benchmark's tracer looks up in the package.

``perfbench/tracer.py`` wraps functions by name from outside the program;
a rename here would silently leave a layer untraced, so these checks keep
the names it relies on resolvable.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from emergence.engine import verify_emergence
from emergence.parameter_algebra import ParameterAlgebra

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
