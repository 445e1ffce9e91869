"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name, and ``Tracer.install`` fails on a name that no longer resolves.  This
checks every name it lists against the library, so a rename that would
break ``bench/run.py --trace 1`` fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_tracing().SPANS


@pytest.mark.parametrize("name, module, path", SPANS,
                         ids=[f"{module}.{path}" for _, module, path in SPANS])
def test_span_resolves(name, module, path):
    owner = importlib.import_module(f"stableflow.{module}")
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{name}: stableflow.{module} has no {path}"
        owner = getattr(owner, attr)
    assert callable(owner), f"{name}: stableflow.{module}.{path} is not callable"

