"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name, and ``Tracer.install`` fails on a name that no longer resolves.  This
checks every name it lists against the library, so a rename that would
break ``bench/run.py --trace 1`` fails here first.  A traced certify run
checks the counts that workload pins, such as the Jacobi oracle calls."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


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



def test_traced_certify_run_keeps_pinned_counts():
    # one traced cycle after the warm-up; outputs go under .bench_out/
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
