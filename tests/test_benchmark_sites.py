"""The benchmark's traced run wraps library functions at named module
attributes (``perfbench/tracing.py``, ``SITES``).  Each must stay bound, so a
rename or deletion fails here rather than in the traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_site_resolves():
    sites = _tracing_module().SITES
    assert sites
    missing = [f"{module}.{attr}" for module, attr, _ in sites if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the benchmark tracer wraps are gone: {missing}"
