"""The benchmark's traced run wraps library functions at named module
attributes (``perfbench/tracing.py``, ``SITES``).  Each must stay bound, so a
rename or deletion fails here rather than in the traced run."""

import importlib
from pathlib import Path

from helpers import load_script

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    sites = load_script(TRACING, "perfbench_tracing").SITES
    assert sites
    missing = [f"{module}.{attr}" for module, attr, _ in sites if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the benchmark tracer wraps are gone: {missing}"
