"""The benchmark's traced run wraps library functions at named module
attributes (``perfbench/tracing.py``, ``SITES``).  Each must stay bound, so a
rename or deletion fails here rather than in the traced run, and the analysis
chain must reach its stages through those attributes."""

import importlib
from pathlib import Path

from click.testing import CliRunner

from dlczsim.cli import main
from helpers import load_script

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    sites = load_script(TRACING, "perfbench_tracing").SITES
    assert sites
    missing = [f"{module}.{attr}" for module, attr, _ in sites if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the benchmark tracer wraps are gone: {missing}"


def test_traced_analyze_times_each_stage(tmp_path, monkeypatch):
    # a stage that the analysis binds by name, instead of looking it up on its
    # module, escapes the wrappers and reads as 0 ms in the benchmark
    tracing = load_script(TRACING, "perfbench_tracing")
    for module_name, attr, _ in tracing.SITES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # teardown undoes install()
    runner = CliRunner()
    sim, ana = tmp_path / "sim", tmp_path / "ana"
    args = ["simulate", "--preset", "paper", "--seed", "3", "--trials", "200000", "--layout", "both", "--out", str(sim)]
    assert runner.invoke(main, args).exit_code == 0
    tracer = tracing.Tracer()
    tracer.install()
    result = runner.invoke(main, ["analyze", "--records", str(sim), "--mle", "--plane", "z2", "--out", str(ana)])
    assert result.exit_code == 0, result.output
    spans = {name for name, *_ in tracer.spans}
    wanted = {"tomography.invert_diagonal", "tomography.mle_fit", "entanglement.concurrence", "entanglement.backprop"}
    assert wanted <= spans, f"stages the tracer missed: {sorted(wanted - spans)}"
