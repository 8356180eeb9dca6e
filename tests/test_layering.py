"""The forward model (configuration, states, detectors, bench, pipeline)
does not depend on the inverse pipeline."""

import ast
from pathlib import Path

import dlczsim

FORWARD = ("config", "protocol", "fock", "detection", "layouts", "pipeline")
INVERSE = {"tomography", "entanglement"}


def _imported_names(path: Path) -> set[str]:
    """Every module or name an import statement of ``path`` reaches, dotted."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return names


def test_forward_model_imports_no_inverse_module():
    package = Path(dlczsim.__file__).parent
    found = {
        f"dlczsim.{module} imports {name}"
        for module in FORWARD
        for name in _imported_names(package / f"{module}.py")
        if INVERSE & set(name.split("."))
    }
    assert not found, sorted(found)


def test_config_imports_no_package_module():
    # the parameter dataclasses and the input reader live in config, so the modules that use them import config
    package = Path(dlczsim.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    imported = {name.removeprefix("dlczsim.").split(".")[0] for name in _imported_names(package / "config.py")}
    assert not imported & modules, sorted(imported & modules)
