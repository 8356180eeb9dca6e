"""The README's library sketch runs, and the names it imports are exactly
the package's exports."""

import ast
import re
from pathlib import Path

import dlczsim

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    section = README.read_text().split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_sketch_runs_on_the_package_exports(capsys):
    code = _library_sketch()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "dlczsim"
        for alias in node.names
    }
    assert imported == set(dlczsim.__all__)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
