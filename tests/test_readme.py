"""The README's Library example runs as printed, and the package root
exports exactly the names that example imports."""

import ast
import re
from pathlib import Path

import aspherical

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = _README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_imports_the_root_exports():
    code = _library_example()
    exec(compile(code, str(_README), "exec"), {})
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "aspherical"
        for alias in node.names
    ]
    assert sorted(aspherical.__all__) == sorted(imported)
