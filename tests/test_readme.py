"""The README's Library example runs as printed, the package root
exports exactly the names that example imports, and the limits table
lists every `_MAX_*` constant of `aspherical.limits` with its value;
that module, which holds constants only, is the one place they are set."""

import ast
import re
from pathlib import Path

import aspherical
from aspherical import limits

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


def test_readme_limits_table_matches_the_constants():
    constants = {name: getattr(limits, name) for name in vars(limits) if name.startswith("_MAX_")}
    text = _README.read_text()
    rows = re.findall(r"^\| `(_MAX_\w+)` \| ([^|]*) \|", text, re.M)  # (constant, value cell)
    assert sorted({name for name, _ in rows}) == sorted(constants)
    for name, cell in rows:
        assert str(constants[name]) in re.findall(r"\d+", cell), (name, cell)
    named = set(re.findall(r"`(_MAX_\w+)`", text))
    assert sorted(named - set(constants)) == [], "named in the README but not defined"


def test_limits_are_set_in_the_limits_module_only():
    src = Path(limits.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        assigned = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.startswith("_MAX_")
        }
        if path.name == "limits.py":
            assert sorted(assigned) == sorted(n for n in vars(limits) if n.startswith("_MAX_"))
            assert all(isinstance(node, (ast.Assign, ast.Expr)) for node in tree.body), "constants only"
        else:
            assert assigned == set(), path.name
