"""Static check of the package source: no module imports a name it never uses.

A stand-in for pyflakes' F401 that needs no third-party tool.  A name listed in ``__all__`` counts as used,
and an import statement marked ``# noqa: F401`` is skipped (``sweep.py`` keeps two names that the benchmark
wraps there).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toptrap"


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    nodes = list(ast.walk(ast.parse(text)))
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in nodes:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [
        f"{path.name}:{node.lineno}: {alias.asname or alias.name.split('.')[0]}"
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        if "# noqa: F401" not in "\n".join(lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []
