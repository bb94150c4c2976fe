"""Static checks of the package source.

No module imports a name it never uses: a stand-in for pyflakes' F401 that needs no third-party tool.  A
name listed in ``__all__`` counts as used, and an import statement marked ``# noqa: F401`` is skipped
(``sweep.py`` keeps two names that the benchmark wraps there).

A derived value leaving the float range has one report, ``spin.check_finite``: no module catches an
OverflowError, and no text outside that function spells the ``must keep ... finite`` message.

The out-of-range rule of omega_bar (sqrt(omega0) sqrt(omega) where omega0 omega leaves the normal floats) and
its overflow report live in ``spin.omega_bar_of``: ``DriveParams.omega_bar`` keeps one normal-product test and no
report, and only the rotating-frame propagator, an independent route, reports its own omega_bar.

No module uses ``functools.cached_property``: on Python 3.11 it takes a lock on every first read, and
``spin._cached`` caches the same way without one.

Every module-level private name (``_name``, not ``__dunder__``) is read somewhere in the package: a stand-in for
vulture's unused-code report, which keeps leftovers of removed code paths out.

``serialize`` is a leaf: it imports no sibling module, so the writers and the parser depend on no result type.

Two rules have one owner each.  ``sweep.grid_values`` builds every grid (``Axis.linear``, ``Axis.log`` and the CLI's
t and x grids): no other code calls ``np.linspace`` or reports the grid.  ``closed_form.tau_of_drive`` is the only code that
refuses omega = 0 for tau and reports an overflowing x = omega0/omega.
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


def _lines_mentioning(text: str) -> list[str]:
    return [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if text in line
    ]


def test_no_module_catches_overflow_error():
    assert _lines_mentioning("except OverflowError") == []


def test_must_keep_message_only_in_check_finite():
    tree = ast.parse((SRC / "spin.py").read_text())
    check_finite = next(node for node in tree.body if getattr(node, "name", None) == "check_finite")
    inside = {f"spin.py:{number}" for number in range(check_finite.lineno, check_finite.end_lineno + 1)}
    found = _lines_mentioning("must keep")
    assert found and set(found) <= inside


def _definition(module: str, *path: str):
    """The def or class that ``path`` names in ``module``, from its top level down."""
    node = ast.parse((SRC / module).read_text())
    for name in path:
        node = next(child for child in node.body if getattr(child, "name", None) == name)
    return node


def _lines_of(module: str, *path: str) -> set[str]:
    node = _definition(module, *path)
    return {f"{module}:{number}" for number in range(node.lineno, node.end_lineno + 1)}


def test_omega_bar_rule_and_report_only_in_omega_bar_of():
    omega_bar_of = _lines_of("spin.py", "omega_bar_of")
    reports = set(_lines_mentioning('check_finite("omega_bar"'))
    assert reports & omega_bar_of and reports <= omega_bar_of | _lines_of("integrate.py", "rotating_frame_propagator")
    splits = set(_lines_mentioning("sqrt(omega0)") + _lines_mentioning("sqrt(self.omega0)"))
    assert splits and splits <= omega_bar_of
    nodes = list(ast.walk(_definition("spin.py", "DriveParams", "omega_bar")))
    assert sum(isinstance(node, ast.Compare) for node in nodes) == 1
    assert "check_finite" not in {getattr(node, "id", getattr(node, "attr", None)) for node in nodes}


def test_no_module_uses_functools_cached_property():
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.alias) and node.name == "cached_property"
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
    ]
    assert uses == []


def bound_at_module_level(node) -> list[str]:
    """The names a module-level statement binds: a def or class, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def unused_private_names() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):  # imported by another module
            read.add(node.name)
    return [
        f"{name}:{node.lineno}: {bound}"
        for name, tree in trees.items()
        for node in tree.body
        for bound in bound_at_module_level(node)
        if bound.startswith("_") and not bound.startswith("__") and bound not in read
    ]


def test_no_unused_private_name():
    assert unused_private_names() == []


def imported_names(module: str) -> list[str]:
    """Dotted names of what ``module`` imports, relative imports resolved: ``from .sweep import X`` gives
    ``toptrap.sweep`` and ``toptrap.sweep.X``."""
    names = []
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["toptrap" if node.level else "", node.module]))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return names


def sibling_imports(module: str) -> list[str]:
    siblings = {f"toptrap.{path.stem}" for path in SRC.glob("*.py")} - {"toptrap.__init__"}
    return [name for name in imported_names(module) if ".".join(name.split(".")[:2]) in siblings]


def test_serialize_imports_no_sibling_module():
    assert "toptrap.sweep" in sibling_imports("cli.py")  # the check sees relative imports
    assert sibling_imports("serialize.py") == []


@pytest.mark.parametrize(
    "text, module, owner",
    [
        ("np.linspace", "sweep.py", "grid_values"),
        ('check_finite("the grid"', "sweep.py", "grid_values"),
        ("resurrection undefined: omega must be > 0", "closed_form.py", "tau_of_drive"),
        ('check_finite("x"', "closed_form.py", "tau_of_drive"),
    ],
    ids=["linspace", "grid-report", "omega-refusal", "x-report"],
)
def test_rule_only_in_its_owner(text, module, owner):
    found = _lines_mentioning(text)
    assert len(found) == 1 and set(found) <= _lines_of(module, owner)
