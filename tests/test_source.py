"""Static checks of the package source.

No module imports a name it never uses: a stand-in for pyflakes' F401 that needs no third-party tool.  A
name listed in ``__all__`` counts as used, and an import statement marked ``# noqa: F401`` is skipped
(``sweep.py`` keeps two names that the benchmark wraps there).

A derived value leaving the float range has one report, ``spin.check_finite``: no module catches an
OverflowError, and no text outside that function spells the ``must keep ... finite`` message.

The out-of-range rule of omega_bar (sqrt(omega0) sqrt(omega) where omega0 omega leaves the normal floats) and
its overflow report live in ``spin.omega_bar_of``: ``DriveParams.__init__`` keeps one normal-product test beside its
domain test, ``DriveParams.omega_bar`` none, neither a report, and only the rotating-frame propagator, an independent
route, reports its own omega_bar.

Every module-level private name (``_name``, not ``__dunder__``) is read somewhere in the package: a stand-in for
vulture's unused-code report, which keeps leftovers of removed code paths out.

``serialize`` is a leaf: it imports no sibling module, so the writers and the parser depend on no result type.

Six rules have one owner each.  ``sweep.grid_values`` builds every grid (``Axis.linear``, ``Axis.log`` and the CLI's
t and x grids): no other code calls ``np.linspace`` or reports the grid.  ``closed_form.tau_of_drive`` is the only code that
refuses omega = 0 for tau and reports an overflowing x = omega0/omega.  ``spin.eigenbasis`` is the only code that forms
the half-angle pair sin(theta/2), cos(theta/2) of the eigenvectors, and no module calls ``np.linalg``.  ``cli._echo`` is
the only code that reads the parsed arguments as a whole: a table's parameter echo is them, not a copy by hand.
``spin.hamiltonian_at`` has no caller in the package: the matrix element is the closed form of its central difference,
and H(t) is the tests' independent reference.  ``spin.adiabaticity_of`` is the only code that forms the adiabaticity
parameter, for ``adiabaticity_parameter``, ``run_sweep`` and the matrix element alike: its exponent line appears nowhere
else, and no other code joins mantissas and exponents (``frexp``, ``ldexp``).

A frozen dataclass with a hand-written ``__init__`` (one that stores its fields straight into ``__dict__``, without
dataclass's ``object.__setattr__`` per field) takes exactly its fields, in order: a field added to the class without
its ``__init__`` fails here, not in a ``repr`` or a ``dataclasses.replace``.

The DP5(4) stepper has no step-size controller: ``_integrate_dp45`` sets h only to ``min(h_cap, t_end)`` and to the
remainder, and no module raises an error norm to a power, as a controller's step factor does.

The DP5(4) stepper has one step path.  Certified step sizes skip the error norm inside it, so the error-norm
expression and the D and E mat-vecs each appear once in the package, in ``integrate._integrate_dp45``: a second,
"fast" step loop would repeat them.

Every public name has a user: each ``toptrap.__all__`` name is read by another package module or by ``bench/`` or
``tools/``, is named in backticks in README.md, or is the return annotation of a public function of its module.

One atom of a cloud scan (``larmor_at``, ``field_angle_at``, ``DriveParams``, scalar ``survival_probability`` and
``transition_probability``, ``confinement_advisor``) makes at most 12 Python-level calls: one helper call per public
function, rates stored at construction, and no call into ``check`` or a report on a good input.
"""

import ast
import dataclasses
import importlib
import math
import re
import sys
from pathlib import Path

import pytest

import toptrap
from toptrap import closed_form, geometry, spin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toptrap"


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


def test_no_module_uses_np_linalg():
    """The eigenbasis is analytic, ``spin.eigenbasis``: eigh is a reference of the tests only."""
    assert _lines_mentioning("np.linalg") == []


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
    init = list(ast.walk(_definition("spin.py", "DriveParams", "__init__")))
    getter = list(ast.walk(_definition("spin.py", "DriveParams", "omega_bar")))
    compares = [node for node in init + getter if isinstance(node, ast.Compare)]
    normal_tests = [node for node in compares if "product" in {getattr(name, "id", None) for name in ast.walk(node)}]
    assert len(compares) == 4 and len(normal_tests) == 1 and normal_tests[0] in init  # three domain rules, one normal
    assert "check_finite" not in {getattr(node, "id", getattr(node, "attr", None)) for node in init + getter}


def bound_at_module_level(node) -> list[str]:
    """The names a module-level statement binds: a def or class, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def names_read(path: Path) -> set[str]:
    """The names ``path`` loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):  # imported by another module
            read.add(node.name)
    return read


def unused_private_names() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(names_read, SRC.glob("*.py")))
    return [
        f"{name}:{node.lineno}: {bound}"
        for name, tree in trees.items()
        for node in tree.body
        for bound in bound_at_module_level(node)
        if bound.startswith("_") and not bound.startswith("__") and bound not in read
    ]


def test_no_unused_private_name():
    assert unused_private_names() == []


def public_names_without_a_user() -> list[str]:
    readers = [*SRC.glob("*.py"), *ROOT.glob("bench/**/*.py"), *ROOT.glob("tools/**/*.py")]
    read_by = {path: names_read(path) for path in readers}
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    in_backticks = {word for span in spans for word in re.findall(r"\w+", span)}
    unused = []
    for name in toptrap.__all__:
        home = SRC / f"{getattr(toptrap, name).__module__.rsplit('.', 1)[1]}.py"
        returned = {
            node.id
            for function in ast.parse(home.read_text()).body
            if isinstance(function, ast.FunctionDef) and not function.name.startswith("_") and function.returns
            for node in ast.walk(function.returns)
            if isinstance(node, ast.Name)
        }
        read_elsewhere = any(name in read for path, read in read_by.items() if path not in (home, SRC / "__init__.py"))
        if not (read_elsewhere or name in in_backticks or name in returned):
            unused.append(name)
    return unused


def test_every_public_name_has_a_user():
    assert public_names_without_a_user() == []


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
        ("0.5 * p.theta", "spin.py", "eigenbasis"),
        ("vars(args)", "cli.py", "_echo"),
        ("hamiltonian_at(", "spin.py", "hamiltonian_at"),
        ("e + es + ef - e0", "spin.py", "adiabaticity_of"),
    ],
    ids=[
        "linspace", "grid-report", "omega-refusal", "x-report", "half-angle-pair", "parameter-echo", "hamiltonian",
        "adiabaticity-exponent",
    ],
)
def test_rule_only_in_its_owner(text, module, owner):
    found = _lines_mentioning(text)
    assert len(found) == 1 and set(found) <= _lines_of(module, owner)


def test_one_exponent_join():
    found = _lines_mentioning("frexp") + _lines_mentioning("ldexp")
    assert found and set(found) <= _lines_of("spin.py", "adiabaticity_of")


@pytest.mark.parametrize(
    "text",
    ["math.sqrt(0.5 *", "d00 * a + d01 * rb", "e00 * a + e01 * rb"],
    ids=["error-norm", "step-mat-vec", "error-mat-vec"],
)
def test_one_step_path(text):
    found = _lines_mentioning(text)
    assert len(found) == 1 and set(found) <= _lines_of("integrate.py", "_integrate_dp45")


def hand_written_frozen_inits() -> list[tuple[type, list[str]]]:
    """(class, the names its ``__init__`` takes after self) for each frozen dataclass in the package that writes its
    own ``__init__``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            frozen = [
                decorator
                for decorator in getattr(node, "decorator_list", [])
                if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "dataclass"
                if any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in decorator.keywords)
            ]
            init = [child for child in getattr(node, "body", []) if getattr(child, "name", None) == "__init__"]
            if frozen and init:
                args = init[0].args
                cls = getattr(importlib.import_module(f"toptrap.{path.stem}"), node.name)
                found.append((cls, [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs][1:]))
    return found


def test_hand_written_frozen_init_takes_exactly_the_fields():
    found = hand_written_frozen_inits()
    assert {cls.__name__ for cls, _ in found} >= {"DriveParams", "ConfinementReport"}
    for cls, names in found:
        assert names == [field.name for field in dataclasses.fields(cls)], cls.__name__


def assigned_values(function, name: str) -> list[str]:
    """The source of each value that ``function`` gives ``name``, in plain, tuple and augmented assignments."""
    values = []
    for node in ast.walk(function):
        if isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == name:
            values.append(ast.unparse(node))
        for target in getattr(node, "targets", []):
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            else:  # one target, or a tuple unpacked from one value
                pairs = [(name_node, node.value) for name_node in ast.walk(target)]
            values += [ast.unparse(value) for name_node, value in pairs if getattr(name_node, "id", None) == name]
    return values


def test_no_step_size_update():
    stepper = _definition("integrate.py", "_integrate_dp45")
    assert sorted(assigned_values(stepper, "h")) == ["min(h_cap, t_end)", "remainder"]
    powers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and getattr(node.left, "id", "").startswith("err")
    ]
    assert powers == [] and _lines_mentioning("err**") == []


def test_atom_path_call_budget():
    config = geometry.TrapConfig(a0=1.0, b0=1e-3, omega=2.0 * math.pi * 7e3, gamma=4.4e10, mu=9.274e-24, mass=1.443e-25)

    def atom(x=2e-4, y=1e-4, z=3e-4, t=1e-5, dwell=5e-5, escape=1e-4):
        omega0 = geometry.larmor_at(config, x, y, t, z)
        theta = geometry.field_angle_at(config, x, y, t, z)
        p = spin.DriveParams(omega0, config.omega, theta)
        closed_form.survival_probability(p, dwell)
        closed_form.transition_probability(p, dwell)
        return geometry.confinement_advisor(p, escape).confined

    atom()
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_qualname) if event == "call" else None)
    try:
        atom()
    finally:
        sys.setprofile(None)
    assert calls[0].endswith("atom") and len(calls) - 1 <= 12, calls
