"""The geometry kernel stays independent of the simplex.

``geometry`` and ``linalg`` must import nothing from ``linprog``,
``optimality`` or ``structure``, so the simplex in ``linprog`` remains an
independent oracle for what the vertex walk finds.  ``optimality`` takes
only the ``ConeMembership`` type from ``linprog``, and ``structure`` only
``cone_member``, for its test on implicit-equality normals.  The
Kuratowski modules use ``optimality`` and ``structure`` but import nothing
from ``linprog`` directly.

Only ``geometry`` knows the layout of the integer adjugate that phase
one, the walk and the tie certificates carry: ``optimality`` takes none of
``_adjugate``, ``_bland``, ``_column`` or ``_exchange`` from it, nor the
module itself.

The walk's entry (``geometry._minkowski_weyl``) is fed integer rows:
``structure`` takes nothing from ``optimality``, the Kuratowski modules
take only ``solve_glp`` from it, and the window metric builds no
``HalfSpace`` or ``Polyhedron`` to hand to the walk.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "polycone"
SIMPLEX_SIDE = {"linprog", "optimality", "structure"}
SIMPLEX = {"linprog"}


def _imported(source: str) -> set[str]:
    """Every module name part an import in source can reach, including the
    names of ``from . import x`` and ``from polycone import x``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            if node.module in (None, "polycone"):
                names.update(alias.name for alias in node.names)
    return names


def _taken_from(source: str, module: str) -> set[str]:
    """The names source imports from the package module ``module``, with
    ``*`` for the module itself (``import polycone.linprog``, ``from .
    import linprog``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(module in alias.name.split(".") for alias in node.names):
                names.add("*")
        elif isinstance(node, ast.ImportFrom):
            if module in (node.module or "").split("."):
                names.update(alias.name for alias in node.names)
            elif node.module in (None, "polycone") and module in (alias.name for alias in node.names):
                names.add("*")
    return names


@pytest.mark.parametrize("module", ["geometry.py", "linalg.py"])
def test_kernel_imports_nothing_from_the_simplex_side(module):
    assert not _imported((SRC / module).read_text(encoding="utf-8")) & SIMPLEX_SIDE


@pytest.mark.parametrize("module", ["kuratowski/convergence.py", "kuratowski/limits.py"])
def test_kuratowski_imports_nothing_from_the_simplex(module):
    assert not _imported((SRC / module).read_text(encoding="utf-8")) & SIMPLEX


@pytest.mark.parametrize(
    "line",
    [
        "from .linprog import solve_lp",
        "from . import optimality",
        "import polycone.structure",
        "from polycone import linprog",
        "def f():\n    from .optimality import solve_glp",
    ],
)
def test_guard_sees_each_import_form(line):
    assert _imported(line) & SIMPLEX_SIDE


@pytest.mark.parametrize("module, allowed", [("optimality.py", {"ConeMembership"}), ("structure.py", {"cone_member"})])
def test_verdicts_take_only_the_oracle_type_from_the_simplex(module, allowed):
    assert _taken_from((SRC / module).read_text(encoding="utf-8"), "linprog") <= allowed


@pytest.mark.parametrize(
    "line, names",
    [
        ("from .linprog import ConeMembership, solve_lp", {"ConeMembership", "solve_lp"}),
        ("from polycone.linprog import cone_member", {"cone_member"}),
        ("from . import linprog", {"*"}),
        ("import polycone.linprog", {"*"}),
        ("from polycone import linprog as lp", {"*"}),
        ("def f():\n    from .linprog import solve_lp", {"solve_lp"}),
        ("from .linalg import dot", set()),
    ],
)
def test_name_guard_sees_each_import_form(line, names):
    assert _taken_from(line, "linprog") == names


# the integer adjugate and the one Bland loop on it
ADJUGATE = {"_adjugate", "_bland", "_column", "_exchange"}


def _adjugate_internals(source: str) -> set[str]:
    """The adjugate internals source takes from ``geometry``, with ``*``
    when it takes the module itself."""
    return _taken_from(source, "geometry") & (ADJUGATE | {"*"})


def test_optimality_takes_no_adjugate_internals():
    assert _adjugate_internals((SRC / "optimality.py").read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize(
    "line, names",
    [
        ("from .geometry import _exchange, _vertex", {"_exchange"}),
        ("from polycone.geometry import _adjugate, _bland, _column", {"_adjugate", "_bland", "_column"}),
        ("from . import geometry", {"*"}),
        ("def f():\n    from .geometry import _bland", {"_bland"}),
        ("from .geometry import _tie_certificate, _phase_two", set()),
    ],
)
def test_adjugate_guard_sees_each_import_form(line, names):
    assert _adjugate_internals(line) == names


def test_structure_takes_nothing_from_optimality():
    # the walk's entry lives in geometry
    assert _taken_from((SRC / "structure.py").read_text(encoding="utf-8"), "optimality") == set()


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "kuratowski").glob("*.py")))
def test_kuratowski_takes_only_solve_glp_from_optimality(module):
    source = (SRC / "kuratowski" / module).read_text(encoding="utf-8")
    assert _taken_from(source, "optimality") <= {"solve_glp"}


# what builds a HalfSpace or a Polyhedron: the window metric hands the walk integer rows
BUILDERS = {"HalfSpace", "Polyhedron", "with_rows", "flipped"}


def _builds(source: str) -> set[str]:
    """The names in BUILDERS that source calls, as ``f(...)`` or ``x.f(...)``."""
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called & BUILDERS


def test_window_metric_builds_no_halfspace_or_polyhedron():
    assert _builds((SRC / "kuratowski" / "convergence.py").read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize(
    "line, names",
    [
        ("HalfSpace(a, b)", {"HalfSpace"}),
        ("geometry.Polyhedron(n, rows)", {"Polyhedron"}),
        ("P.with_rows([hs.flipped()])", {"with_rows", "flipped"}),
        ("def f(hs: HalfSpace) -> Polyhedron:\n    return hs.a", set()),
    ],
)
def test_builder_guard_sees_each_call_form(line, names):
    assert _builds(line) == names
