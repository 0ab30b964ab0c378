"""Import guards: the layers of the package, and an independent oracle.

``geometry`` and ``linalg`` hold the one exact solve kernel and must
import nothing from ``linprog``, ``optimality`` or ``structure``, the
layers built on it (the "simplex side" of the names below: the LP front
end and its users).  ``optimality`` takes only the ``ConeMembership``
type from ``linprog``, and ``structure`` only ``cone_member``, for its
test on implicit-equality normals.  The Kuratowski modules use
``optimality`` and ``structure`` but import nothing from ``linprog``
directly.

Only ``geometry`` knows the layout of the integer adjugate that phase
one, the walk and the tie certificates carry: ``optimality`` takes none of
``_adjugate``, ``_bland``, ``_column`` or ``_exchange`` from it, nor the
module itself.

The walk's entry (``geometry._minkowski_weyl``) is fed integer rows:
``structure`` takes nothing from ``optimality``, the Kuratowski modules
take only ``solve_glp`` from it, and the window metric builds no
``HalfSpace`` or ``Polyhedron`` to hand to the walk.  The cone
diagnostics take their cones off integer rows, not from ``tangent_cone``,
``normal_cone`` or ``active_set``, and ``_window_support`` reads the
walk's integer states, reaching no ``Vertex`` readout.  In the whole
package only ``argmax_convergence`` builds a sample Polyhedron
(``sample_polyhedron``), for ``solve_glp``; the other diagnostics read
``sample_rows``, and none calls ``remove_redundant``.

The independent oracle for ``solve_lp`` and ``cone_member`` is the
Fraction tableau in ``tests/helpers.py``: it reaches no name of the
kernel in ``geometry`` and nothing of ``linprog``.
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


def _called(source: str | ast.AST) -> set[str]:
    """The names source (or a parsed node) calls, as ``f(...)`` or ``x.f(...)``."""
    called = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def _builds(source: str) -> set[str]:
    """The names in BUILDERS that source calls."""
    return _called(source) & BUILDERS


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


# the route through Cone objects that the cone diagnostics replace
CONE_BUILDERS = {"tangent_cone", "normal_cone", "active_set"}


def test_cone_diagnostics_build_no_cone():
    assert _called((SRC / "kuratowski" / "convergence.py").read_text(encoding="utf-8")) & CONE_BUILDERS == set()


@pytest.mark.parametrize(
    "line, names",
    [
        ("tangent_cone(P, x)", {"tangent_cone"}),
        ("geometry.normal_cone(P, x)", {"normal_cone"}),
        ("def f(P, x):\n    return active_set(P, x)", {"active_set"}),
        ("from ..geometry import tangent_cone", set()),
    ],
)
def test_cone_guard_sees_each_call_form(line, names):
    assert _called(line) & CONE_BUILDERS == names


def _callers(source: str, name: str) -> set[str]:
    """The top-level functions and classes of source that call ``name``,
    with ``<module>`` for its other statements."""
    return {getattr(node, "name", "<module>") for node in ast.parse(source).body if name in _called(node)}


def test_only_argmax_calls_sample_polyhedron():
    # the other diagnostics read each sample as its integer rows, and the
    # minimal rows, not remove_redundant's Polyhedron
    callers = {
        (path.relative_to(SRC).as_posix(), caller)
        for path in SRC.rglob("*.py")
        for caller in _callers(path.read_text(encoding="utf-8"), "sample_polyhedron")
    }
    assert callers == {("kuratowski/convergence.py", "argmax_convergence")}
    assert _callers((SRC / "kuratowski" / "convergence.py").read_text(encoding="utf-8"), "remove_redundant") == set()


@pytest.mark.parametrize(
    "line, callers",
    [
        ("def f(T, k):\n    return T.sample_polyhedron(k)", {"f"}),
        ("def f(T):\n    def g(k):\n        return T.sample_polyhedron(k)\n    return g", {"f"}),
        ("class C:\n    def m(self, k):\n        return self.sample_polyhedron(k)", {"C"}),
        ("P = sample_polyhedron(0)", {"<module>"}),
        ("def f(T, k):\n    return T.sample_rows(k)\nbuild = T.sample_polyhedron", set()),
    ],
    ids=["method", "nested", "class", "module", "no-call"],
)
def test_caller_guard_sees_each_call_form(line, callers):
    assert _callers(line, "sample_polyhedron") == callers


# what reads a walk out as Vertex objects with Fraction points
VERTEX_READOUT = {"_minkowski_weyl", "enumerate_vertices", "_walked", "_vertex", "Vertex", "Fraction"}


def test_window_support_reads_the_walk_states():
    source = (SRC / "kuratowski" / "convergence.py").read_text(encoding="utf-8")
    assert "_walk" in _reached(source, ["_window_support"])
    assert not _reached(source, ["_window_support"]) & VERTEX_READOUT


# the Fraction tableau and its readout, the oracle for the solve kernel
ORACLE = ("reference_standard_simplex", "_ref_bland", "_ref_pivot", "_ref_reduced_costs", "reference_purify")
KERNEL = {"_start", "_phase_one", "_bland", "_adjugate", "_exchange"}


def _kernel_and_linprog_names() -> set[str]:
    """The kernel names of ``geometry``, ``linprog`` itself and every name
    ``linprog`` defines at its top level."""
    tree = ast.parse((SRC / "linprog.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return KERNEL | defined | {"linprog"}


def _reached(source: str, roots) -> set[str]:
    """Every name, attribute or imported module part the functions
    ``roots`` of source use, following their calls into the other
    functions source defines."""
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    names, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in names:
            continue
        names.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            elif isinstance(node, ast.alias):
                used = node.name.split(".")
            elif isinstance(node, ast.ImportFrom):
                used = (node.module or "").split(".")
            else:
                continue
            todo += [u for u in used if u in defs]
            names.update(u for u in used if u not in defs)
    return names


def test_fraction_oracle_reaches_no_kernel():
    source = (pathlib.Path(__file__).with_name("helpers.py")).read_text(encoding="utf-8")
    assert not _reached(source, ORACLE) & _kernel_and_linprog_names()


@pytest.mark.parametrize(
    "source, reached",
    [
        ("def f():\n    return g()\ndef g():\n    return geometry._bland(rows)", True),
        ("def f():\n    return solve_lp(P, c)", True),
        ("def f():\n    return ConeMembership(True)", True),
        ("def f(x):\n    return linprog", True),
        ("def f():\n    from polycone.geometry import _phase_one", True),
        ("def f():\n    import polycone.linprog as lp", True),
        ("def f():\n    return _adjugate(A, rows, n)", True),
        ("def f():\n    return dot(a, b)\ndef g():\n    return _start(aug, n)", False),
    ],
    ids=["through-a-helper", "public-function", "result-type", "module", "import-from", "import", "bare-call",
         "unreached"],
)
def test_oracle_guard_sees_each_reach(source, reached):
    assert bool(_reached(source, ["f"]) & _kernel_and_linprog_names()) == reached
