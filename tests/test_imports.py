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
one, the walk and the tie certificates carry: neither ``optimality`` nor
``structure`` takes any of ``_adjugate``, ``_bland``, ``_column`` or
``_exchange`` from it, nor the module itself.  ``structure``'s
descents, the boundedness test and the certificates of
``reconstruct_check``, run in ``geometry._bounded`` and
``geometry._implied``.

The walk's entry (``geometry._minkowski_weyl``) is fed integer rows:
``structure`` takes nothing from ``optimality``, the Kuratowski modules
take only ``solve_glp`` from it, and the window metric builds no
``HalfSpace`` or ``Polyhedron`` to hand to the walk.  The cone
diagnostics take their cones off integer rows, not from ``tangent_cone``,
``normal_cone`` or ``active_set``, and ``_window_support`` reads the
walk's integer states, reaching no ``Vertex`` readout.  So do the
structure layer (``structure`` and the containment test ``_contains``)
and the limit's walk (``_limit_walk``): ``_minkowski_weyl`` hands them
the walk's states.  ``reconstruct_check`` hands the records of its one
walk (``_start``, then ``_walk``) to ``geometry._implied``, and it too
reaches no readout.  ``is_bounded`` walks
nothing: it reads phase one's vertex (``_start``) and one Bland descent
(``geometry._bounded``), and it too reaches no readout.  Only
``geometry._vertices``, every vertex, and ``solve_glp``, its optimal
face, read a walk's records out as Vertex objects (``_vertex``).  In the
whole
package only ``argmax_convergence`` builds a sample Polyhedron
(``sample_polyhedron``), for ``solve_glp``; the other diagnostics read
``sample_rows``, and none calls ``remove_redundant``.

The independent oracle for ``solve_lp`` and ``cone_member`` is the
Fraction tableau in ``tests/helpers.py``: it reaches no name of the
kernel in ``geometry`` and nothing of ``linprog``.  The structure and
containment oracles there run on that tableau (``reference_solve_lp``)
and on ``brute_vertices``: they reach no name of the kernel, no entry of
the walk and no function of ``linprog``.

Records are NamedTuples, which cost no code generation at import.  Only
four stay frozen dataclasses (``DATACLASSES``), and the CLI, which every
``polycone`` process imports, takes nothing from ``dataclasses``.

``geometry`` has one descent, Bland's rule in ``_bland``: phase one, the
tie certificates, ``solve_lp``, ``solve_glp``'s phase two, the
boundedness test and the certificates of ``reconstruct_check`` all run
it.  The tie certificates, ``solve_lp`` and the boundedness test run it
through ``_descent``, which checks an optimal stop's multipliers
(``_dual``) or an unblocked column (``_checked_ray``) before it returns;
``linprog`` takes no ``_bland``.  Only ``_descent`` and ``_implied``,
whose unblocked column leads to a witness it checks on its own, call
``_dual``: phase one and phase two hand their descents on unchecked, to
``_farkas``, ``_tie_certificate`` and ``solve_glp``'s ray check.
Only ``_bland`` and ``_walk`` exchange a row into an adjugate, only
``_bland`` and ``_walk`` ratio-test, only ``_pivot`` holds the ratio test,
and the one basis search is ``_adjugate`` (no ``_lex_basis``).  The edge
descent that phase two ran before lives on in ``tests/helpers.py`` as
``reference_phase_two``.

The walk keeps one vertex record: every vertex carries its state with the
adjugate of its witness basis, so ``geometry`` defines no ``_columns``
or ``_merged`` (the readout and the test of a record only a simplicial
vertex had), and neither ``_vertex``, which reads the witness off the
record, nor ``_tie_certificate``, which starts Bland's rule from it,
reaches a basis search (``_adjugate``).  ``_defining``, the witness of a
point given by its coordinates, has one caller,
``optimality.stability_cone``.

``geometry`` has one edge search at vertices that are not simplicial, the
double description in ``_edges``: it defines no (n-1)-subset search and
uses no ``null_direction``.  That subset search lives on in
``tests/helpers.py`` as the reference walk's edges, so the reference walk
and its start reach no ``geometry._edges``.
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


def test_structure_takes_no_adjugate_internals():
    assert _adjugate_internals((SRC / "structure.py").read_text(encoding="utf-8")) == set()


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
VERTEX_READOUT = {"enumerate_vertices", "_vertices", "_vertex", "Vertex", "Fraction"}
# the functions that read a walk's records out as Vertex objects: every
# vertex, and solve_glp's optimal face
READOUTS = {"geometry.py::_vertices", "optimality.py::solve_glp"}


def test_window_support_reads_the_walk_states():
    source = (SRC / "kuratowski" / "convergence.py").read_text(encoding="utf-8")
    assert "_walk" in _reached(source, ["_window_support"])
    assert not _reached(source, ["_window_support"]) & VERTEX_READOUT


# the functions, per module, that read the walk's states and nothing read out of them
STATE_READERS = {
    "structure.py": ("is_bounded", "structure", "reconstruct_check", "_contains"),
    "kuratowski/convergence.py": ("_limit_walk",),
}


def _readout_faults(sources: dict[str, str]) -> set[str]:
    """What reads a walk out as Vertex objects in the package ``sources``,
    a map from module path to source: a function of STATE_READERS missing
    or reaching a name of VERTEX_READOUT, or any caller of ``_vertex`` but
    those of READOUTS."""
    faults = set()
    for path, roots in STATE_READERS.items():
        defined = _defined(sources[path])
        for root in roots:
            if root not in defined:
                faults.add(f"{path} defines no {root}")
            else:
                faults |= {f"{path}::{root} reaches {name}"
                           for name in _reached(sources[path], [root]) & VERTEX_READOUT}
    faults |= {f"{path}::{caller} calls _vertex"
               for path, source in sources.items() for caller in _callers(source, "_vertex")}
    return faults - {f"{readout} calls _vertex" for readout in READOUTS}


def test_structure_layer_reads_the_walk_states():
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8") for path in SRC.rglob("*.py")}
    assert _readout_faults(sources) == set()


_READOUT_CLEAN = {
    "structure.py": (
        "def is_bounded(P):\n    return _bounded(*_nonempty(_start(_integer_rows(P), P.n))[1:])\n"
        "def _nonempty(found):\n    return found[:-1]\n"
        "def structure(P):\n    return _structure(_integer_rows(P), P.n)\n"
        "def _structure(aug, n) -> list:\n    return _nonempty(_minkowski_weyl(aug, n))\n"
        "def reconstruct_check(P):\n    return _implied(aug, A, _walk(A, P.n, start))\n"
        "def _contains(outer, inner, n):\n    return _minkowski_weyl(inner, n)\n"
        "def poly_contains(P, Q):\n    return tuple(Fraction(w, E) for w in _contains(P, Q, n))\n"
    ),
    "kuratowski/convergence.py": "def _limit_walk(rows, n):\n    return _minkowski_weyl(rows, n)\n",
    "geometry.py": (
        "def _vertices(aug, n):\n    return [_vertex(vertex) for vertex in _in_order(_walk(A, n, start))]\n"
        "def _minkowski_weyl(aug, n):\n    return _in_order(_walk(A, n, start, rays))\n"
    ),
}


def _tampered(path: str, old: str, new: str) -> dict[str, str]:
    return {**_READOUT_CLEAN, path: _READOUT_CLEAN[path].replace(old, new)}


@pytest.mark.parametrize(
    "sources, faults",
    [
        (_READOUT_CLEAN, set()),
        (_tampered("structure.py", "return _bounded(*_nonempty(_start(_integer_rows(P), P.n))[1:])",
                   "return not enumerate_vertices(P)"),
         {"structure.py::is_bounded reaches enumerate_vertices"}),
        (_tampered("structure.py", "def _structure(aug, n) -> list:", "def _structure(aug, n) -> list[Vertex]:"),
         {"structure.py::structure reaches Vertex"}),
        (_tampered("structure.py", "return _minkowski_weyl(inner, n)\n",
                   "return _witness(inner, n)\ndef _witness(W, E):\n    return [Fraction(w, E) for w in W]\n"),
         {"structure.py::_contains reaches Fraction"}),
        (_tampered("structure.py", "return _implied(aug, A, _walk(A, P.n, start))\n",
                   "return _witness(_walk(A, P.n, start))\ndef _witness(records):\n    return _vertex(records[0])\n"),
         {"structure.py::reconstruct_check reaches _vertex", "structure.py::_witness calls _vertex"}),
        (_tampered("structure.py", "def _contains(outer, inner, n)", "def _inside(outer, inner, n)"),
         {"structure.py defines no _contains"}),
        (_tampered("kuratowski/convergence.py", "_minkowski_weyl(rows, n)", "_vertices(rows, n)"),
         {"kuratowski/convergence.py::_limit_walk reaches _vertices"}),
        (_tampered("geometry.py", "_in_order(_walk(A, n, start, rays))",
                   "[_vertex(vertex) for vertex in _in_order(_walk(A, n, start))]"),
         {"geometry.py::_minkowski_weyl calls _vertex"}),
        (_tampered("kuratowski/convergence.py", "_minkowski_weyl(rows, n)\n",
                   "_minkowski_weyl(rows, n)\n"
                   "def _limit_points(rows, n):\n    return [_vertex(r) for r in _walk(rows)]\n"),
         {"kuratowski/convergence.py::_limit_points calls _vertex"}),
    ],
    ids=["clean", "vertex-readout", "annotation", "through-a-helper", "records-through-a-helper", "missing",
         "limit-walk", "second-caller", "third-caller"],
)
def test_readout_guard_sees_each_fault(sources, faults):
    assert _readout_faults(sources) == faults


# the Fraction tableau and its readout, the oracle for the solve kernel
ORACLE = ("reference_standard_simplex", "_ref_bland", "_ref_pivot", "_ref_reduced_costs", "reference_purify")
KERNEL = {"_start", "_phase_one", "_bland", "_descent", "_adjugate", "_exchange"}


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


# the oracles of the structure layer and of poly_contains
STRUCTURE_ORACLE = ("reference_is_bounded", "reference_poly_contains", "_reference_irredundant",
                    "reference_remove_redundant", "reference_structure", "reference_reconstruct_check")
# the walk's entries: what the structure layer itself runs on
WALK_ENTRIES = {"_minkowski_weyl", "_walk", "_vertices", "enumerate_vertices"}


def _solver_names() -> set[str]:
    """The kernel names of ``geometry``, the walk's entries, ``linprog``
    itself and every function ``linprog`` defines at its top level (its
    result records run nothing)."""
    tree = ast.parse((SRC / "linprog.py").read_text(encoding="utf-8"))
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return KERNEL | WALK_ENTRIES | functions | {"linprog"}


def test_fraction_oracle_reaches_no_kernel():
    source = (pathlib.Path(__file__).with_name("helpers.py")).read_text(encoding="utf-8")
    assert not _reached(source, ORACLE) & _kernel_and_linprog_names()
    assert not _reached(source, STRUCTURE_ORACLE) & _solver_names()


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


@pytest.mark.parametrize(
    "source, reached",
    [
        ("def f(P):\n    return g(P)\ndef g(P):\n    return find_feasible_point(P)", True),
        ("def f(P, c):\n    return solve_lp(P, c, 'max')", True),
        ("def f(P):\n    return len(enumerate_vertices(P))", True),
        ("def f(aug, n):\n    return geometry._minkowski_weyl(aug, n)", True),
        ("def f(aug, n):\n    return _start(aug, n)", True),
        ("def f():\n    from polycone import linprog", True),
        ("def f(P, c):\n    return reference_solve_lp(P, c)\ndef reference_solve_lp(P, c):\n"
         "    return LPResult(status='Infeasible')", False),
        ("def f(P):\n    return brute_vertices(P)", False),
    ],
    ids=["through-a-helper", "lp", "enumeration", "walk", "kernel", "module", "tableau-record", "brute-force"],
)
def test_structure_oracle_guard_sees_each_reach(source, reached):
    assert bool(_reached(source, ["f"]) & _solver_names()) == reached


# the (n-1)-subset edge search that the double description replaced
SUBSET_SEARCH = {"_subsystems", "_null_lines", "null_direction"}


def _names(source: str) -> set[str]:
    """Every name source defines, uses, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_geometry_has_one_edge_search():
    assert not _names((SRC / "geometry.py").read_text(encoding="utf-8")) & SUBSET_SEARCH


@pytest.mark.parametrize(
    "line, names",
    [
        ("def _subsystems(rows, size, n):\n    return []", {"_subsystems"}),
        ("from .linalg import extend, null_direction", {"null_direction"}),
        ("from . import linalg\nv = linalg.null_direction(*echelon, free, n)", {"null_direction"}),
        ("def f(rows, n):\n    return list(_null_lines(rows, n))", {"_null_lines"}),
        ("from .linalg import nullspace\ndef _edges(A, n, active):\n    return []", set()),
    ],
    ids=["definition", "import-from", "attribute", "call", "none"],
)
def test_subset_search_guard_sees_each_form(line, names):
    assert _names(line) & SUBSET_SEARCH == names


# the one descent, its one ratio test and its one basis search
def _ratio_tests(source: str) -> set[str]:
    """The top-level functions of source, with ``<module>`` for its other
    statements, that compare two products, as the integer ratio test
    ``S[i] * E[k] < S[k] * e`` does."""
    found = set()
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare) and all(
                isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult) for side in [sub.left, *sub.comparators]
            ):
                found.add(getattr(node, "name", "<module>"))
    return found


def _defined(source: str) -> set[str]:
    """The functions and classes source defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_geometry_has_one_descent_and_one_ratio_test():
    source = (SRC / "geometry.py").read_text(encoding="utf-8")
    assert "_lex_basis" not in _defined(source)
    assert _callers(source, "_exchange") == {"_bland", "_walk"}
    assert _callers(source, "_pivot") == {"_bland", "_walk"}
    assert _ratio_tests(source) == {"_pivot"}


def test_only_the_checked_descent_and_implied_call_dual():
    # an optimal stop is checked once, in ``_descent``; ``_implied`` checks
    # its own, since its unblocked column is a witness, not a ray
    callers = {
        (path.relative_to(SRC).as_posix(), caller)
        for path in SRC.rglob("*.py")
        for caller in _callers(path.read_text(encoding="utf-8"), "_dual")
    }
    assert callers == {("geometry.py", "_descent"), ("geometry.py", "_implied")}


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(S, E, i, k, e):\n    return S[i] * E[k] < S[k] * e", {"f"}),
        ("def f(S, E, r, e):\n    def g(i):\n        return S[i] * E[r] <= S[r] * e\n    return g", {"f"}),
        ("best = s * e > t * f", {"<module>"}),
        ("def f(y, det):\n    return y * det < 0", set()),
        ("def f(a, b, c):\n    return a < b * c", set()),
    ],
    ids=["cross-multiplied", "nested", "module", "sign-test", "one-product"],
)
def test_ratio_test_guard_sees_each_form(source, found):
    assert _ratio_tests(source) == found


@pytest.mark.parametrize(
    "source, names",
    [
        ("def _lex_basis(rows, indices, n):\n    return None", {"_lex_basis"}),
        ("def f():\n    def _lex_basis(rows):\n        return rows", {"f", "_lex_basis"}),
        ("class _Basis:\n    pass", {"_Basis"}),
        ("basis = _adjugate(A, rows, n)[0]", set()),
    ],
    ids=["top-level", "nested", "class", "call"],
)
def test_definition_guard_sees_each_form(source, names):
    assert _defined(source) == names


# the one vertex record of the walk: its state with the adjugate of its witness basis
RECORD_ERSATZ = {"_columns", "_merged"}
RECORD_READERS = ("_vertex", "_tie_certificate")


def _vertex_record_faults(sources: dict[str, str]) -> set[str]:
    """What breaks the one vertex record in the package ``sources``, a map
    from module path to source: ``geometry.py`` defining a name of
    RECORD_ERSATZ, a function of RECORD_READERS there reaching
    ``_adjugate``, or any caller of ``_defining`` but
    ``optimality.py``'s ``stability_cone``."""
    geometry = sources["geometry.py"]
    defined = _defined(geometry)
    faults = {f"defines {name}" for name in defined & RECORD_ERSATZ}
    faults |= {f"{name} searches" for name in RECORD_READERS
               if name in defined and "_adjugate" in _reached(geometry, [name])}
    faults |= {f"{path}::{caller} calls _defining"
               for path, source in sources.items() for caller in _callers(source, "_defining")}
    return faults - {"optimality.py::stability_cone calls _defining"}


def test_one_vertex_record():
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8") for path in SRC.rglob("*.py")}
    assert _vertex_record_faults(sources) == set()


_RECORD_CLEAN = (
    "def _vertex(vertex):\n    return Vertex(defining=tuple(sorted(vertex[1][0])))\n"
    "def _tie_certificate(A, vertex, C, L):\n    return _bland(A, C, vertex)\n"
    "def _walk(A, n, start):\n    return _adjugate(A, start[0][0], n)\n"
    "def _defining(A, active, n):\n    return _adjugate(A, active, n)\n"
)
_STABILITY = "def stability_cone(P, w):\n    return _defining(A, active, n)\n"


@pytest.mark.parametrize(
    "geometry, optimality, faults",
    [
        (_RECORD_CLEAN, _STABILITY, set()),
        (_RECORD_CLEAN + "def _merged(A, active, n):\n    return active\n", _STABILITY, {"defines _merged"}),
        (_RECORD_CLEAN + "def f(adjugate):\n    def _columns(adjugate):\n        return []\n", _STABILITY,
         {"defines _columns"}),
        (_RECORD_CLEAN.replace("Vertex(defining=tuple(sorted(vertex[1][0])))", "_witness(vertex)")
         + "def _witness(vertex):\n    return _defining(A, vertex[0][0], n)\n", _STABILITY,
         {"_vertex searches", "geometry.py::_witness calls _defining"}),
        (_RECORD_CLEAN.replace("_bland(A, C, vertex)", "_bland(G, C, (apex, _adjugate(G, range(k), n)))"), _STABILITY,
         {"_tie_certificate searches"}),
        (_RECORD_CLEAN, _STABILITY + "def solve_glp(P, c):\n    return _defining(A, active, n)\n",
         {"optimality.py::solve_glp calls _defining"}),
    ],
    ids=["clean", "merged", "nested-columns", "vertex-through-a-helper", "certificate", "second-caller"],
)
def test_vertex_record_guard_sees_each_fault(geometry, optimality, faults):
    assert _vertex_record_faults({"geometry.py": geometry, "optimality.py": optimality}) == faults


# the reference walk and its start, the oracle for geometry's walk
WALK_ORACLE = ("reference_walk", "reference_first_vertex")


def test_reference_walk_reaches_no_edge_search_of_geometry():
    source = (pathlib.Path(__file__).with_name("helpers.py")).read_text(encoding="utf-8")
    assert "_edges" not in _reached(source, WALK_ORACLE)


@pytest.mark.parametrize(
    "source, reached",
    [
        ("def f():\n    return g()\ndef g(A, n, a):\n    return geometry._edges(A, n, a)", True),
        ("def f():\n    from polycone.geometry import _edges", True),
        ("def f(A, n, a):\n    return _edges(A, n, a)", True),
        ("def f(A, n, a):\n    return reference_edges(A, n, a)\ndef reference_edges(A, n, a):\n    return []", False),
        ("def f():\n    return 1\ndef g(A, n, a):\n    return geometry._edges(A, n, a)", False),
    ],
    ids=["through-a-helper", "import-from", "bare-call", "own-search", "unreached"],
)
def test_walk_oracle_guard_sees_each_reach(source, reached):
    assert ("_edges" in _reached(source, ["f"])) == reached


# the records that stay frozen dataclasses; every other record is a NamedTuple
DATACLASSES = {"Vertex", "ConeMembership", "GLPSolution", "StructureReport"}


def _dataclasses(source: str) -> set[str]:
    """The classes in source that ``dataclass`` decorates: bare, called, as
    ``dataclasses.dataclass`` or under an alias of its import."""
    tree = ast.parse(source)
    aliases = {"dataclass"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            aliases.update(alias.asname for alias in node.names if alias.name == "dataclass" and alias.asname)
    found = set()
    for node in ast.walk(tree):
        for decorator in node.decorator_list if isinstance(node, ast.ClassDef) else ():
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(target, "attr", getattr(target, "id", None)) in aliases:
                found.add(node.name)
    return found


def test_only_four_records_are_dataclasses():
    found = set()
    for path in SRC.rglob("*.py"):
        found |= _dataclasses(path.read_text(encoding="utf-8"))
    assert found <= DATACLASSES


def test_cli_imports_no_dataclasses():
    assert "dataclasses" not in _imported((SRC / "cli.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "line, names",
    [
        ("@dataclass\nclass A:\n    x: int", {"A"}),
        ("@dataclass(frozen=True)\nclass A:\n    x: int", {"A"}),
        ("import dataclasses\n@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int", {"A"}),
        ("from dataclasses import dataclass as record\n@record(frozen=True)\nclass A:\n    x: int", {"A"}),
        ("def f():\n    @dataclass\n    class B:\n        x: int", {"B"}),
        ("class A(NamedTuple):\n    x: int", set()),
        ("@functools.total_ordering\nclass A:\n    pass", set()),
    ],
    ids=["bare", "called", "attribute", "alias", "nested", "namedtuple", "other-decorator"],
)
def test_dataclass_guard_sees_each_form(line, names):
    assert _dataclasses(line) == names


@pytest.mark.parametrize(
    "line", ["import dataclasses", "from dataclasses import replace", "def f():\n    import dataclasses as dc"]
)
def test_dataclass_import_guard_sees_each_form(line):
    assert "dataclasses" in _imported(line)
