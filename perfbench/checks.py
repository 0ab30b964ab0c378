"""Independent checks of polycone's outputs, run after the timed part.

Each check returns None when the output is right and a one-line reason when
it is not.  The references are scipy's HiGHS LP solver (floating point, so
compared with a tolerance) and the exact brute force of ``exact.py``; no
check compares against a stored copy of an earlier output, so any correct
change to the methods passes.  scipy is imported on first use only, after
the timed part and the memory reading.
"""
from __future__ import annotations

import json
from fractions import Fraction

from exact import ZERO, active_rank, brute_vertices, canonical, dot, feasible, lineality_slice, rank

TOL = 1e-6


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= TOL * max(1.0, abs(x), abs(y))


def highs(c, A, b, sense="min", box=None):
    """(status, value) of min/max <c, x> over A x <= b (and |x_j| <= box).

    status is "optimal", "unbounded" or "infeasible".  HiGHS sometimes
    calls an unbounded LP infeasible, and on rare inputs gives up; unless it
    holds a feasible point, a zero-objective LP and boxed LPs settle it.
    """
    from scipy.optimize import linprog

    sign = 1.0 if sense == "min" else -1.0
    cf = [sign * float(x) for x in c]
    Af = [[float(x) for x in a] for a in A]
    bf = [float(x) for x in b]
    bounds = [(None, None) if box is None else (-box, box)] * len(cf)
    res = linprog(cf, A_ub=Af, b_ub=bf, bounds=bounds, method="highs")
    if res.status == 0:
        return "optimal", sign * res.fun
    if res.status == 3 and "primal_status is Feasible" in res.message:
        return "unbounded", None
    feas = linprog([0.0] * len(cf), A_ub=Af, b_ub=bf, bounds=bounds, method="highs")
    if feas.status == 2:
        return "infeasible", None
    if feas.status == 0 and res.status in (2, 3):
        return "unbounded", None
    if feas.status == 0 and box is None:
        # HiGHS gave up on the free LP: compare two boxed LPs, whose optima
        # agree exactly when the free optimum is attained inside both boxes
        values = []
        for radius in (1e4, 2e4):
            boxed = linprog(cf, A_ub=Af, b_ub=bf, bounds=[(-radius, radius)] * len(cf), method="highs")
            if boxed.status != 0:
                break
            values.append(sign * boxed.fun)
        if len(values) == 2:
            return ("optimal", values[0]) if _close(values[0], values[1]) else ("unbounded", None)
    raise RuntimeError(f"HiGHS could not decide the LP: {res.message}")


# ---------------------------------------------------------------------------
# glp-acceptance: one solve_glp(P, c)

_GLP_STATUS = {"Attained": "optimal", "UnboundedBelow": "unbounded", "Infeasible": "infeasible"}


def _active_normals(A, b, x):
    """Canonical normals of the rows tight at x, in row order, deduplicated."""
    out = []
    for a, bi in zip(A, b):
        if dot(a, x) == bi:
            g = canonical(a)
            if g not in out:
                out.append(g)
    return out


def check_glp(A, b, c, sol) -> str | None:
    status = _GLP_STATUS.get(sol.status)
    if status is None:
        return f"unknown status {sol.status}"
    ref_status, ref_value = highs(c, A, b)
    if status != ref_status:
        return f"status {sol.status} but HiGHS says {ref_status}"
    n = len(c)
    if sol.status == "UnboundedBelow":
        r = sol.ray
        if r is None or len(r) != n:
            return "UnboundedBelow without a ray"
        if any(dot(a, r) > 0 for a in A) or dot(c, r) >= 0:
            return "ray is not an improving recession direction"
        return None
    if sol.status == "Infeasible":
        # the certificate of an Infeasible verdict, when it has one, must be
        # Farkas multipliers: y >= 0 with y A = 0 and <y, b> < 0
        y = sol.certificate
        if y:
            if len(y) != len(A) or not all(isinstance(v, (int, Fraction)) and v >= 0 for v in y):
                return "Farkas multipliers malformed or negative"
            if any(sum(yi * a[j] for yi, a in zip(y, A)) != 0 for j in range(n)):
                return "Farkas multipliers do not cancel the rows"
            if dot(y, b) >= 0:
                return "Farkas multipliers do not certify b"
        return None
    # Attained: the optimal vertices of the lineality slice, by brute force
    sA, sb = lineality_slice(A, b)
    vertices = brute_vertices(sA, sb)
    if not vertices:
        return "Attained but the polyhedron has no vertex"
    best = min(dot(c, v) for v in vertices)
    if sol.value != best:
        return f"value {sol.value} but the best vertex gives {best}"
    if not _close(float(best), ref_value):
        return f"value {best} but HiGHS says {ref_value}"
    expected = sorted(v for v in vertices if dot(c, v) == best)
    reported = sorted(tuple(v.point) for v in sol.optimal_vertices)
    if reported != expected:
        return "reported vertices are not exactly the optimal vertices"
    if len(sol.certificate) != len(reported):
        return "one certificate per optimal vertex expected"
    minus_c = tuple(-x for x in c)
    for v, cert in zip(sol.optimal_vertices, sol.certificate):
        mult = cert.multipliers
        normals = _active_normals(A, b, v.point)
        if mult is None or len(mult) < len(normals) or any(x < 0 for x in mult):
            return "cone multipliers missing or negative"
        # rows of the lineality slice, if any, come after the input rows and
        # contribute nothing: -c and every input row are orthogonal to them
        combo = tuple(sum((mult[i] * g[j] for i, g in enumerate(normals)), ZERO) for j in range(n))
        if combo != minus_c:
            return "cone multipliers do not recombine -c"
    return None


# ---------------------------------------------------------------------------
# vertex-n4: one enumerate_vertices(P)


def check_vertices(A, b, expected, result, directions) -> str | None:
    points = [tuple(v.point) for v in result]
    if len(set(points)) != len(points):
        return "duplicate vertices"
    n = len(A[0])
    for x in points:
        if len(x) != n or not feasible(A, b, x):
            return f"infeasible vertex {x}"
        if active_rank(A, b, x) != n:
            return f"point {x} has active rank below n"
    if expected is not None:
        if set(points) != set(expected):
            return f"{len(points)} vertices, closed form has {len(expected)}"
        return None
    if sorted(points) != brute_vertices(A, b):
        return "vertex set differs from brute-force enumeration"
    for d in directions:
        status, value = highs(d, A, b, "max")
        if status != "optimal":
            return f"HiGHS finds the polytope {status}"
        if not points or not _close(float(max(dot(d, x) for x in points)), value):
            return f"support in direction {d} disagrees with HiGHS"
    return None


# ---------------------------------------------------------------------------
# structure-pointed: is_bounded, structure and reconstruct_check of one P


def reference_structure(A, b):
    """(bounded, implicit equalities, facet count) by HiGHS."""
    n = len(A[0])
    zero = [ZERO] * len(A)
    bounded = True
    for j in range(n):
        for s in (1, -1):
            e = [s if k == j else 0 for k in range(n)]
            status, value = highs(e, A, zero, "max", box=1.0)
            if status != "optimal":
                raise RuntimeError("recession LP over the unit box must be optimal")
            bounded = bounded and value <= TOL
    eq = []
    for i, (a, bi) in enumerate(zip(A, b)):
        status, value = highs(a, A, b, "min")
        if status == "optimal" and _close(value, float(bi)):
            eq.append(i)
    keep = list(range(len(A)))
    for i in range(len(A)):
        if i in eq:
            continue
        rest = [k for k in keep if k != i]
        status, value = highs(A[i], [A[k] for k in rest], [b[k] for k in rest], "max")
        if status == "optimal" and value <= float(b[i]) + TOL * max(1.0, abs(float(b[i]))):
            keep.remove(i)
    return bounded, eq, len([i for i in keep if i not in eq])


def check_structure(A, b, result) -> str | None:
    bounded, report, reconstructed = result
    ref_bounded, eq, facets = reference_structure(A, b)
    n = len(A[0])
    if bounded != ref_bounded:
        return f"is_bounded {bounded} but HiGHS says {ref_bounded}"
    if tuple(report.implicit_equalities) != tuple(eq):
        return f"implicit equalities {report.implicit_equalities} but HiGHS finds {eq}"
    if report.dimension != n - rank([A[i] for i in eq], n):
        return f"dimension {report.dimension} disagrees with the implicit equalities"
    if report.facet_count != facets:
        return f"facet count {report.facet_count} but HiGHS finds {facets}"
    if report.vertex_count != len(brute_vertices(A, b)):
        return "vertex count disagrees with brute-force enumeration"
    if reconstructed is not True:
        return "reconstruct_check failed on a pointed polyhedron"
    return None


# ---------------------------------------------------------------------------
# family-cli: one CLI subprocess


def _rows(poly: dict):
    A = tuple(tuple(Fraction(x) for x in row["a"]) for row in poly["constraints"])
    b = tuple(Fraction(row["b"]) for row in poly["constraints"])
    return A, b


def same_polytope(limit: dict, designed) -> bool:
    """Exact point-set equality of a CLI polyhedron and a bounded polytope.

    Both are cut with a box strictly containing the designed polytope D; if
    the cut limit L has exactly D's vertices then L and D agree inside the
    box, and L has no point outside it either (a segment from D to such a
    point would cross the box boundary inside L, hence inside D).
    """
    A, b = _rows(limit)
    DA, Db = designed
    n = len(DA[0])
    D_vertices = brute_vertices(DA, Db)
    R = 1 + max(abs(x) for v in D_vertices for x in v)
    box_A = [tuple(Fraction(s) if k == j else ZERO for k in range(n)) for j in range(n) for s in (1, -1)]
    return brute_vertices(list(A) + box_A, list(b) + [R] * len(box_A)) == D_vertices


def _canonical_rows(poly: dict):
    A, b = _rows(poly)
    out = set()
    for a, bi in zip(A, b):
        scale = max(abs(x) for x in a)
        out.add((tuple(x / scale for x in a), bi / scale))
    return out


def check_cli(verb, family, stdout: bytes, facts) -> str | None:
    """Check the report of a CLI run that exited 0.

    ``facts`` holds what is known of a 3-D family: the designed limit, the
    drifting row and the cost limit.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if family == "footnote" and verb == "limit":
        F = Fraction
        want = {((F(0), F(-1)), F(0)), ((F(0), F(1)), F(0)), ((F(-1), F(0)), F(0))}
        if _canonical_rows(report["limit"]) != want:
            return "footnote limit is not {-y<=0, y<=0, -x<=0}"
    if family == "ex31" and verb == "argmax":
        if report["argmax"]["limit_max_exact"] != "2":
            return "ex31 limit maximum is not 2"
    if family == "ex31" and verb == "track":
        tracks = report["vertex_tracks"]["tracks"]
        if not any(t["limit_vertex"] == ["-2", "1"] and t["converged"] for t in tracks):
            return "ex31 has no converged track to (-2, 1)"
    if family == "remark" and verb == "argmax":
        am = report["argmax"]
        if any(am["conditions"].values()) or am["converged"]:
            return "remark family: a sufficient condition or the verdict holds"
        if any(s["value"] != 0.0 for s in am["per_sample_max"]) or am["limit_max"] != -1.0:
            return "remark family: maxima are not 0 against -1"
    if family == "plus_inf" and verb == "limit":
        if report["dropped_plus_infinity"] != [0]:
            return "row 0 drifting to +inf was not dropped"
    if facts is not None:
        if verb == "limit":
            if not same_polytope(report["limit"], facts["designed"]):
                return "3-D limit differs from the designed polytope"
            if report["dropped_plus_infinity"] != [facts["drift_row"]]:
                return "3-D drifting row was not dropped"
        if verb == "track" and not report["converged"]:
            return "3-D family not reported converged"
        if verb == "argmax":
            DA, Db = facts["designed"]
            best = max(dot(facts["cost"], v) for v in brute_vertices(DA, Db))
            if Fraction(report["argmax"]["limit_max_exact"]) != best:
                return f"3-D limit maximum is not {best}"
    return None
