"""Exact H-polyhedra and their local cone/vertex geometry.

A polyhedron is a nonempty list of closed half-spaces ``<a, x> <= b`` over
exact rationals.  The whole space is deliberately not representable as a
Polyhedron (a Cone in H-form may be all of R^n, a Polyhedron may not).
Feasibility is *not* an invariant: empty polyhedra are legal values and are
flagged by the operations that require nonemptiness.

Every value is immutable and every operation is a pure function, so
concurrent use needs no coordination; outputs are deterministically sorted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InfeasiblePoint
from .linalg import Vector, dot, extend, null_direction, nullspace, scaled, vec_neg
from .rationals import format_rational, format_vector, parse_rational, parse_vector

IndexSet = tuple[int, ...]

_ZERO = Fraction(0)


def _coerce_vector(values: Iterable) -> Vector:
    """values as a tuple of Fractions, converting only those that are not."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space ``<a, x> <= b`` in canonical L-infinity form.

    The normal is rescaled so its largest absolute coefficient is exactly 1;
    this keeps canonical forms rational (a Euclidean unit normal generally
    is not) while fixing a unique representative per half-space.
    """

    a: Vector
    b: Fraction

    def __init__(self, a: Iterable, b) -> None:
        avec = _coerce_vector(a)
        bval = Fraction(b)
        if not avec or all(x == 0 for x in avec):
            raise ValueError("half-space normal must be nonzero")
        scale = max(abs(x) for x in avec)
        if scale != 1:
            avec = tuple(x / scale for x in avec)
            bval = bval / scale
        object.__setattr__(self, "a", avec)
        object.__setattr__(self, "b", bval)

    @property
    def n(self) -> int:
        return len(self.a)

    def slack(self, x: Sequence[Fraction]) -> Fraction:
        return self.b - dot(self.a, x)

    def homogeneous(self) -> "HalfSpace":
        return HalfSpace(self.a, 0)

    def flipped(self) -> "HalfSpace":
        return HalfSpace(tuple(-x for x in self.a), -self.b)


@dataclass(frozen=True)
class Polyhedron:
    """H-polyhedron ``{x : A x <= b}`` over exact rationals."""

    n: int
    halfspaces: tuple[HalfSpace, ...]

    def __init__(self, n: int, halfspaces: Iterable[HalfSpace]) -> None:
        rows = tuple(halfspaces)
        if not rows:
            raise ValueError("a polyhedron needs at least one constraint (R^n is excluded)")
        for hs in rows:
            if hs.n != n:
                raise DimensionMismatch(f"constraint dimension {hs.n} != ambient {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "halfspaces", rows)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[tuple[Iterable, object]]) -> "Polyhedron":
        return cls(n, [HalfSpace(a, b) for a, b in rows])

    @property
    def m(self) -> int:
        return len(self.halfspaces)

    def row_matrix(self) -> list[Vector]:
        return [hs.a for hs in self.halfspaces]

    def with_rows(self, extra: Iterable[HalfSpace]) -> "Polyhedron":
        return Polyhedron(self.n, self.halfspaces + tuple(extra))


@dataclass(frozen=True)
class Vertex:
    """Extremal point with its active set and an n-row nonsingular witness.

    ``defining`` is the lexicographically smallest index subset whose rows
    form a nonsingular square system solving to ``point``; ``active`` is the
    full active set (strictly larger exactly in the degenerate case).
    """

    point: Vector
    active: IndexSet
    defining: IndexSet


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone in exactly one of two representations.

    H-form rows are half-spaces through the origin; generator form is a
    finite set of rays.  Empty H-form means all of R^n, the empty generator
    list means the trivial cone {0}.
    """

    n: int
    hform: tuple[HalfSpace, ...] | None = None
    generators: tuple[Vector, ...] | None = None

    def __post_init__(self) -> None:
        if (self.hform is None) == (self.generators is None):
            raise ValueError("cone needs exactly one of hform / generators")
        if self.hform is not None:
            for hs in self.hform:
                if hs.n != self.n:
                    raise DimensionMismatch("cone row dimension mismatch")
                if hs.b != 0:
                    raise ValueError("cone half-spaces must pass through the origin")
        if self.generators is not None:
            rays = set()
            for g in self.generators:
                if len(g) != self.n:
                    raise DimensionMismatch("cone generator dimension mismatch")
                if all(x == 0 for x in g):
                    raise ValueError("cone generators must be nonzero")
                ray = canonical_ray(g)
                if ray in rays:
                    raise ValueError("cone generators duplicate after canonical scaling")
                rays.add(ray)

    @property
    def is_everything(self) -> bool:
        return self.hform is not None and not self.hform


def canonical_ray(g: Sequence[Fraction]) -> Vector:
    """Scale a nonzero direction so max |coefficient| == 1."""
    scale = max(abs(Fraction(x)) for x in g)
    if scale == 0:
        raise ValueError("zero vector has no canonical ray")
    return tuple(Fraction(x) / scale for x in g)


# ---------------------------------------------------------------------------
# Point-local operations


def contains_point(P: Polyhedron, x: Sequence) -> bool:
    """Exact membership test ``A x <= b`` (boundary included)."""
    xv = _coerce_vector(x)
    if len(xv) != P.n:
        raise DimensionMismatch(f"point dimension {len(xv)} != ambient {P.n}")
    return all(hs.slack(xv) >= 0 for hs in P.halfspaces)


def active_set(P: Polyhedron, x: Sequence) -> IndexSet:
    """Indices of constraints tight at x; x must be feasible."""
    return _tight_rows(_integer_rows(P), _coerce_vector(x))


def _tight_rows(aug, x: Sequence[Fraction]) -> IndexSet:
    """Indices of the integer rows ``aug`` ``[a..., b]`` tight at x = X / D,
    by the slacks ``b D - a.X``; a negative one raises InfeasiblePoint with
    the slack of the canonical row, ``max|a|`` times smaller."""
    n = len(aug[0]) - 1
    if len(x) != n:
        raise DimensionMismatch(f"point dimension {len(x)} != ambient {n}")
    X, D = scaled(x)
    active = []
    for i, (*a, b) in enumerate(aug):
        s = b * D - sum(map(mul, a, X))
        if s < 0:
            raise InfeasiblePoint(f"constraint {i} violated by {Fraction(s, D * max(map(abs, a)))}")
        if not s:
            active.append(i)
    return tuple(active)


def tangent_cone(P: Polyhedron, x: Sequence) -> Cone:
    """Tangent cone at a feasible point: active rows made homogeneous.

    At interior points the active set is empty and the cone is all of R^n.
    """
    act = active_set(P, x)
    return Cone(P.n, hform=tuple(P.halfspaces[i].homogeneous() for i in act))


def normal_cone(P: Polyhedron, x: Sequence) -> Cone:
    """Normal cone at a feasible point: nonnegative span of active normals."""
    return Cone(P.n, generators=active_normals(P, active_set(P, x)))


def active_normals(P: Polyhedron, active: Iterable[int]) -> tuple[Vector, ...]:
    """The distinct normals of the given rows, in row order.

    Normals are stored L-infinity canonical, so equal rays are equal tuples.
    """
    gens: list[Vector] = []
    for i in active:
        a = P.halfspaces[i].a
        if a not in gens:
            gens.append(a)
    return tuple(gens)


# ---------------------------------------------------------------------------
# Vertex enumeration


def _integer_rows(P: Polyhedron) -> list[list[int]]:
    """Clear denominators row-wise: integer rows ``[a..., b]`` describing P."""
    return [scaled(hs.a + (hs.b,))[0] for hs in P.halfspaces]


def enumerate_vertices(P: Polyhedron) -> list[Vertex]:
    """All extremal points, each with its full active set and a witness.

    One integer kernel for every n, output-sensitive from its first vertex,
    entered by phase one (``_phase_one``) over P's integer rows; when
    those have rank below n, P has no vertex and no walk runs.  Phase one
    finds the first vertex by a simplex descent on the largest violation
    t, started at the lexicographically smallest basis.  From there the
    walk follows the vertex graph (Avis and Fukuda 1992).  A simplicial
    vertex, whose active rows with identical rows merged number n, carries
    the integer adjugate of those rows as an lrs dictionary does: its
    edges are the adjugate's columns, and a simplicial neighbour gets its
    adjugate by one O(n^2) Bareiss exchange.  Any other
    vertex takes as edges the null directions of its rank-(n-1) subsets of
    active rows that no active row rises along.  One ratio test over all m
    rows moves along each edge to the neighbour, whose active set is the
    rows tight there.  Each edge is ratio-tested once.  ``defining`` is the
    greedy, so lexicographically smallest, nonsingular n-subset of
    ``active``.  Cost: |V| times the edges per vertex times m n, plus phase
    one's pivots, m n each.  At n = 4: 0.005 s for m = 20, 0.003 s for
    m = 30 and 0.010 s for m = 60 (CPython 3.11, 2 shared vCPUs).  Output
    sorted by point (``_vertices`` on P's integer rows).
    """
    return _vertices(_integer_rows(P), P.n)


def _vertices(aug, n: int) -> list[Vertex]:
    """The vertices of the integer rows' set in R^n, as ``enumerate_vertices``
    gives them: none when it is empty or the rows have rank below n."""
    A = [tuple(row[:n]) for row in aug]
    start, _ = _phase_one(A, aug, n)
    return [] if start is None else _walked(A, n, start)


def _minkowski_weyl(aug, n: int):
    """The set ``{x : a.x <= b}`` of the integer rows ``aug`` ``[a...,
    b]`` in R^n as ``conv V + cone R + lin L`` from one walk (Schrijver
    1986, ch. 8): ``(lineality, vertices, rays, farkas)``, with L and
    ``farkas`` as ``_start`` gives them, V sorted by point and R as the
    integer directions of the edges no row blocks.  When L is nonzero, V
    and R are those of the slice orthogonal to L; when the set is empty,
    only ``farkas`` is given."""
    lineality, A, start, farkas = _start(aug, n)
    if farkas is not None:
        return (), [], [], farkas
    rays = []
    return lineality, _walked(A, n, start, rays), rays, None


def _start(aug, n: int):
    """Phase one (``_phase_one``) over the integer rows ``aug`` in R^n:
    ``(lineality, A, start, None)`` with the integer normals A the walk
    runs on and phase one's vertex ``start``, or ``((), None, None,
    farkas)`` when the set is empty (``farkas`` as ``_farkas`` gives it).
    When the rows have rank below n, the set has no vertex; phase one then
    runs on its cut to the orthogonal complement of its lineality space L,
    the rows ``[+-v, 0]`` for v in a basis of L appended to ``aug``.  The
    slice's extra multipliers cancel in a Farkas certificate, since L is
    orthogonal to the row space."""
    A = [tuple(row[:n]) for row in aug]
    start, y = _phase_one(A, aug, n)
    lineality = ()
    if start is None and y is None:
        lineality = tuple(nullspace(A, n))
        rows = aug + [[*scaled(s)[0], 0] for v in lineality for s in (v, vec_neg(v))]
        A = [tuple(row[:n]) for row in rows]
        start, y = _phase_one(A, rows, n)
    if start is None:
        return (), None, None, _farkas(aug, y[:len(aug)])
    return lineality, A, start, None


def _farkas(aug, y) -> Vector:
    """Integer multipliers y over the integer rows ``aug``, checked to be
    ``y >= 0`` with ``y A = 0`` and ``y b < 0``, as multipliers over the
    canonical rows with ``y.b = -1``: row i is ``max|A_i|`` times its
    canonical row."""
    n = len(aug[0]) - 1
    yb = sum(yi * row[n] for yi, row in zip(y, aug))
    if len(y) != len(aug) or min(y) < 0 or yb >= 0 or any(
        sum(yi * row[j] for yi, row in zip(y, aug)) for j in range(n)
    ):
        raise AssertionError("Farkas multipliers failed verification")
    # the zero entries, all but at most n + 1, share one Fraction; a list,
    # not a generator, for the reason given in ``linalg.scaled``
    return tuple([Fraction(yi * max(map(abs, row[:n])), -yb) if yi else _ZERO for yi, row in zip(y, aug)])


def _checked_ray(aug, C, ray: Vector) -> Vector:
    """ray, checked over the integer rows ``aug`` to be a recession
    direction (``a.ray <= 0`` for every row) along which the integer cost C
    falls (``C.ray < 0``), both on a positive integer multiple of it."""
    R = scaled(ray)[0]
    if any(sum(map(mul, row, R)) > 0 for row in aug) or sum(map(mul, C, R)) >= 0:
        raise AssertionError("unbounded ray failed verification")
    return ray


def _walked(A, n: int, start, rays: list | None = None) -> list[Vertex]:
    """Every vertex, from the walk of the whole vertex graph from the
    vertex ``start``, sorted by point."""
    points = _walk(A, n, [start], {start[0][0]: set()}, rays)
    return [_vertex(A, n, state) for state, _ in _in_order(points)]


def _walk(A, n: int, todo: list, tested: dict, rays: list | None = None, C=None) -> list:
    """The vertices reached from those in ``todo``, each as its state (see
    ``_lowest``) with the adjugate it carries, in the order they are left.

    A vertex is kept by its active set as the integer point ``X / D``
    (D > 0) with its integer slacks ``S = b D - A X``, made once.  A
    simplicial vertex, whose active rows with identical integer rows merged
    number n, also carries the integer adjugate of those n rows, as an lrs
    dictionary does (see ``_adjugate``): its edges are the adjugate's
    columns, and the neighbour reached along column j, if simplicial too,
    gets its adjugate by one Bareiss exchange (``_handed``).  Any other
    vertex lists its edges from its rank-(n-1) active subsets
    (``_edges``).  ``tested`` maps the active set of every vertex met so
    far to the edge directions there that are already ratio-tested; edge
    directions are integer and gcd-reduced, so the way back from a
    neighbour is marked there and never tested again.  Cost per vertex: n
    columns and one O(n^2) exchange if simplicial, else its rank-(n-1)
    active subsets; then one m n ratio test per untested edge.  Each edge
    no row blocks is appended to ``rays``, if given.  With an integer cost
    C, only the edges d with ``C.d = 0`` are followed: from an optimal
    vertex, the walk lists the optimal face."""
    points = []
    while todo:
        vertex = todo.pop()
        points.append(vertex)
        (active, X, D, S), adjugate = vertex
        for j, d in enumerate(_edges(A, n, active) if adjugate is None else _columns(*adjugate)):
            if d in tested[active] or C is not None and sum(map(mul, C, d)):
                continue
            neighbour = _pivot(A, X, D, S, d)
            if neighbour is None:
                if rays is not None:
                    rays.append(list(d))
                continue
            reached = neighbour[0]
            if reached not in tested:
                tested[reached] = set()
                todo.append((neighbour, _handed(A, n, reached, active, adjugate, j)))
            tested[reached].add(tuple(-x for x in d))
    return points


def _in_order(points: list) -> list:
    """The walk's vertices sorted by their integer points, compared over
    one common denominator: X / D over L is the integer point X L / D."""
    L = lcm(*[state[2] for state, _ in points])
    return sorted(points, key=lambda point: [x * (L // point[0][2]) for x in point[0][1]])


def _vertex(A, n: int, state) -> Vertex:
    """The Vertex of a walk state; a simple vertex's n active rows are its
    only basis."""
    active, X, D, _ = state
    return Vertex(point=tuple(Fraction(x, D) for x in X), active=active,
                  defining=active if len(active) == n else _lex_basis(A, active, n))


def _phase_two(A, n: int, start, C: list[int]):
    """Minimize ``C.x`` from phase one's vertex ``start``: ``(face, None)``
    with the optimal face's vertices as ``_walk`` leaves them, or
    ``(None, rays)`` when C falls along an edge no row blocks, with every
    ray of the polyhedron as ``_minkowski_weyl`` lists them.

    At each vertex the first edge d with ``C.d < 0`` is ratio-tested and
    followed.  Edges are true edges, also at a degenerate vertex (see
    ``_edges``), so each move reaches a new vertex with a strictly smaller
    ``C.x`` and the descent cannot cycle.  When no edge falls, the vertex
    is optimal, since its edges generate its tangent cone, and the walk
    follows the edges with ``C.d = 0`` from it: they join the vertices of
    the optimal face.  When an edge falls that no row blocks, the walk goes
    on from the descent's vertices with their tested edges marked, so it
    lists every ray and ratio-tests each edge once, as ``_minkowski_weyl`` does.
    """
    tested = {start[0][0]: set()}
    path, vertex = [], start
    while True:
        path.append(vertex)
        (active, X, D, S), adjugate = vertex
        edges = _edges(A, n, active) if adjugate is None else _columns(*adjugate)
        j, d = next(((j, d) for j, d in enumerate(edges) if sum(map(mul, C, d)) < 0), (None, None))
        if d is None:
            return _walk(A, n, [vertex], tested, C=C), None
        tested[active].add(d)
        neighbour = _pivot(A, X, D, S, d)
        if neighbour is None:
            rays = [list(d)]
            _walk(A, n, path, tested, rays)
            return None, rays
        reached = neighbour[0]
        tested[reached] = {tuple(-x for x in d)}
        vertex = neighbour, _handed(A, n, reached, active, adjugate, j)


def _phase_one(A, aug, n: int):
    """The walk's start: ``(start, None)`` with the first vertex's state
    (see ``_lowest``) and the adjugate it carries (see ``_handed``);
    ``(None, y)`` with integer Farkas multipliers ``y >= 0`` over ``aug``,
    ``y A = 0`` and ``y b < 0``, when P is empty; ``(None, None)`` when A
    has rank below n, so P has no vertex.

    The lexicographically smallest basis B and its adjugate come from one
    fraction-free pass (``_adjugate``), and ``x0 = inv(A_B) b_B``.  If x0
    violates a row, ``_bland`` minimizes t over the lifted set
    ``{-t <= 0, A_B x <= b_B, A_N x - t <= b_N}`` from its vertex (x0, t0):
    its basis is B and the most violated row k, its adjugate B's bordered
    ``[[-M, 0], [-a_k M, det]]`` with determinant ``-det``.  The t-row is
    row 0, so it wins every ratio tie and enters as t reaches 0; the other
    basis rows are then a basis of the vertex x, and the lifted adjugate
    cut to them is theirs.  If t stays positive, ``y = -e_t M / det >= 0``
    over the basis rows proves P empty."""
    m = len(A)
    found = _adjugate(A, range(m), n)
    if found is None:
        return None, None
    basis, M, det = found
    # x0 = X / D, with X = M b_B
    X = [sum(aug[i][n] * col[p] for i, col in zip(basis, M)) for p in range(n)]
    D = det
    if D < 0:
        X, D = [-x for x in X], -D
    S = [row[n] * D - sum(map(mul, a, X)) for row, a in zip(aug, A)]
    k = min(range(m), key=S.__getitem__)
    if S[k] >= 0:
        start, adjugate = _lowest(X, D, S), (M, det)
    else:
        # the lifted rows, row i of A as row i + 1, at the point (X, T) / D
        lifted = set(basis)
        rows = [(0,) * n + (-1,)] + [a + (0,) if i in lifted else a + (-1,) for i, a in enumerate(A)]
        T = -S[k]
        S = [T] + [s if i in lifted else s + T for i, s in enumerate(S)]
        M = [[-x for x in col] + [-sum(map(mul, A[k], col))] for col in M] + [[0] * n + [det]]
        basis, (M, det), (Z, D, S), _ = _bland(rows, [i + 1 for i in basis] + [k + 1], M, -det,
                                                [0] * n + [1], X + [T], D, S)
        if 0 not in basis:
            y = [0] * m
            for i, col in zip(basis, M):
                y[i - 1] = -col[n] if det > 0 else col[n]
            return None, y
        j = basis.index(0)
        start = _lowest(Z[:n], D, S[1:])
        adjugate = [col[:n] for i, col in enumerate(M) if i != j], det
    return (start, adjugate if _merged(A, start[0], n) is not None else None), None


def _bland(rows, basis: list[int], M, det: int, C, X: list[int], D: int, S: list[int]):
    """Minimize ``C.x`` over ``{x : rows x <= b}`` by Bland's rule (1977),
    from the point ``X / D`` with integer slacks ``S = b D - rows X`` at
    which the rows ``basis`` are tight, carrying their adjugate ``M = det
    inv(rows_B)`` (see ``_adjugate``).  With ``y = -C M / det``, C falls
    along column j of ``-M / det`` iff ``y_j < 0``; the basis row of least
    index among those leaves, and of the rows rising along that column the
    one met first enters, the least row among ties.  Each step is one sign
    test, one integer ratio test (m n) and one ``_exchange``; the least
    index choices rule out cycling.  ``(basis, (M, det), (X, D, S), d)``
    with the final basis, adjugate and point, and d None when ``y >= 0``
    proves the point optimal, or else the column along which C falls and
    no row blocks.  ``basis`` is updated in place."""
    while True:
        falls = [(i, j) for j, (i, col) in enumerate(zip(basis, M)) if sum(map(mul, C, col)) * det > 0]
        if not falls:
            return basis, (M, det), (X, D, S), None
        j = min(falls)[1]
        d = _column(M[j], det)
        E = [sum(map(mul, row, d)) for row in rows]
        r = None
        for i, e in enumerate(E):
            if e > 0 and (r is None or S[i] * E[r] < S[r] * e):
                r = i
        if r is None:
            return basis, (M, det), (X, D, S), d
        # the next point (e X + s d) / (e D), with slacks e S - s E
        e, s = E[r], S[r]
        _, X, D, S = _lowest([e * x + s * y for x, y in zip(X, d)], e * D,
                             [e * t - s * f for t, f in zip(S, E)])
        M, det = _exchange(rows[r], M, det, j)
        basis[j] = r


def _dual(rows, basis, M, det: int, C, S: list[int]) -> list[int]:
    """The integers ``Y = -C M`` of the adjugate ``M = det inv(rows_B)``
    of the basis rows, so that ``y = Y / det`` over them, checked to be
    ``y >= 0`` with ``y rows_B = -C`` at a point whose integer slacks S
    are ``>= 0`` and 0 on the basis rows: the proof that the point
    minimizes ``C.x`` over ``{x : rows x <= b}``."""
    Y = [-sum(map(mul, C, col)) for col in M]
    if min(S) < 0 or any(S[i] for i in basis) or any(y * det < 0 for y in Y) or any(
        sum(y * rows[i][k] for y, i in zip(Y, basis)) != -det * c for k, c in enumerate(C)
    ):
        raise AssertionError("optimality multipliers failed verification")
    return Y


def _tie_certificate(G, C: list[int], L: int) -> Vector:
    """``-c_min = -C / L`` in the normal cone of a tied vertex whose
    distinct active integer rows are G: multipliers ``>= 0`` over G's rows
    as canonical normals ``G_i / max|G_i|``, checked by ``_dual``.
    ``_bland`` minimizes ``C.d`` over the vertex's tangent
    cone ``G d <= 0`` from its apex, where every slack is 0, so every step
    is degenerate, and none is taken when G has n rows.  It starts at the
    lexicographic basis of G and ends where ``y = -C M / det >= 0``; the
    multiplier of basis row i is ``y_i max|G_i| / L``, 0 off the basis."""
    n = len(C)
    basis, M, det = _adjugate(G, range(len(G)), n)
    basis, (M, det), (_, _, S), d = _bland(G, list(basis), M, det, C, [0] * n, 1, [0] * len(G))
    if d is not None:
        raise AssertionError("a minimum-value vertex misses the normal cone")
    y = dict(zip(basis, _dual(G, basis, M, det, C, S)))
    return tuple(Fraction(y[i] * max(map(abs, g)), det * L) if i in y else _ZERO for i, g in enumerate(G))


def _merged(A, active: IndexSet, n: int) -> IndexSet | None:
    """The basis of a simplicial vertex: its active rows with identical
    integer rows merged into the first of them, or None when more than n
    remain (at a vertex their rank is n, so n distinct rows are a basis)."""
    if len(active) == n:
        return active
    first = {}
    for i in active:
        first.setdefault(A[i], i)
    return tuple(first.values()) if len(first) == n else None


def _handed(A, n: int, reached: IndexSet, active: IndexSet, adjugate, j):
    """The adjugate the vertex with active set ``reached`` carries, entered
    from ``active`` along column j of its ``adjugate``: None unless it is
    simplicial, one exchange after a simplicial vertex, else made afresh."""
    basis = _merged(A, reached, n)
    if basis is None:
        return None
    if adjugate is None:
        return _adjugate(A, basis, n)[1:]
    # every newly tight row rises along the edge, so any of them enters at j
    k = next(i for i in reached if i not in active)
    return _exchange(A[k], *adjugate, j)


def _adjugate(A, rows: Iterable[int], n: int):
    """The first basis B among ``rows`` (greedy in their order, so the
    lexicographically smallest when they ascend) with ``(M, det)``,
    ``M = det inv(A_B)`` as the list of M's columns: one fraction-free pass
    over ``[A_B | I]``, whose rows end as ``det`` at their pivot column
    beside a row of M.  None when the rows have rank below n."""
    echelon, basis = ([], (), 1), []
    for i in rows:
        t = len(basis)
        grown = extend(*echelon, A[i] + tuple([int(s == t) for s in range(n)]), n)
        if grown is not None:
            echelon = grown
            basis.append(i)
            if t + 1 == n:
                break
    else:
        return None
    echelon, pivots, det = echelon
    M = [[0] * n for _ in range(n)]
    for row, p in zip(echelon, pivots):
        for j in range(n):
            M[j][p] = row[n + j]
    return tuple(basis), M, det


def _columns(M, det: int):
    """The edges of a simplicial vertex: column j of ``-M / det`` leaves
    basis row j and keeps the others tight, gcd-reduced."""
    for col in M:
        yield _column(col, det)


def _column(col, det: int) -> tuple[int, ...]:
    """The column ``-col / det`` as a gcd-reduced integer direction."""
    g = gcd(*col) if det < 0 else -gcd(*col)
    return tuple(x // g for x in col)


def _exchange(a, M, det: int, j: int):
    """The adjugate after the row a enters the basis at position j (one
    Bareiss step): with ``r = a M``, the new determinant is ``r[j]`` and
    column i becomes ``(r[j] M_i - r[i] M_j) / det``; column j stays."""
    r = [sum(map(mul, a, col)) for col in M]
    q, Mj = r[j], M[j]
    return [
        Mj if i == j else [(q * x - ri * y) // det for x, y in zip(col, Mj)]
        for i, (col, ri) in enumerate(zip(M, r))
    ], q


def _subsystems(rows, size: int, n: int, first: int = 0, echelon=([], (), 1)):
    """The independent ``size``-subsets of ``rows`` but their last, depth
    first in lexicographic order, each as the index after its last row and
    its echelon form; a dependent prefix prunes its subtree."""
    depth = len(echelon[1])
    if depth == size:
        yield first, echelon
        return
    for j in range(first, len(rows) - size + depth):
        grown = extend(*echelon, rows[j], n)
        if grown is not None:
            yield from _subsystems(rows, size, n, j + 1, grown)


def _lowest(X: list[int], D: int, S: list[int]):
    """The state of the vertex X / D with slacks S, in lowest terms: its
    active set, X, D and S."""
    g = gcd(D, *X)
    if g > 1:
        X, D, S = [x // g for x in X], D // g, [s // g for s in S]
    return tuple(i for i, s in enumerate(S) if not s), X, D, S


def _edges(A, n: int, active: IndexSet) -> list[tuple[int, ...]]:
    """The gcd-reduced edge directions at a vertex: the null directions of
    its rank-(n-1) active subsets, kept when no active row rises along one
    (or along its negative), each once."""
    rows = [A[i] for i in active]
    edges = {}
    for d in _null_lines(rows, n):
        rises = [sum(map(mul, row, d)) for row in rows]
        if max(rises) > 0:
            if min(rises) < 0:
                continue
            d = [-x for x in d]
        g = gcd(*d)
        edges[tuple(x // g for x in d)] = None
    return list(edges)


def _null_lines(rows, n: int):
    """A null direction of each independent (n-1)-subset of ``rows``."""
    if n == 1:
        # the empty subset: its null space is the whole line
        yield [1]
        return
    for first, echelon in _subsystems(rows, n - 2, n):
        # the prefix's null space is the plane spanned by u and w, and each
        # later row r independent of the prefix cuts it to the line through
        # (r.w) u - (r.u) w
        f1, f2 = (c for c in range(n) if c not in echelon[1])
        u = null_direction(*echelon, f1, n)
        w = null_direction(*echelon, f2, n)
        for r in rows[first:]:
            ru, rw = sum(map(mul, r, u)), sum(map(mul, r, w))
            if ru or rw:
                yield [rw * x - ru * y for x, y in zip(u, w)]


def _pivot(A, X: list[int], D: int, S: list[int], d: tuple[int, ...]):
    """Move from the vertex ``X / D`` along the edge d to the first row it
    meets: the neighbour's state (see ``_lowest``), or None when no
    row blocks d (a ray).  Ratios compare by cross-multiplication."""
    E = [sum(map(mul, a, d)) for a in A]
    k = None
    for i, e in enumerate(E):
        if e > 0 and (k is None or S[i] * E[k] < S[k] * e):
            k = i
    if k is None:
        return None
    # the neighbour is (e X + s d) / (e D), with slacks e S - s E
    e, s = E[k], S[k]
    return _lowest([e * x + s * y for x, y in zip(X, d)], e * D, [e * t - s * f for t, f in zip(S, E)])


def _lex_basis(rows, indices: Iterable[int], n: int) -> IndexSet | None:
    """The lexicographically smallest subset of ``indices`` whose integer
    rows form a basis of R^n (greedy in index order, as in any matroid), or
    None when they have rank below n."""
    basis: list[int] = []
    echelon = ([], (), 1)
    for i in indices:
        grown = extend(*echelon, rows[i], n)
        if grown is not None:
            echelon = grown
            basis.append(i)
            if len(basis) == n:
                return tuple(basis)
    return None


# ---------------------------------------------------------------------------
# JSON codec (the one external wire format for polyhedra)


def polyhedron_to_dict(P: Polyhedron) -> dict:
    return {
        "n": P.n,
        "constraints": [
            {"a": format_vector(hs.a), "b": format_rational(hs.b)} for hs in P.halfspaces
        ],
    }


def polyhedron_from_dict(data: dict) -> Polyhedron:
    try:
        n = data["n"]
        if type(n) is not int:  # a JSON integer: not 1.9, "1" or true
            raise ValueError(f"n must be an integer, got {n!r}")
        rows = data["constraints"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polyhedron JSON: {exc}") from exc
    try:
        halfspaces = [HalfSpace(parse_vector(row["a"]), parse_rational(row["b"])) for row in rows]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polyhedron JSON: {exc}") from exc
    return Polyhedron(n, halfspaces)
