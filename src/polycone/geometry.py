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
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, InfeasiblePoint
from .linalg import Vector, dot, extend, nullspace, scaled, vec_neg
from .rationals import format_rational, format_vector, parse_rational, parse_vector

IndexSet = tuple[int, ...]

_ZERO = Fraction(0)


def _coerce_vector(values: Iterable) -> Vector:
    """values as a tuple of Fractions, converting only those that are not."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


class _Checked:
    """A NamedTuple whose ``_make``, and so ``_replace``, builds through
    ``__new__``, which validates its fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class HalfSpace(_Checked, NamedTuple("HalfSpace", [("a", Vector), ("b", Fraction)])):
    """Closed half-space ``<a, x> <= b`` in canonical L-infinity form.

    The normal is rescaled so its largest absolute coefficient is exactly 1;
    this keeps canonical forms rational (a Euclidean unit normal generally
    is not) while fixing a unique representative per half-space.
    """

    __slots__ = ()

    def __new__(cls, a: Iterable, b) -> "HalfSpace":
        avec = _coerce_vector(a)
        bval = Fraction(b)
        if not avec or all(x == 0 for x in avec):
            raise ValueError("half-space normal must be nonzero")
        scale = max(abs(x) for x in avec)
        if scale != 1:
            avec = tuple(x / scale for x in avec)
            bval = bval / scale
        return super().__new__(cls, avec, bval)

    @property
    def n(self) -> int:
        return len(self.a)

    def slack(self, x: Sequence[Fraction]) -> Fraction:
        return self.b - dot(self.a, x)

    def homogeneous(self) -> "HalfSpace":
        return HalfSpace(self.a, 0)

    def flipped(self) -> "HalfSpace":
        return HalfSpace(tuple(-x for x in self.a), -self.b)


class Polyhedron(_Checked, NamedTuple("Polyhedron", [("n", int), ("halfspaces", tuple[HalfSpace, ...])])):
    """H-polyhedron ``{x : A x <= b}`` over exact rationals."""

    __slots__ = ()

    def __new__(cls, n: int, halfspaces: Iterable[HalfSpace]) -> "Polyhedron":
        rows = tuple(halfspaces)
        if not rows:
            raise ValueError("a polyhedron needs at least one constraint (R^n is excluded)")
        for hs in rows:
            if hs.n != n:
                raise DimensionMismatch(f"constraint dimension {hs.n} != ambient {n}")
        return super().__new__(cls, n, rows)

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


class Cone(_Checked, NamedTuple("Cone", [("n", int), ("hform", tuple[HalfSpace, ...] | None),
                                ("generators", tuple[Vector, ...] | None)])):
    """Polyhedral cone in exactly one of two representations.

    H-form rows are half-spaces through the origin; generator form is a
    finite set of rays.  Empty H-form means all of R^n, the empty generator
    list means the trivial cone {0}.
    """

    __slots__ = ()

    def __new__(cls, n: int, hform: tuple[HalfSpace, ...] | None = None,
                generators: tuple[Vector, ...] | None = None) -> "Cone":
        if (hform is None) == (generators is None):
            raise ValueError("cone needs exactly one of hform / generators")
        if hform is not None:
            for hs in hform:
                if hs.n != n:
                    raise DimensionMismatch("cone row dimension mismatch")
                if hs.b != 0:
                    raise ValueError("cone half-spaces must pass through the origin")
        if generators is not None:
            rays = set()
            for g in generators:
                if len(g) != n:
                    raise DimensionMismatch("cone generator dimension mismatch")
                if all(x == 0 for x in g):
                    raise ValueError("cone generators must be nonzero")
                ray = canonical_ray(g)
                if ray in rays:
                    raise ValueError("cone generators duplicate after canonical scaling")
                rays.add(ray)
        return super().__new__(cls, n, hform, generators)

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
    walk follows the vertex graph (Avis and Fukuda 1992).  Every vertex
    carries one record, its state with the integer adjugate of its witness
    basis, as an lrs dictionary does (``_walk``): the greedy, so
    lexicographically smallest, nonsingular n-subset of ``active``, which
    ``defining`` is.  A simplicial neighbour of a simplicial vertex, whose
    active rows with identical rows merged number n, gets its adjugate by
    one O(n^2) Bareiss exchange, and any other vertex by one basis search.
    Its edges are the extreme rays of its tangent cone, by double
    description from the adjugate's columns, which they are at a
    simplicial vertex.  One ratio test over all m rows moves along an edge
    to the neighbour, whose active set is the rows tight there.  Edges are
    keyed by their tight rows, every vertex keys its edges when it is
    found, and an edge whose far end a key already names is not
    ratio-tested: the walk costs |V| - 1 ratio tests, a spanning tree of
    its vertex graph, and one per edge no row blocks.  Cost: those ratio
    tests, m n each, and |V| times the edges per vertex key lookups, plus
    phase one's pivots, m n each.  At n = 4: 0.0012 s for m = 20 and m =
    30 and 0.0028 s for m = 60, against 0.0017, 0.0017 and 0.0045 s with
    every edge ratio-tested (best of seven, CPython 3.11, 2 shared vCPUs).
    Output sorted by point (``_vertices`` on P's integer rows).
    """
    return _vertices(_integer_rows(P), P.n)


def _vertices(aug, n: int) -> list[Vertex]:
    """The vertices of the integer rows' set in R^n, as ``enumerate_vertices``
    gives them: none when it is empty or the rows have rank below n, else
    every record of one walk (``_walk``), sorted by point and read out by
    ``_vertex``."""
    A = [tuple(row[:n]) for row in aug]
    start, _ = _phase_one(A, aug, n)
    return [] if start is None else [_vertex(vertex) for vertex in _in_order(_walk(A, n, start))]


def _minkowski_weyl(aug, n: int):
    """The set ``{x : a.x <= b}`` of the integer rows ``aug`` ``[a...,
    b]`` in R^n as ``conv V + cone R + lin L`` from one walk (Schrijver
    1986, ch. 8): ``(lineality, states, rays, farkas)``, with L and
    ``farkas`` as ``_start`` gives them, V as the walk's integer states
    ``(active, X, D, S)`` (see ``_lowest``) sorted by point, as
    ``enumerate_vertices`` sorts its vertices, and R as the integer
    directions of the edges no row blocks, each once, in the order the
    walk first meets it (see ``_walk``); no vertex is read out as a
    Vertex.  When L is nonzero, V and R are those of the slice orthogonal
    to L; when the set is empty, only ``farkas`` is given."""
    lineality, A, start, farkas = _start(aug, n)
    if farkas is not None:
        return (), [], [], farkas
    rays = []
    states = [state for state, _ in _in_order(_walk(A, n, start, rays))]
    return lineality, states, rays, None


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


def _walk(A, n: int, start, rays: list | None = None, C=None) -> list:
    """The vertices reached from the vertex ``start``, a state (see
    ``_lowest``) with the adjugate of a basis of its tight rows (see
    ``_adjugate``), in the order they are left, each as one record: its
    state with ``(basis, M, det)``, the adjugate of its witness basis, as
    an lrs dictionary keeps it.

    A vertex is kept by its active set as the integer point ``X / D``
    (D > 0) with its integer slacks ``S = b D - A X``, made once.  The
    start and every vertex the walk reaches go through one entry step, in
    which one ``_simplicial`` test decides its record and edges.  At a
    simplicial vertex, whose active rows with identical integer rows merged
    number n, the witness is the first of each (``_pivot``'s least-index
    ties bring the first in): the start keeps the adjugate handed over, and
    a simplicial neighbour of a simplicial vertex, reached along column j,
    gets its adjugate by one Bareiss exchange; its edges are the adjugate's
    columns, each keyed by its distinct active rows without basis row j
    (``_keys``).  Any other vertex, and a simplicial one entered from it,
    gets one ``_adjugate`` over its active rows, and any other vertex lists
    its edges with their keys by ``_edges``.

    Each edge is keyed by its tight rows, the bit set of the rows that stay
    tight along it, each set of identical rows by its first: both ends of a
    bounded edge make the same key, since the n - 1 rows tight along an
    edge are tight on exactly that edge.  Every vertex enters all its keys
    in ``ends`` when it is found, which maps each key to whether both ends
    of its edge are found, and the walk ratio-tests only the edges whose
    far end is not, so no ratio test reaches a vertex already found: on
    every polyhedron the walk ratio-tests |V| - 1 bounded edges, a
    spanning tree of its vertex graph, and each edge no row blocks once.
    Cost per vertex: one O(n^2) exchange if simplicial, else a basis
    search and the double description's; then a column and one m n ratio
    test per edge that no key settles.  The direction of each edge no row
    blocks is appended to ``rays``, if given, unless it is there: parallel
    rays leave several vertices, and each is listed once, where the walk
    first meets it.  With an integer cost C, only the edges d with ``C.d
    = 0`` are followed: from an optimal vertex, the walk lists the optimal
    face."""
    ends, todo, points = {}, [], []

    def enter(state, adjugate, j=None, k=None):
        # adjugate: the start's, kept if it is simplicial, or that of the
        # simplicial vertex left along column j as row k became tight
        active = state[0]
        simplicial = _simplicial(A, active, n)
        if not simplicial or adjugate is None:
            adjugate = _adjugate(A, active, n)
        elif k is not None:
            adjugate = _exchange(A, adjugate, j, k)
        if simplicial:
            edges = list(zip(_keys(A, active, adjugate[0]), adjugate[1]))
        else:
            edges = _edges(A, n, active, adjugate)
        for key, _ in edges:
            ends[key] = key in ends
        todo.append((state, adjugate, edges, simplicial))

    enter(*start)
    while todo:
        state, adjugate, edges, simplicial = todo.pop()
        points.append((state, adjugate))
        _, X, D, S = state
        for j, (key, d) in enumerate(edges):
            if ends[key]:
                continue
            if simplicial:
                d = _column(d, adjugate[2])
            if C is not None and sum(map(mul, C, d)):
                continue
            blocked = _pivot(A, X, D, S, d)
            if blocked is None:
                # d is gcd-reduced, so a parallel ray is an equal list
                if rays is not None and list(d) not in rays:
                    rays.append(list(d))
                continue
            k, reached = blocked
            enter(reached, adjugate if simplicial else None, j, k)
    return points


def _simplicial(A, active: IndexSet, n: int) -> bool:
    """Whether a vertex's active rows, identical integer rows merged,
    number n (at a vertex they have rank n, so they are then a basis)."""
    return len(active) == n or len({A[i] for i in active}) == n


def _firsts(A, active: IndexSet) -> dict:
    """The first of each set of identical integer rows among ``active``,
    as a bit: ``{A[i]: 1 << i}``.  At a point, identical tight rows are one
    half-space."""
    first = {}
    for i in active:
        first.setdefault(A[i], 1 << i)
    return first


def _keys(A, active: IndexSet, basis: IndexSet) -> list[int]:
    """The tight rows of each column's edge at a simplicial vertex, as the
    walk keys them: its distinct active rows without basis row j."""
    first = _firsts(A, active)
    full = sum(first.values())
    return [full ^ first[A[i]] for i in basis]


def _in_order(points: list) -> list:
    """The walk's vertices sorted by their integer points, compared over
    one common denominator: X / D over L is the integer point X L / D."""
    L = lcm(*[state[2] for state, _ in points])
    return sorted(points, key=lambda point: [x * (L // point[0][2]) for x in point[0][1]])


def _vertex(vertex) -> Vertex:
    """The Vertex of a walk's record, whose witness is the basis it carries."""
    (active, X, D, _), (basis, _, _) = vertex
    return Vertex(point=tuple(Fraction(x, D) for x in X), active=active, defining=tuple(sorted(basis)))


def _defining(A, active: IndexSet, n: int) -> IndexSet | None:
    """The witness of a point with these active rows, as the walk carries
    it at a vertex: the first basis among them (``_adjugate``'s greedy, so
    the lexicographically smallest), or None when they have rank below n,
    so the point is no vertex."""
    found = _adjugate(A, active, n)
    return found and found[0]


def _phase_two(A, n: int, start, C: list[int]):
    """Minimize ``C.x`` from phase one's vertex ``start``: ``(face, None)``
    with the optimal face's vertices as ``_walk`` leaves them, or
    ``(None, rays)`` when C is unbounded below, with every ray of the
    polyhedron, each once, as ``_minkowski_weyl`` lists them.

    Bland's rule (``_bland``) descends from ``start`` on the basis phase
    one hands over.  Where it stops with ``y >= 0``, ``-C`` lies in the
    normal cone of its vertex, which is optimal, and the walk along the
    edges with ``C.d = 0`` from it lists the optimal face.  Where C falls
    along a column no row blocks, the walk of the whole vertex graph from
    its vertex lists every ray, as ``_minkowski_weyl`` does.  Neither
    outcome is checked here: ``solve_glp`` checks each face vertex's
    multipliers (``_tie_certificate``) and the ray it reports
    (``_checked_ray``).  Cost: one ratio test per Bland step, then the
    walk's: one per vertex it finds but the first, and one per edge no row
    blocks."""
    vertex, d = _bland(A, C, start)
    if d is None:
        return _walk(A, n, vertex, C=C), None
    rays = []
    _walk(A, n, vertex, rays)
    return None, rays


def _descent(rows, C, vertex):
    """Bland's descent (``_bland``) on the integer cost C over the integer
    normals ``rows`` from ``vertex``, its outcome checked before it is
    returned: ``(vertex, Y, None)`` at an optimal stop, with the final
    vertex and ``_dual``'s checked multipliers ``Y``, so ``y = Y / det``
    over its basis rows, or ``(vertex, None, d)`` with the column d along
    which C falls and no row blocks, checked by ``_checked_ray``."""
    vertex, d = _bland(rows, C, vertex)
    if d is not None:
        return vertex, None, _checked_ray(rows, C, d)
    state, (basis, M, det) = vertex
    return vertex, _dual(rows, basis, M, det, C, state[3]), None


def _bounded(A, start) -> bool:
    """Whether the set of the integer normals A of rank n, with phase one's
    vertex ``start``, is bounded: the checked descent (``_descent``)
    minimizes ``C.x`` for the column sums ``C = 1 A`` from ``start``, and
    nothing is walked.

    Every nonzero d with ``A d <= 0`` has ``A d != 0``, since A has rank
    n, so ``C.d < 0``: C is bounded below iff the recession cone is
    trivial.  An unblocked column is a recession ray along which C falls.
    At an optimal stop ``y >= 0`` over the basis rows with ``y A_B = -C``,
    so ``w = 1 + y > 0`` with ``w A = 0``, Stiemke's certificate that ``A
    d <= 0`` forces ``A d = 0``, so d = 0.  Cost: one ratio test per Bland
    step; where C = 0, as on a cross-polytope, none."""
    return _descent(A, [sum(column) for column in zip(*A)], start)[2] is None


def _implied(aug, A, records) -> bool:
    """Whether the set R of the integer rows ``aug`` that some vertex of
    ``records``, a walk's records over their normals A (see ``_walk``),
    makes active lies in every other row, so in the set of all of them.

    For each row ``a.x <= b`` active at no vertex, ``_bland`` maximizes
    ``a.x`` over R from the first record of largest ``a.x`` (compared as
    the integer points ``X K / D`` over one common denominator K), cut to
    R's rows: its vertex is one of R's, since the rows tight there, a
    basis among them, are all R's.  Where it stops, ``_dual`` checks ``y
    >= 0`` over the basis rows with ``y A_B = a``, and ``y.b_B <= b``
    completes Farkas' certificate that R implies the row: ``a.x = y A_B x
    <= y.b_B`` on R.  Otherwise its vertex, whose ``a.x`` is ``y.b_B > b``,
    or the vertex moved by the least integer ``t >= 0`` that takes ``a.x``
    past b along the column no row of R blocks, is a witness, checked
    exactly on integers to satisfy R's rows and to violate the row.  When
    the records list every vertex of a pointed set, R is the set (each
    facet holds a vertex), the first record of largest ``a.x`` is optimal
    and the descent takes no step there if it is simplicial and only
    degenerate ones otherwise.  Cost per such row: a pass over the records
    and the descent's sign tests, ``n^2`` each, with one ``m n`` ratio test
    per step, and the check of the multipliers."""
    n = len(A[0])
    used = {i for (active, _, _, _), _ in records for i in active}
    rest = [row for i, row in enumerate(aug) if i not in used]
    if not rest:
        return True
    # R's row p is row i of aug, in row order
    position = {i: p for p, i in enumerate(sorted(used))}
    rows, R = [A[i] for i in position], [aug[i] for i in position]
    K = lcm(*[D for (_, _, D, _), _ in records])
    points = [[x * (K // D) for x in X] for (_, X, D, _), _ in records]
    for *a, b in rest:
        values = [sum(map(mul, a, Y)) for Y in points]
        (active, X, D, S), (basis, M, det) = records[values.index(max(values))]
        start = ((tuple(position[i] for i in active), X, D, [S[i] for i in position]),
                 (tuple(position[i] for i in basis), M, det))
        C = [-x for x in a]
        ((_, X, D, S), (basis, M, det)), d = _bland(rows, C, start)
        if d is None:
            Y = _dual(rows, basis, M, det, C, S)
            # y.b_B - b = (Y.b_B - b det) / det
            if (sum(y * R[i][n] for y, i in zip(Y, basis)) - b * det) * det <= 0:
                continue
            W = X
        else:
            t = max(0, (b * D - sum(map(mul, a, X))) // (D * sum(map(mul, a, d))) + 1)
            W = [x + t * D * y for x, y in zip(X, d)]
        if any(sum(map(mul, c, W)) > e * D for *c, e in R) or sum(map(mul, a, W)) <= b * D:
            raise AssertionError("reconstruction witness failed verification")
        return False
    return True


def _phase_one(A, aug, n: int):
    """The walk's start: ``(start, None)`` with the first vertex's state
    (see ``_lowest``) and the basis of its tight rows that phase one ends
    on, with their adjugate (see ``_adjugate``), which the walk and the
    Bland descents of ``solve_glp``, ``solve_lp`` and ``_bounded`` start
    from; ``(None, y)`` with integer Farkas multipliers ``y >= 0`` over
    ``aug``, ``y A = 0`` and ``y b < 0``, when P is empty; ``(None,
    None)`` when A has rank below n, so P has no vertex.

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
        return (_lowest(X, D, S), found), None
    # the lifted rows, row i of A as row i + 1, at the point (X, T) / D
    lifted = set(basis)
    rows = [(0,) * n + (-1,)] + [a + (0,) if i in lifted else a + (-1,) for i, a in enumerate(A)]
    T = -S[k]
    S = [T] + [s if i in lifted else s + T for i, s in enumerate(S)]
    M = [[-x for x in col] + [-sum(map(mul, A[k], col))] for col in M] + [[0] * n + [det]]
    start = _lowest(X + [T], D, S), (tuple(i + 1 for i in basis) + (k + 1,), M, -det)
    ((active, Z, D, S), (basis, M, det)), _ = _bland(rows, [0] * n + [1], start)
    if 0 not in basis:
        y = [0] * m
        for i, col in zip(basis, M):
            y[i - 1] = -col[n] if det > 0 else col[n]
        return None, y
    # t = 0, so the state is x's with the t-row dropped
    j = basis.index(0)
    state = tuple(i - 1 for i in active if i), Z[:n], D, S[1:]
    return (state, (tuple(i - 1 for i in basis if i), [col[:n] for p, col in enumerate(M) if p != j], det)), None


def _bland(rows, C, vertex):
    """Minimize ``C.x`` over ``{x : rows x <= b}`` by Bland's rule (1977)
    from ``vertex``: a state (see ``_lowest``) with ``(basis, M, det)``,
    rows tight there and their adjugate ``M = det inv(rows_B)`` (see
    ``_adjugate``).  With ``y = -C M / det``, C falls along column j of
    ``-M / det`` iff ``y_j < 0``; the basis row of least index among those
    leaves, and the row that ``_pivot``'s ratio test meets first, the
    least among ties, enters at j (``_exchange``).  Each step is one sign
    test, one ratio test (m n) and one O(n^2) exchange; the least index
    choices rule out cycling.  ``(vertex, d)`` with the final vertex in
    the same form, and d None when ``y >= 0`` proves it optimal, or else
    the column along which C falls and no row blocks."""
    while True:
        state, (basis, M, det) = vertex
        falls = [(i, j) for j, (i, col) in enumerate(zip(basis, M)) if sum(map(mul, C, col)) * det > 0]
        if not falls:
            return vertex, None
        j = min(falls)[1]
        d = _column(M[j], det)
        blocked = _pivot(rows, *state[1:], d)
        if blocked is None:
            return vertex, d
        r, state = blocked
        vertex = state, _exchange(rows, vertex[1], j, r)


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


def _tie_certificate(A, vertex, C: list[int], L: int) -> Vector:
    """``-c_min = -C / L`` in the normal cone of a tied vertex, a walk's
    record: multipliers ``>= 0`` over its distinct active integer rows G,
    in row order, as canonical normals ``G_i / max|G_i|``.  The checked
    descent (``_descent``) minimizes ``C.x`` from the adjugate the vertex
    carries; the vertex is optimal, so every step is degenerate and keeps
    its point, and none is taken where G has n rows.  It must stop at the
    vertex, with ``y = -C M / det >= 0``; basis row i has ``y_i max|A_i| /
    L``, others 0."""
    (state, (basis, _, det)), Y, d = _descent(A, C, vertex)
    active = vertex[0][0]
    if d is not None or state[0] != active:
        raise AssertionError("a minimum-value vertex misses the normal cone")
    y = dict(zip((A[i] for i in basis), Y))
    return tuple(Fraction(y[g] * max(map(abs, g)), det * L) if g in y else _ZERO
                 for g in dict.fromkeys(A[i] for i in active))


def _adjugate(A, rows: Iterable[int], n: int):
    """The first basis B among ``rows`` (greedy in their order, so the
    lexicographically smallest when they ascend) as ``(B, M, det)``,
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


def _column(col, det: int) -> tuple[int, ...]:
    """The column ``-col / det`` as a gcd-reduced integer direction."""
    g = gcd(*col) if det < 0 else -gcd(*col)
    return tuple(x // g for x in col)


def _exchange(rows, adjugate, j: int, k: int):
    """The adjugate ``(basis, M, det)`` after row k enters the basis at
    position j (one Bareiss step): with ``r = a M`` for ``a = rows[k]``,
    the new determinant is ``r[j]`` and column i becomes ``(r[j] M_i -
    r[i] M_j) / det``; column j stays."""
    basis, M, det = adjugate
    r = [sum(map(mul, rows[k], col)) for col in M]
    q, Mj = r[j], M[j]
    return basis[:j] + (k,) + basis[j + 1:], [
        Mj if i == j else [(q * x - ri * y) // det for x, y in zip(col, Mj)]
        for i, (col, ri) in enumerate(zip(M, r))
    ], q


def _lowest(X: list[int], D: int, S: list[int]):
    """The state of the vertex X / D with slacks S, in lowest terms: its
    active set, X, D and S."""
    g = gcd(D, *X)
    if g > 1:
        X, D, S = [x // g for x in X], D // g, [s // g for s in S]
    return tuple(i for i, s in enumerate(S) if not s), X, D, S


def _edges(A, n: int, active: IndexSet, adjugate) -> list[tuple[int, tuple[int, ...]]]:
    """The edges at a vertex, each once as ``(key, d)`` with its
    gcd-reduced direction d and its tight rows as ``_walk`` keys them, from
    the adjugate ``(basis, M, det)`` of its witness basis: the extreme rays
    of its tangent cone ``{d : A_I d <= 0}`` by double description (Motzkin
    et al. 1953; Fukuda and Prodon 1996).  It starts from the adjugate's
    columns (column j of ``-M / det`` leaves basis row j and keeps the
    others tight), and each other distinct active row cuts the cone in
    turn, so at a simplicial vertex the edges are the columns.  A ray
    carries the bit set of the rows it leaves, each set of identical rows
    by its first (``_firsts``), and a rising and a falling ray join on the
    row when every third ray leaves a row that both are tight on.  An
    edge's key is the distinct active rows without those it leaves.  The
    walk lists a vertex's edges once, when it finds the vertex: one
    ``_adjugate`` and the joins of one cut per extra distinct row."""
    basis, M, det = adjugate
    first = _firsts(A, active)
    rays = [(_column(col, det), first[A[i]]) for i, col in zip(basis, M)]
    held = {A[i] for i in basis}
    for a, bit in first.items():
        if a in held:
            continue
        signed = [(sum(map(mul, a, d)), d, z) for d, z in rays]
        rays = [(d, z | bit if e else z) for e, d, z in signed if e <= 0]
        for ep, p, zp in signed:
            for eq, q, zq in signed:
                left = zp | zq
                if ep > 0 > eq and all(z | left != left for _, _, z in signed if z not in (zp, zq)):
                    d = [ep * y - eq * x for x, y in zip(p, q)]
                    g = gcd(*d)
                    rays.append((tuple(x // g for x in d), left))
    full = sum(first.values())
    return [(full & ~z, d) for d, z in rays]


def _pivot(A, X: list[int], D: int, S: list[int], d: tuple[int, ...]):
    """Move from the point ``X / D`` along d to the first row it meets,
    the least row among ties: ``(k, state)`` with that row k and the state
    there (see ``_lowest``), or None when no row blocks d (a ray).  Ratios
    compare by cross-multiplication."""
    E = [sum(map(mul, a, d)) for a in A]
    k = None
    for i, e in enumerate(E):
        if e > 0 and (k is None or S[i] * E[k] < S[k] * e):
            k = i
    if k is None:
        return None
    # the next point is (e X + s d) / (e D), with slacks e S - s E
    e, s = E[k], S[k]
    return k, _lowest([e * x + s * y for x, y in zip(X, d)], e * D, [e * t - s * f for t, f in zip(S, E)])


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
