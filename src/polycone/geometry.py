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
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InfeasiblePoint
from .linalg import Vector, dot, extend, null_direction, scaled
from .rationals import format_rational, format_vector, parse_rational, parse_vector

IndexSet = tuple[int, ...]


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
            scaled = set()
            for g in self.generators:
                if len(g) != self.n:
                    raise DimensionMismatch("cone generator dimension mismatch")
                if all(x == 0 for x in g):
                    raise ValueError("cone generators must be nonzero")
                ray = canonical_ray(g)
                if ray in scaled:
                    raise ValueError("cone generators duplicate after canonical scaling")
                scaled.add(ray)

    @property
    def is_trivial(self) -> bool:
        return self.generators is not None and not self.generators

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
    xv = _coerce_vector(x)
    if len(xv) != P.n:
        raise DimensionMismatch(f"point dimension {len(xv)} != ambient {P.n}")
    active = []
    for i, hs in enumerate(P.halfspaces):
        s = hs.slack(xv)
        if s < 0:
            raise InfeasiblePoint(f"constraint {i} violated by {s}")
        if s == 0:
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

    One integer kernel for every n, output-sensitive after a start search.
    The start walks the lexicographic (n-1)-row prefixes depth first, each
    new row eliminated fraction-free (Bareiss 1968) against the prefix it
    extends, and cuts each full-rank prefix's line to its feasible segment
    until a segment has an endpoint: the first vertex.  From there the walk
    follows the vertex graph (Avis and Fukuda 1992).  A simplicial vertex,
    whose active rows with identical rows merged number n, carries the
    integer adjugate of those rows as an lrs dictionary does: its edges are
    the adjugate's columns, and a simplicial neighbour gets its adjugate by
    one O(n^2) Bareiss exchange.  Any other vertex takes as edges the null
    directions of its rank-(n-1) subsets of active rows that no active row
    rises along.  One ratio test over all m rows moves along each edge to
    the neighbour, whose active set is the rows tight there.  Each edge is
    ratio-tested once.  ``defining`` is the greedy, so lexicographically
    smallest, nonsingular n-subset of ``active``.  Cost: |V| times the
    edges per vertex times m n, plus the start search, which is a full
    O(C(m, n-1) m n) walk only when P has no vertex (empty or not pointed).
    At n = 4: 0.004 s for m = 20, 0.036 s for m = 30, 0.20 s for m = 60,
    from m = 30 on most of it the start search (CPython 3.11, 2 shared
    vCPUs).  Output sorted by point.
    """
    return _vertices(P, _integer_rows(P))


def _vertices(P: Polyhedron, aug: list[list[int]], rays: list | None = None) -> list[Vertex]:
    """The walk behind ``enumerate_vertices``, over P's integer rows ``aug``.

    A vertex is kept by its active set as the integer point ``X / D``
    (D > 0) with its integer slacks ``S = b D - A X``, made once.  A
    simplicial vertex, whose active rows with identical integer rows merged
    number n, also carries the integer adjugate of those n rows, as an lrs
    dictionary does (see ``_adjugate``): its edges are the adjugate's
    columns, and the neighbour reached along column j, if simplicial too,
    gets its adjugate by one Bareiss exchange (``_exchange``).  Any other
    vertex lists its edges from its rank-(n-1) active subsets (``_edges``).
    Edge directions are integer and gcd-reduced, so the way back from a
    neighbour is marked there and never tested again.  Cost per vertex: n
    columns and one O(n^2) exchange if simplicial, else its rank-(n-1)
    active subsets; then one m n ratio test per untested edge.  On a seed-1
    ``vertex-n4`` round of perfbench, 712 of the 725 vertices are
    simplicial, and listing edges takes 0.023 s against the 0.094 s of a
    subset search at every vertex (under cProfile).  Given a list
    ``rays``, it also appends the direction of every edge no row blocks,
    once per such edge: for pointed nonempty P, these are the extreme rays
    of its recession cone."""
    n = P.n
    start = _first_vertex(aug, n)
    if start is None:
        return []
    A = [tuple(row[:n]) for row in aug]
    # active set -> its edge directions already tested from the other end
    tested: dict[IndexSet, set] = {start[0]: set()}
    todo, points = [(start, _handed(A, n, start[0], (), None, None))], []
    while todo:
        (active, X, D, S), adjugate = todo.pop()
        points.append((tuple(Fraction(x, D) for x in X), active))
        for j, d in enumerate(_edges(A, n, active) if adjugate is None else _columns(*adjugate)):
            if d in tested[active]:
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
    # a simple vertex's n active rows are its only basis
    return [
        Vertex(point=p, active=a, defining=a if len(a) == n else _lex_basis(A, a, n))
        for p, a in sorted(points)
    ]


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
        return _adjugate(A, basis, n)
    # every newly tight row rises along the edge, so any of them enters at j
    k = next(i for i in reached if i not in active)
    return _exchange(A[k], *adjugate, j)


def _adjugate(A, basis: IndexSet, n: int):
    """``(M, det)`` with ``M = det inv(A_B)`` for the basis rows B, as the
    list of M's columns: one fraction-free pass over ``[A_B | I]``, whose
    rows end as ``det`` at their pivot column beside a row of M."""
    echelon = ([], (), 1)
    for t, i in enumerate(basis):
        echelon = extend(*echelon, A[i] + tuple(int(s == t) for s in range(n)), n)
    rows, pivots, det = echelon
    M = [[0] * n for _ in range(n)]
    for row, p in zip(rows, pivots):
        for j in range(n):
            M[j][p] = row[n + j]
    return M, det


def _columns(M, det: int):
    """The edges of a simplicial vertex: column j of ``-M / det`` leaves
    basis row j and keeps the others tight, gcd-reduced."""
    for col in M:
        g = gcd(*col) if det < 0 else -gcd(*col)
        yield tuple(x // g for x in col)


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


def _subsystems(rows, size: int, n: int, spare: int, first: int = 0, echelon=([], (), 1)):
    """The independent ``size``-subsets of ``rows`` but their last
    ``spare``, depth first in lexicographic order, each as the index after
    its last row and its echelon form; a dependent prefix prunes its
    subtree."""
    depth = len(echelon[1])
    if depth == size:
        yield first, echelon
        return
    for j in range(first, len(rows) - spare - size + depth + 1):
        grown = extend(*echelon, rows[j], n)
        if grown is not None:
            yield from _subsystems(rows, size, n, spare, j + 1, grown)


def _first_vertex(aug, n: int):
    """The first vertex met on the lexicographic prefix lines, as its state
    (see ``_vertices``), or None when P has none.  A vertex's smallest
    basis has a row after its first n-1, so no prefix ends at the last row."""
    for _, echelon in _subsystems(aug, n - 1, n, 1):
        end = _segment_end(aug, n, echelon)
        if end is not None:
            X, D = end
            return _lowest(X, D, [row[n] * D - sum(map(mul, row, X)) for row in aug])
    return None


def _segment_end(aug, n: int, echelon):
    """An endpoint ``(X, D)``, point X / D, of the feasible part of the
    line the full-rank (n-1)-row echelon spans; None when that part is
    empty or the whole line."""
    # the line: x = (s d - offset) / det with s = x[free], from the null
    # directions of the rows [a, b] at the free and right-hand columns
    free = next(c for c in range(n) if c not in echelon[1])
    d = null_direction(*echelon, free, n + 1)
    offset = null_direction(*echelon, n, n + 1)
    # row i reads e s <= g on the line, so s <= g/e or -s <= g/|e|; each
    # side keeps [g, |e|] of its least bound (|e| == 0: none yet)
    hi, lo = [0, 0], [0, 0]
    for row in aug:
        e = sum(map(mul, row, d))
        g = sum(map(mul, row, offset))
        if e:
            side = hi if e > 0 else lo
            e = abs(e)
            if not side[1] or g * side[1] < side[0] * e:
                side[:] = g, e
                if hi[1] and lo[1] and hi[0] * lo[1] + lo[0] * hi[1] < 0:
                    return None
        elif g < 0:
            return None
    g, e = hi if hi[1] else (-lo[0], lo[1])
    if not e:
        return None
    return [g * y - e * x for x, y in zip(offset[:n], d)], e * offset[n]


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
    for first, echelon in _subsystems(rows, n - 2, n, 1):
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
