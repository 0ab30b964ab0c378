"""Exact rational helpers the checkers and generators use instead of polycone.

Everything here is written from the definitions (Gaussian elimination over
``Fraction``, brute force over n-row subsystems), so a check built on it is
independent of the package under test.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def canonical(a) -> tuple[Fraction, ...]:
    """Scale a nonzero vector so its largest |coefficient| is 1."""
    scale = max(abs(x) for x in a)
    return tuple(Fraction(x) / scale for x in a)


def solve(rows, rhs):
    """Solution of the square system, or None when it is singular."""
    n = len(rows)
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [v / p for v in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f != 0:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def _echelon(rows, width):
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        m[r] = [v / p for v in m[r]]
        for i in range(len(m)):
            f = m[i][col]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows, width: int) -> int:
    return len(_echelon(rows, width)[1]) if rows else 0


def nullspace(rows, width: int) -> list[tuple[Fraction, ...]]:
    if not rows:
        return [tuple(ONE if i == j else ZERO for j in range(width)) for i in range(width)]
    reduced, pivots = _echelon(rows, width)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [ZERO] * width
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def feasible(A, b, x) -> bool:
    return all(dot(a, x) <= bi for a, bi in zip(A, b))


def _vertex_candidates(A, b):
    n = len(A[0])
    for combo in itertools.combinations(range(len(A)), n):
        x = solve([A[i] for i in combo], [b[i] for i in combo])
        if x is not None and feasible(A, b, x):
            yield x


def brute_vertices(A, b) -> list[tuple[Fraction, ...]]:
    """Sorted extreme points of {x : A x <= b}: feasible solutions of
    nonsingular n-row subsystems, deduplicated."""
    return sorted(set(_vertex_candidates(A, b)))


def has_vertex(A, b) -> bool:
    return next(_vertex_candidates(A, b), None) is not None


def lineality_slice(A, b):
    """{x : A x <= b} cut by the orthogonal complement of its lineality
    space; the slice is pointed and unique (it does not depend on a basis)."""
    n = len(A[0])
    extra_A, extra_b = [], []
    for v in nullspace(A, n):
        extra_A += [v, tuple(-x for x in v)]
        extra_b += [ZERO, ZERO]
    return list(A) + extra_A, list(b) + extra_b


def active_rank(A, b, x) -> int:
    return rank([a for a, bi in zip(A, b) if dot(a, x) == bi], len(x))
