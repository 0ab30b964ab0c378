"""Exact dense linear algebra, fraction-free.

Every elimination is one step, ``extend``: add an integer row to a
fraction-free reduced echelon form (Bareiss 1968).  Its rows share one
denominator, the pivot minor ``det``, and ``row / det`` is a row of the
unique reduced row echelon form.  Rational rows are scaled to integers
once (``scaled``), and Fractions appear only when a result is read out.
An exact row, direction or point, fixed only up to a positive scale, is
kept in one normal form, its primitive integer vector (``primitive``).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def vec_neg(a: Sequence[Fraction]) -> Vector:
    return tuple(-x for x in a)


def scaled(values) -> tuple[list[int], int]:
    """values times the lcm L of their denominators, as ints, and L."""
    # a list, not a generator: star-unpacking a generator grows the argument
    # tuple by resizing, which parks one tuple per call on CPython's per-size
    # free lists (2000 per size, about 2 MB of peak memory after a few thousand LPs)
    L = lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integers ints, not all zero, divided by their gcd with their
    signs kept: the primitive integer vector on their ray, the one normal
    form of every exact row, direction and point.  There is no division
    when the gcd is 1."""
    g = gcd(*ints)
    return tuple(ints) if g == 1 else tuple([x // g for x in ints])


def extend(echelon: list[list[int]], pivots: tuple[int, ...], det: int, new, width: int):
    """Add the integer row ``new`` to a fraction-free echelon form.

    Each echelon row holds ``det`` at its own pivot column and 0 at the
    other rows' pivots.  Pivots are sought among the first ``width``
    columns; later entries (a right-hand side) are carried along.  Returns
    the extended ``(echelon, pivots, det)``, or None when ``new`` depends
    on the rows already there.  The empty echelon is ``([], (), 1)``.
    """
    v = [det * x for x in new]
    for row, c in zip(echelon, pivots):
        if new[c]:
            v = [x - new[c] * y for x, y in zip(v, row)]
    col = next((c for c in range(width) if v[c]), None)
    if col is None:
        return None
    q = v[col]
    rows = [[(q * x - row[col] * y) // det for x, y in zip(row, v)] for row in echelon]
    rows.append(v)
    return rows, pivots + (col,), q


def null_direction(echelon, pivots, det: int, free: int, width: int) -> list[int]:
    """The null vector of the echelon with 1 at the non-pivot column
    ``free``, times |det|: an integer positive multiple."""
    v = [0] * width
    v[free] = det
    for row, c in zip(echelon, pivots):
        v[c] = -row[free]
    return v if det > 0 else [-x for x in v]


def _echelon(rows: Sequence[Sequence], width: int):
    echelon = ([], (), 1)
    for row in rows:
        echelon = extend(*echelon, scaled(row)[0], width) or echelon
    return echelon


def nullspace(rows: Sequence[Sequence[Fraction]], width: int) -> list[Vector]:
    """Exact basis of {v : rows . v = 0}, one vector per free column."""
    echelon = _echelon(rows, width)
    det = abs(echelon[2])
    return [
        tuple(Fraction(x, det) for x in null_direction(*echelon, free, width))
        for free in range(width)
        if free not in echelon[1]
    ]


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """Solve the n x n system exactly; None when the matrix is singular."""
    n = len(rows)
    echelon = _echelon([[*row, -b] for row, b in zip(rows, rhs)], n)
    if len(echelon[1]) < n:
        return None
    # the null direction of [A, -b] at the right-hand column is |det| (x, 1)
    v = null_direction(*echelon, n, n + 1)
    return tuple(Fraction(x, v[n]) for x in v[:n])


def project_onto_span(basis: Sequence[Vector], c: Vector) -> Vector:
    """Exact orthogonal projection of c onto span(basis) by the Gram normal equations."""
    y = solve_square([[dot(u, w) for w in basis] for u in basis], [dot(u, c) for u in basis])
    if y is None:
        raise AssertionError("Gram matrix of a basis is nonsingular")
    return tuple(dot(y, col) for col in zip(*basis))
