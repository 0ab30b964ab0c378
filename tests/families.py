"""Trajectory builders for the sampled constraint families under test."""
from __future__ import annotations

from polycone import ConstraintTrajectory, CostTrajectory, PolyhedronTrajectory


def footnote_nus() -> list[float]:
    return [2.0**k for k in range(1, 11)]


def footnote_trajectory() -> PolyhedronTrajectory:
    """Planar wedge {-y <= 0, y - x/v <= 0} closing onto the half-line."""
    nus = footnote_nus()
    return PolyhedronTrajectory(
        n=2,
        constraints=(
            ConstraintTrajectory([(v, (0.0, -1.0), 0.0) for v in nus]),
            ConstraintTrajectory([(v, (-1.0 / v, 1.0), 0.0) for v in nus]),
        ),
    )


def divergent_pair_trajectory() -> PolyhedronTrajectory:
    """Same normals as the footnote family but offset -1: the pair's
    intersection points (v, 0) escape, so the bisector offset diverges."""
    nus = footnote_nus()
    return PolyhedronTrajectory(
        n=2,
        constraints=(
            ConstraintTrajectory([(v, (0.0, -1.0), 0.0) for v in nus]),
            ConstraintTrajectory([(v, (-1.0 / v, 1.0), -1.0) for v in nus]),
        ),
    )


def remark_trajectory(with_cost: bool = True) -> PolyhedronTrajectory:
    """{x >= 0, y >= 0, x + v y >= v}: sets converge, maximizers of -y do not."""
    nus = footnote_nus()
    cost = None
    if with_cost:
        cost = CostTrajectory([(v, (0.0, -1.0)) for v in nus], declared_limit=(0, -1))
    return PolyhedronTrajectory(
        n=2,
        constraints=(
            ConstraintTrajectory([(v, (-1.0, 0.0), 0.0) for v in nus]),
            ConstraintTrajectory([(v, (0.0, -1.0), 0.0) for v in nus]),
            ConstraintTrajectory([(v, (-1.0, -v), -v) for v in nus]),
        ),
        cost=cost,
    )


def ex31_nus() -> list[float]:
    return [1.0 - 2.0**-k for k in range(1, 22)]


def ex31_trajectory(with_cost: bool = True) -> PolyhedronTrajectory:
    """Ascending producer family (a = 1) with vertices (-2/v, 1) and (0, 0)."""
    nus = ex31_nus()
    cost = None
    if with_cost:
        cost = CostTrajectory([(v, (1.0, 4.0)) for v in nus], declared_limit=(1, 4))
    return PolyhedronTrajectory(
        n=2,
        constraints=(
            ConstraintTrajectory([(v, (0.0, 1.0), 1.0) for v in nus]),
            ConstraintTrajectory([(v, (v / 2.0, 1.0), 0.0) for v in nus]),
            ConstraintTrajectory([(v, (2.0 / v, 1.0), 0.0) for v in nus]),
        ),
        cost=cost,
    )


def ex32_trajectory() -> PolyhedronTrajectory:
    """The printed descending family (a = 1); its published vertex data is
    internally inconsistent, which the tests record rather than patch."""
    nus = [1.0 - 2.0**-k for k in range(1, 13)]
    return PolyhedronTrajectory(
        n=2,
        constraints=(
            ConstraintTrajectory([(v, (0.0, 1.0), 1.0) for v in nus]),
            ConstraintTrajectory([(v, (v, 1.0), -2.0) for v in nus]),
            ConstraintTrajectory([(v, (1.0 / v, 1.0), -((v + 1.0) ** 2) / v) for v in nus]),
            ConstraintTrajectory([(v, (1.0, 0.0), 0.0) for v in nus]),
        ),
    )


def constant_triangle_trajectory() -> PolyhedronTrajectory:
    """Fixed triangle with a drifting objective: the De Giorgi-Franzoni
    instance (only the set of optimizers moves)."""
    ks = [float(k) for k in range(1, 11)]
    rows = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, 1.0), 1.0)]
    return PolyhedronTrajectory(
        n=2,
        constraints=tuple(
            ConstraintTrajectory([(k, a, b) for k in ks]) for a, b in rows
        ),
        cost=CostTrajectory(
            [(k, (-1.0, -(1.0 + 1.0 / k))) for k in ks], declared_limit=(-1, -1)
        ),
    )


def plus_infinity_drop_trajectory() -> PolyhedronTrajectory:
    """{x <= v, -x <= 0, y <= 1, -y <= 0}: the first row escapes upward."""
    nus = footnote_nus()
    return PolyhedronTrajectory(
        n=2,
        constraints=(
            ConstraintTrajectory([(v, (1.0, 0.0), v) for v in nus]),
            ConstraintTrajectory([(v, (-1.0, 0.0), 0.0) for v in nus]),
            ConstraintTrajectory([(v, (0.0, 1.0), 1.0) for v in nus]),
            ConstraintTrajectory([(v, (0.0, -1.0), 0.0) for v in nus]),
        ),
    )


def pyramid_nus() -> list[float]:
    return [4.0**k for k in range(1, 13)]


def pyramid_trajectory(with_cost: bool = True) -> PolyhedronTrajectory:
    """Square pyramid {z >= 0, +-x + z <= 1, +-y + z <= 1} in R^3 with
    tilts and shifts of order 1/v, and a row z <= 1 + v that drifts to
    +infinity.  The limit's apex (0, 0, 1) is degenerate (four facets meet
    there) and its four base vertices are simple; the cost converges to
    (1, 2, 4), maximized at the apex."""
    nus = pyramid_nus()
    # (limit normal, limit offset, normal tilt, offset shift), each times 1/v
    rows = [
        ((0.0, 0.0, -1.0), 0.0, (0.0, 0.0, 0.0), 0.0),
        ((1.0, 0.0, 1.0), 1.0, (0.0, 0.5, 0.0), 1.0),
        ((-1.0, 0.0, 1.0), 1.0, (0.0, 0.0, 0.5), -1.0),
        ((0.0, 1.0, 1.0), 1.0, (0.5, 0.0, 0.0), 0.0),
        ((0.0, -1.0, 1.0), 1.0, (0.0, 0.0, -0.5), 0.5),
    ]
    constraints = [
        ConstraintTrajectory([(v, tuple(x + d / v for x, d in zip(a, da)), b + db / v) for v in nus])
        for a, b, da, db in rows
    ]
    constraints.append(ConstraintTrajectory([(v, (0.0, 0.0, 1.0), 1.0 + v) for v in nus]))
    cost = None
    if with_cost:
        cost = CostTrajectory([(v, (1.0 + 1.0 / v, 2.0, 4.0 - 1.0 / v)) for v in nus], declared_limit=(1, 2, 4))
    return PolyhedronTrajectory(n=3, constraints=tuple(constraints), cost=cost)


def segment_trajectory(with_cost: bool = True) -> PolyhedronTrajectory:
    """Segment {0 <= x <= 1 + 1/v, y = 0, z = x/v} in R^3 on the plane
    z = x/v tilting onto z = 0: every sample has implicit equalities, and
    the row y + z - x/v <= 0 is one whose normal is the sum of two others.
    The limit is the segment [0, 1] on the x-axis; the cost converges to
    (1, 0, 0), maximized at its end (1, 0, 0)."""
    nus = pyramid_nus()
    rows = [
        lambda v: ((0.0, 1.0, 0.0), 0.0),
        lambda v: ((0.0, -1.0, 0.0), 0.0),
        lambda v: ((-1.0 / v, 0.0, 1.0), 0.0),
        lambda v: ((1.0 / v, 0.0, -1.0), 0.0),
        lambda v: ((-1.0 / v, 1.0, 1.0), 0.0),
        lambda v: ((-1.0, 0.0, 0.0), 0.0),
        lambda v: ((1.0, 0.0, 0.0), 1.0 + 1.0 / v),
    ]
    constraints = tuple(ConstraintTrajectory([(v, *row(v)) for v in nus]) for row in rows)
    cost = None
    if with_cost:
        cost = CostTrajectory([(v, (1.0, 1.0 / v, 0.0)) for v in nus], declared_limit=(1, 0, 0))
    return PolyhedronTrajectory(n=3, constraints=constraints, cost=cost)
