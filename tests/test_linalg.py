"""The fraction-free linear algebra against the Fraction Gauss-Jordan
references, and the one gcd normal form (``primitive``) against Fractions."""
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from hypothesis import given, strategies as st

from polycone.geometry import _lowest
from polycone.linalg import nullspace, primitive, solve_square

from helpers import reference_nullspace, reference_rank, reference_solve_square

F = Fraction


def _same(rows, width):
    # repr compares every entry and the type of every number
    assert repr(nullspace(rows, width)) == repr(reference_nullspace(rows, width)), rows


def _rand_matrix(rng, r, w, entry):
    return [[entry() for _ in range(w)] for _ in range(r)]


def _small(rng):
    return lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))


def test_rank_deficient_with_duplicate_and_zero_rows():
    rng = random.Random(11)
    for _ in range(300):
        w = rng.randint(1, 6)
        rows = _rand_matrix(rng, rng.randint(1, 4), w, _small(rng))
        # a combination of two rows, a duplicate and a zero row
        k = rng.randint(-3, 3)
        rows.append([a + k * b for a, b in zip(rows[0], rows[-1])])
        rows.append(list(rows[rng.randrange(len(rows))]))
        rows.insert(rng.randrange(len(rows) + 1), [F(0)] * w)
        rng.shuffle(rows)
        assert reference_rank(rows, w) < len(rows)
        _same(rows, w)


def test_wide_and_tall():
    rng = random.Random(12)
    for _ in range(200):
        w = rng.randint(1, 7)
        r = rng.choice((rng.randint(1, w), rng.randint(w, w + 6)))
        _same(_rand_matrix(rng, r, w, _small(rng)), w)
    _same([], 3)


def test_entries_near_ten_to_the_thirty():
    rng = random.Random(13)

    def big():
        return rng.choice((-1, 1)) * F(10**30 + rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    for _ in range(60):
        w = rng.randint(1, 5)
        rows = _rand_matrix(rng, rng.randint(1, 6), w, big)
        rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        _same(rows, w)
        n = rng.randint(1, 5)
        square = _rand_matrix(rng, n, n, big)
        rhs = [big() for _ in range(n)]
        assert repr(solve_square(square, rhs)) == repr(reference_solve_square(square, rhs))


def test_solve_square_singular_and_regular():
    rng = random.Random(14)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = _rand_matrix(rng, n, n, lambda: F(rng.randint(-2, 2), rng.choice((1, 2, 3))))
        rhs = [F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n)]
        got = solve_square(rows, rhs)
        singular += got is None
        assert repr(got) == repr(reference_solve_square(rows, rhs))
    assert 20 <= singular <= 380


@given(
    st.integers(1, 5).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.lists(st.lists(st.integers(-3, 3), min_size=w, max_size=w), max_size=6),
        )
    )
)
def test_small_integer_matrices(case):
    w, rows = case
    rows = [[F(v) for v in row] for row in rows]
    _same(rows, w)
    if len(rows) >= w:
        square, rhs = rows[:w], [F(sum(row)) for row in rows[:w]]
        assert repr(solve_square(square, rhs)) == repr(reference_solve_square(square, rhs))


_VECTOR = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(any)


def _signs(v):
    return [(x > 0) - (x < 0) for x in v]


@given(v=_VECTOR, k=st.integers(1, 10**9))
def test_primitive_is_one_vector_per_ray(v, k):
    p = primitive(v)
    assert primitive([k * x for x in v]) == p
    assert gcd(*p) == 1
    assert _signs(p) == _signs(v)
    # on v's own ray: v is p times the gcd of v
    assert [gcd(*v) * x for x in p] == v
    assert type(p) is tuple and primitive(tuple(v)) == p


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-60, 60), min_size=n, max_size=n),
            st.integers(1, 60),
            st.integers(1, 12),
            st.lists(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1), max_size=6),
        )
    )
)
def test_lowest_is_the_point_in_lowest_terms(case):
    # the point X / D as k X / k D, with the slacks b D - a.X of integer rows
    X, D, k, rows = case
    X, D = [k * x for x in X], k * D
    active, Y, E, S = _lowest(X, D, [b * D - sum(map(mul, a, X)) for *a, b in rows])
    point = [Fraction(x, D) for x in X]
    assert E == lcm(*[p.denominator for p in point])
    assert Y == [int(p * E) for p in point]
    assert S == [b * E - sum(map(mul, a, Y)) for *a, b in rows]
    assert active == tuple(i for i, s in enumerate(S) if not s)
