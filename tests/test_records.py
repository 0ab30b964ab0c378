"""Records as NamedTuples: seventeen record types that were frozen
dataclasses keep their repr, hash, same-type equality, immutability and
validation messages.

A frozen dataclass built from a type's fields (``make_dataclass``)
generates the repr, hash and equality the type had as a frozen
dataclass, so every record made on the family fixtures is compared with
that twin.  The reprs of all of them are also pinned by one digest,
taken with the frozen dataclasses; a Polyhedron, which now holds integer
rows, prints them, and a second digest, with each Polyhedron printed as
its L-infinity half-spaces, pins every other repr as it was.  The four records that stay dataclasses
(``Vertex``, ``ConeMembership``, ``GLPSolution``, ``StructureReport``) are
out of scope here; ``tests/test_imports.py`` guards the split.

``_make`` and ``_replace`` on the validating types build through the
constructor, so they normalize and refuse as it does; the two
trajectories built from samples refuse ``_replace``, and pickle and copy
rebuild them from their fields.
"""
import copy
import functools
import hashlib
import math
import pickle
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from polycone import (
    ArgmaxReport,
    AuxiliaryConstraint,
    BoundaryReport,
    Cone,
    ConeConvergenceReport,
    ConstraintTrajectory,
    ConvergenceReport,
    CostTrajectory,
    HalfSpace,
    LimitReport,
    LPResult,
    OffsetLimit,
    Polyhedron,
    PolyhedronTrajectory,
    StabilityCone,
    TrackReport,
    VertexTrack,
    argmax_convergence,
    boundary_convergence,
    classify_offset,
    cone_convergence,
    construct_limit,
    enumerate_vertices,
    errors,
    normal_cone,
    solve_lp,
    stability_cone,
    tangent_cone,
    track_vertices,
    verify_convergence,
)

from families import ex31_trajectory, footnote_trajectory, pyramid_trajectory

PLAIN = (LPResult, StabilityCone, VertexTrack, TrackReport, ConeConvergenceReport, ArgmaxReport,
         BoundaryReport, ConvergenceReport, OffsetLimit, AuxiliaryConstraint, LimitReport)
VALIDATING = (HalfSpace, Polyhedron, Cone, ConstraintTrajectory, CostTrajectory, PolyhedronTrajectory)

# sha256 of the reprs of ``_records()``, one per line, as the frozen
# dataclasses gave them, with each Polyhedron printed as the integer rows
# it holds
REPR_DIGEST = "5106e90dad3544d81c82d4fd9dd7a698274a2c2f65ea3a508f8f405fb484f834"
# the same with each Polyhedron printed as its L-infinity half-spaces, the
# field a Polyhedron held before its integer rows
HALFSPACE_REPR_DIGEST = "ed359c33a44b23dab86eb1e1ef30607998ea9a16411224372389882f1857f837"


@functools.cache
def _records() -> tuple:
    """Records of every type above, from three families: the trajectories
    and their limits, with each diagnostic's report."""
    out = []
    for T in (footnote_trajectory(), ex31_trajectory(), pyramid_trajectory()):
        report = construct_limit(T)
        limit = report.limit
        out += [T, *T.constraints, report, *report.auxiliary, limit, *limit.halfspaces]
        out += [classify_offset(t) for t in T.constraints]
        point = enumerate_vertices(limit)[0].point
        out += [tangent_cone(limit, point), normal_cone(limit, point), stability_cone(limit, point)]
        out += [solve_lp(limit, (1,) * T.n, sense) for sense in ("min", "max")]
        base = verify_convergence(T, limit)
        tracks = track_vertices(T, limit)
        cones = tuple(cone_convergence(T, limit, t) for t in tracks.tracks if t.converged)
        out += [base, tracks, *tracks.tracks, *cones, boundary_convergence(T, limit)]
        out.append(base._replace(vertex_tracks=tracks, cone_distances=cones))
        if T.cost is not None:
            out += [T.cost, argmax_convergence(T, limit)]
    return tuple(out)


def _of(cls) -> list:
    return [r for r in _records() if type(r) is cls]


def test_fixtures_cover_every_record_type():
    assert {type(r) for r in _records()} == set(PLAIN + VALIDATING)
    assert all(issubclass(cls, tuple) for cls in PLAIN + VALIDATING)


def test_reprs_are_the_dataclass_reprs():
    text = "\n".join(map(repr, _records()))
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_DIGEST


def test_only_the_polyhedron_repr_moved(monkeypatch):
    # every other repr, and every value a Polyhedron prints, is as before
    monkeypatch.setattr(Polyhedron, "__repr__", lambda P: f"Polyhedron(n={P.n!r}, halfspaces={P.halfspaces!r})")
    text = "\n".join(map(repr, _records()))
    assert hashlib.sha256(text.encode()).hexdigest() == HALFSPACE_REPR_DIGEST


@pytest.mark.parametrize("cls", PLAIN + VALIDATING, ids=lambda cls: cls.__name__)
def test_repr_hash_and_equality_of_the_dataclass_twin(cls):
    twin = make_dataclass(cls.__name__, cls._fields, frozen=True)
    records = _of(cls)
    for record in records:
        other = twin(*record)
        assert repr(record) == repr(other)
        try:
            expected = hash(other)
        except TypeError:  # an ArgmaxReport holds a dict, as before
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected
        assert record == copy.deepcopy(record) == pickle.loads(pickle.dumps(record))
        if cls in PLAIN:
            # the validating types check what ``_make`` and ``_replace`` are
            # given (``test_replace_and_make_validate``)
            assert record == cls._make(record) != record._replace(**{cls._fields[0]: math.nan})


def test_independent_builds_are_equal():
    again = _records.__wrapped__()
    assert again == _records()
    assert [hash(r) for r in again if type(r) is not ArgmaxReport] == [
        hash(r) for r in _records() if type(r) is not ArgmaxReport
    ]


@pytest.mark.parametrize("cls", PLAIN + VALIDATING, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = _of(cls)[0]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("cls", (HalfSpace, Polyhedron, Cone, PolyhedronTrajectory), ids=lambda cls: cls.__name__)
def test_make_rebuilds_through_the_constructor(cls):
    for record in _of(cls):
        assert cls._make(record) == record == record._replace()


@pytest.mark.parametrize(
    "build, expected",
    [
        # the normal is rescaled to max |a_j| = 1, and b with it
        (lambda: HalfSpace((1, 0), 1)._replace(a=(2, 0)), HalfSpace((1, 0), Fraction(1, 2))),
        (lambda: HalfSpace._make(((0, 3), 6)), HalfSpace((0, 1), 2)),
    ],
    ids=["replace-rescales", "make-rescales"],
)
def test_replace_and_make_validate(build, expected):
    assert build() == expected


def test_cone_converts_its_generators():
    # as HalfSpace converts its normal: each entry is held as a Fraction,
    # so cones equal in value are equal
    cone = Cone(2, generators=(("1/2", 3), (0, -1)))
    assert cone.generators == ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(-1)))
    assert {type(x) for g in cone.generators for x in g} == {Fraction}
    assert cone == Cone(2, generators=[[Fraction(1, 2), 3], (0, -1)])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: HalfSpace((1, 0), 0)._replace(a=(0, 0)), ValueError, "half-space normal must be nonzero"),
        (lambda: Polyhedron._make((3, ())), ValueError, "a polyhedron needs at least one constraint (R^n is excluded)"),
        (lambda: Polyhedron.from_rows(2, [((1, 0), 0)])._replace(n=3), errors.DimensionMismatch,
         "constraint dimension 2 != ambient 3"),
        (lambda: Cone._make((2, None, None)), ValueError, "cone needs exactly one of hform / generators"),
        (lambda: Cone(2, generators=((1, 0),))._replace(generators=((0, 0),)), ValueError,
         "cone generators must be nonzero"),
        (lambda: PolyhedronTrajectory(2, (_constraint(KS),))._replace(n=3), ValueError,
         "constraint trajectory dimension mismatch"),
    ],
    ids=["halfspace-zero-normal", "polyhedron-no-rows", "polyhedron-dimension", "cone-no-form", "cone-zero-generator",
         "trajectory-dimension"],
)
def test_replace_and_make_refuse_invalid_fields(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("cls", (ConstraintTrajectory, CostTrajectory), ids=lambda cls: cls.__name__)
def test_sampled_trajectories_refuse_replace(cls):
    # their fields are normalized samples, which ``_replace`` could not check
    record = _of(cls)[0]
    with pytest.raises(TypeError, match="built from samples"):
        record._replace()
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def _constraint(indices, a=(1.0, 0.0), b=0.0):
    return ConstraintTrajectory([(k, a, b) for k in indices])


KS = (1.0, 2.0, 3.0)
NAN = math.nan


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: HalfSpace((0, 0), 1), ValueError, "half-space normal must be nonzero"),
        (lambda: HalfSpace((), 1), ValueError, "half-space normal must be nonzero"),
        (lambda: Polyhedron(2, []), ValueError, "a polyhedron needs at least one constraint (R^n is excluded)"),
        (lambda: Polyhedron(3, [(1, 0, 0)]), errors.DimensionMismatch, "constraint dimension 2 != ambient 3"),
        (lambda: Polyhedron(2, [(0, 0, 1)]), ValueError, "half-space normal must be nonzero"),
        (lambda: Polyhedron(2, [(1, 0, 0)]).with_rows([(1, 2)]), errors.DimensionMismatch,
         "constraint dimension 1 != ambient 2"),
        (lambda: Polyhedron(2, [(1, 0, 0)]).with_rows([(0, 0, 2)]), ValueError, "half-space normal must be nonzero"),
        (lambda: Polyhedron(2.0, [(1, 0, 0)]), ValueError, "n must be an integer, got 2.0"),
        (lambda: Polyhedron(True, [(1, 1)]), ValueError, "n must be an integer, got True"),
        (lambda: Polyhedron.from_rows(True, [((1,), 1)]), ValueError, "n must be an integer, got True"),
        (lambda: Cone(2.0, hform=(HalfSpace((1, 0), 0),)), ValueError, "n must be an integer, got 2.0"),
        (lambda: Cone(True, generators=((1,),)), ValueError, "n must be an integer, got True"),
        (lambda: Cone(2), ValueError, "cone needs exactly one of hform / generators"),
        (lambda: Cone(2, hform=(), generators=()), ValueError, "cone needs exactly one of hform / generators"),
        (lambda: Cone(3, hform=(HalfSpace((1, 0), 0),)), errors.DimensionMismatch, "cone row dimension mismatch"),
        (lambda: Cone(2, hform=(HalfSpace((1, 0), 1),)), ValueError,
         "cone half-spaces must pass through the origin"),
        (lambda: Cone(3, generators=((1, 0),)), errors.DimensionMismatch, "cone generator dimension mismatch"),
        (lambda: Cone(2, generators=((0, 0),)), ValueError, "cone generators must be nonzero"),
        (lambda: Cone(2, generators=((1, 2), (2, 4))), ValueError,
         "cone generators duplicate after canonical scaling"),
        (lambda: Cone(2, generators=(("1/2", 3), ("x", 1))), ValueError, "Invalid literal for Fraction: 'x'"),
        (lambda: _constraint(KS[:2]), errors.TooFewSamples, "need >= 3 samples, got 2"),
        (lambda: _constraint(KS, a=(0.0, 0.0)), ValueError, "zero normal in trajectory sample"),
        (lambda: _constraint(KS, b=NAN), ValueError, "non-finite value in trajectory sample"),
        (lambda: _constraint((1.0, NAN, 3.0)), ValueError, "non-finite sample index"),
        (lambda: CostTrajectory([(k, (1.0,)) for k in KS[:2]]), errors.TooFewSamples, "need >= 3 samples, got 2"),
        (lambda: CostTrajectory([(k, (math.inf,)) for k in KS]), ValueError, "non-finite value in cost sample"),
        (lambda: CostTrajectory([(k, (1.0,)) for k in (1.0, 2.0, NAN)]), ValueError, "non-finite sample index"),
        (lambda: PolyhedronTrajectory(2, ()), ValueError, "trajectory needs at least one constraint"),
        (lambda: PolyhedronTrajectory(2, (_constraint(KS), _constraint((1.0, 2.0, 4.0)))), ValueError,
         "constraint trajectories disagree on sample indices"),
        (lambda: PolyhedronTrajectory(3, (_constraint(KS),)), ValueError,
         "constraint trajectory dimension mismatch"),
        (lambda: PolyhedronTrajectory(2, (_constraint(KS),), CostTrajectory([(k, (1.0, 0.0)) for k in (1.0, 2.0, 4.0)])),
         ValueError, "cost trajectory disagrees on sample indices"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
