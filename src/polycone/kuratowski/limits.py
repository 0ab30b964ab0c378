"""Limit construction for sampled families of polyhedra.

Input is a finite sample of a constraint family with a fixed number of
rows; the limit polyhedron is rebuilt the way the underlying convergence
argument does it: keep rows whose offsets stay bounded, drop rows drifting
to +infinity, and recover hyperplane limits of inverse-equivalent pairs
through the bisector construction.  All limit detection is heuristic by
necessity (finitely many samples) and every heuristic verdict is carried
in the report; declared exact limits always take precedence.

Numerics live in binary64; results are rationalized back to exact data by
continued-fraction rounding (`rationals.simplest_within`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from ..errors import (
    DimensionMismatch,
    OffsetDiverges,
    OffsetOscillates,
    ParallelPair,
    TooFewSamples,
)
from ..geometry import HalfSpace, Polyhedron, _Checked
from ..linalg import primitive
from ..rationals import (
    format_rational,
    format_vector,
    parse_rational,
    parse_vector,
    simplest_within,
)

DEFAULT_EPS_LIMIT = 1e-3
DEFAULT_MAX_DENOMINATOR = 10**6

FloatVector = tuple[float, ...]


class _PlusInfinity:
    """Sentinel for a declared offset limit of +infinity."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "PLUS_INFINITY"


class _Divergent:
    """Sentinel for an auxiliary offset with no finite limit."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DIVERGENT"


PLUS_INFINITY = _PlusInfinity()
DIVERGENT = _Divergent()


def _finite(values, message: str) -> list[float]:
    """values in binary64, or ValueError(message) when one is NaN, infinite
    or too large for a float (an integer like 10**400)."""
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        raise ValueError(message) from None
    if not all(math.isfinite(v) for v in floats):
        raise ValueError(message)
    return floats


def _unit_row(a: Sequence, b) -> tuple[FloatVector, float]:
    """The row ``<a, x> <= b`` in binary64, scaled to a Euclidean unit
    normal through ``a 2^-e``, ``2^e <= max|a| < 2^(e+1)``, exactly: its
    squares neither overflow nor underflow, and its norm is at least 1, so
    only an offset beyond binary64 overflows, and is refused."""
    message = "non-finite value in trajectory sample"
    *vec, offset = _finite([*a, b], message)
    if not any(vec):
        raise ValueError("zero normal in trajectory sample")
    e = math.frexp(max(map(abs, vec)))[1] - 1
    vec = [math.ldexp(v, -e) for v in vec]
    norm = math.sqrt(sum(v * v for v in vec))
    try:
        return tuple(v / norm for v in vec), math.ldexp(offset / norm, -e)
    except OverflowError:
        raise ValueError(message) from None


def _sample_index(k) -> float:
    return _finite([k], "non-finite sample index")[0]


class _Sampled:
    """A NamedTuple built from samples, which ``__new__`` normalizes and
    checks: pickle and copy rebuild its fields (``_make``), and
    ``_replace``, which could not check them, is refused."""

    __slots__ = ()

    def __reduce__(self):
        return self._make, (tuple(self),)

    def _replace(self, **changes):
        raise TypeError(f"a {type(self).__name__} is built from samples; construct a new one")


class ConstraintTrajectory(_Sampled, NamedTuple("ConstraintTrajectory", [
        ("indices", tuple[float, ...]), ("normals", tuple[FloatVector, ...]),
        ("offsets", tuple[float, ...]), ("declared_limit", HalfSpace | _PlusInfinity | None)])):
    """One constraint row sampled along the family, toward the limit.

    Samples are Euclidean-normalized on ingestion (``||a_k|| = 1`` with the
    offset rescaled accordingly), matching the normalization the limit
    analysis is phrased in.
    """

    __slots__ = ()

    def __new__(cls, samples, declared_limit=None) -> "ConstraintTrajectory":
        rows = list(samples)
        if len(rows) < 3:
            raise TooFewSamples(f"need >= 3 samples, got {len(rows)}")
        idx, normals, offsets = [], [], []
        for k, a, b in rows:
            unit, offset = _unit_row(a, b)
            idx.append(_sample_index(k))
            normals.append(unit)
            offsets.append(offset)
        return super().__new__(cls, tuple(idx), tuple(normals), tuple(offsets), declared_limit)

    @property
    def n(self) -> int:
        return len(self.normals[0])

    @property
    def sample_count(self) -> int:
        return len(self.indices)


class CostTrajectory(_Sampled, NamedTuple("CostTrajectory", [
        ("indices", tuple[float, ...]), ("vectors", tuple[FloatVector, ...]),
        ("declared_limit", tuple[Fraction, ...] | None)])):
    """Sampled cost vectors with an optional declared exact limit."""

    __slots__ = ()

    def __new__(cls, samples, declared_limit=None) -> "CostTrajectory":
        rows = list(samples)
        if len(rows) < 3:
            raise TooFewSamples(f"need >= 3 samples, got {len(rows)}")
        idx = [_sample_index(k) for k, _ in rows]
        vecs = [tuple(_finite(c, "non-finite value in cost sample")) for _, c in rows]
        limit = None if declared_limit is None else tuple(Fraction(v) for v in declared_limit)
        return super().__new__(cls, tuple(idx), tuple(vecs), limit)


class PolyhedronTrajectory(_Checked, NamedTuple("PolyhedronTrajectory", [
        ("n", int), ("constraints", tuple[ConstraintTrajectory, ...]), ("cost", CostTrajectory | None)])):
    """Fixed-cardinality constraint family sampled toward its limit.

    Every constraint trajectory (and the cost trajectory, when present)
    must carry the same sample index sequence — the artifact's version of
    the uniform facet-count hypothesis.
    """

    __slots__ = ()

    def __new__(cls, n: int, constraints: tuple[ConstraintTrajectory, ...],
                cost: CostTrajectory | None = None) -> "PolyhedronTrajectory":
        if not constraints:
            raise ValueError("trajectory needs at least one constraint")
        idx = constraints[0].indices
        for t in constraints:
            if t.indices != idx:
                raise ValueError("constraint trajectories disagree on sample indices")
            if t.n != n:
                raise ValueError("constraint trajectory dimension mismatch")
        if cost is not None and cost.indices != idx:
            raise ValueError("cost trajectory disagrees on sample indices")
        return super().__new__(cls, n, constraints, cost)

    @property
    def indices(self) -> tuple[float, ...]:
        return self.constraints[0].indices

    @property
    def sample_count(self) -> int:
        return len(self.indices)

    def sample_rows(self, k: int) -> list[list[int]]:
        """The k-th sampled polyhedron as primitive integer rows ``[a...,
        b]``, one per constraint, exactly, with no further rounding: the one
        conversion of binary64 data to exact values.  Each value is an
        exact ratio p / q with q a power of 2, so the lcm of a row's q is
        their largest; the row over it is made primitive
        (``linalg.primitive``)."""
        rows = []
        for t in self.constraints:
            ratios = [v.as_integer_ratio() for v in (*t.normals[k], t.offsets[k])]
            L = max([q for _, q in ratios])
            rows.append(list(primitive([p * (L // q) for p, q in ratios])))
        return rows

    def sample_polyhedron(self, k: int) -> Polyhedron:
        """The k-th sampled polyhedron, on the rows ``sample_rows(k)``."""
        return Polyhedron(self.n, self.sample_rows(k))

    def sample_cost(self, k: int) -> tuple[Fraction, ...]:
        if self.cost is None:
            raise ValueError("trajectory has no cost component")
        return tuple(Fraction(v) for v in self.cost.vectors[k])


# ---------------------------------------------------------------------------
# Limit detection


class OffsetLimit(NamedTuple):
    """Classification of a scalar sample sequence."""

    kind: str  # "finite" | "plus_infinity" | "minus_infinity" | "oscillating"
    value: float | None = None
    declared: bool = False


def _tail(values: Sequence[float]) -> list[float]:
    count = -(-len(values) // 2)  # ceil(half)
    return list(values[-count:])


def _classify_tail(values: Sequence[float], eps: float) -> OffsetLimit:
    tail = _tail(values)
    diffs = [tail[i + 1] - tail[i] for i in range(len(tail) - 1)]
    escape = 1.0 / eps
    if diffs and all(d > 0 for d in diffs) and tail[-1] > escape:
        return OffsetLimit("plus_infinity")
    if diffs and all(d < 0 for d in diffs) and tail[-1] < -escape:
        return OffsetLimit("minus_infinity")
    cauchy = (not diffs or abs(diffs[-1]) <= eps) and all(
        abs(diffs[i + 1]) <= abs(diffs[i]) + eps for i in range(len(diffs) - 1)
    )
    if cauchy:
        return OffsetLimit("finite", value=tail[-1])
    return OffsetLimit("oscillating")


def classify_offset(t: ConstraintTrajectory, eps_limit: float = DEFAULT_EPS_LIMIT) -> OffsetLimit:
    """Limit class of the (normalized) offsets of one constraint trajectory.

    A declared limit wins regardless of the samples.  Otherwise a
    Cauchy-style test on the last half of the samples decides: the final
    consecutive difference must be within eps with non-increasing step
    sizes; strictly monotone escape beyond 1/eps flags divergence.  A
    minus-infinity verdict means the limit set is empty.
    """
    if t.declared_limit is PLUS_INFINITY:
        return OffsetLimit("plus_infinity", declared=True)
    if isinstance(t.declared_limit, HalfSpace):
        _, offset = _unit_row(t.declared_limit.a, t.declared_limit.b)
        return OffsetLimit("finite", value=offset, declared=True)
    return _classify_tail(t.offsets, eps_limit)


def _coordinate_limits(
    rows: Sequence[Sequence[float]], eps: float, label: str, warnings: list[str]
) -> FloatVector:
    """Per-coordinate finite limit estimates with honest fallbacks."""
    width = len(rows[0])
    out = []
    for j in range(width):
        seq = [row[j] for row in rows]
        cls = _classify_tail(seq, eps)
        if cls.kind == "finite":
            out.append(cls.value)
        else:
            warnings.append(
                f"{label}: coordinate {j} has no finite tail limit ({cls.kind}); using final sample"
            )
            out.append(seq[-1])
    return tuple(out)


def rationalize_row(
    a: Sequence[float],
    b: float,
    eps: float,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> HalfSpace:
    """Round a numeric row to an exact half-space.

    The row is first rescaled by its largest |coordinate| (the exact
    canonical form divides by it anyway), which turns coordinates of
    cleanly converging families into simple ratios that the
    continued-fraction rounding recovers exactly.
    """
    pivot = max(range(len(a)), key=lambda j: abs(a[j]))
    scale = abs(a[pivot])
    if scale == 0.0:
        raise ValueError("cannot rationalize a zero normal")
    scaled = [v / scale for v in a] + [b / scale]
    coords = [simplest_within(v, eps, max_denominator) for v in scaled]
    if all(v == 0 for v in coords[:-1]):
        raise ValueError("row normal rationalized to zero; eps too coarse")
    return HalfSpace(tuple(coords[:-1]), coords[-1])


# ---------------------------------------------------------------------------
# Inverse-equivalent pairs and bisector limits


def detect_ie_pairs(
    limits: Sequence[HalfSpace],
    eps: float = DEFAULT_EPS_LIMIT,
    samples: Sequence[Sequence[FloatVector]] | None = None,
) -> list[tuple[tuple[int, int], bool]]:
    """Flag inverse-equivalent pairs among limit rows.

    A pair (i, j) is i-e when the unit normals and offsets are opposite
    within eps.  ``samples`` (per-row normalized sample normals) decides
    parallelism: the pair is parallel i-e when the normals are opposite at
    every sample, in which case no bisector constraint exists.
    """
    unit_rows = [_unit_row(r.a, r.b) for r in limits]
    pairs = []
    for i in range(len(unit_rows)):
        ai, bi = unit_rows[i]
        for j in range(i + 1, len(unit_rows)):
            aj, bj = unit_rows[j]
            if math.sqrt(sum((x + y) ** 2 for x, y in zip(ai, aj))) >= eps:
                continue
            if abs(bi + bj) >= eps:
                continue
            parallel = False
            if samples is not None:
                parallel = all(
                    math.sqrt(sum((x + y) ** 2 for x, y in zip(si, sj))) < eps
                    for si, sj in zip(samples[i], samples[j])
                )
            pairs.append(((i, j), parallel))
    return pairs


class AuxiliaryConstraint(NamedTuple):
    """Bisector constraint recovered from a non-parallel i-e pair.

    ``v`` is the numeric limit of the per-sample bisectors, ``u`` the limit
    of its offsets (or DIVERGENT when the pair's intersection escapes, in
    which case the constraint plays no role in the limit and
    ``rationalized`` is None).
    """

    pair: tuple[int, int]
    v: FloatVector
    u: float | _Divergent
    rationalized: HalfSpace | None


def _min_norm_intersection(
    ai: FloatVector, bi: float, aj: FloatVector, bj: float
) -> FloatVector | None:
    """Minimum-norm solution of the two unit-normal hyperplane equations."""
    g = sum(x * y for x, y in zip(ai, aj))
    det = 1.0 - g * g
    if abs(det) < 1e-14:
        return None
    y1 = (bi - g * bj) / det
    y2 = (bj - g * bi) / det
    return tuple(y1 * x + y2 * y for x, y in zip(ai, aj))


def auxiliary_limit(
    t_i: ConstraintTrajectory,
    t_j: ConstraintTrajectory,
    eps_limit: float = DEFAULT_EPS_LIMIT,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    pair: tuple[int, int] = (0, 1),
    warnings: list[str] | None = None,
) -> AuxiliaryConstraint:
    """Bisector constraint limit for a non-parallel i-e trajectory pair.

    Per sample: the normalized bisector of the two normals and its value at
    the minimum-norm intersection point of the two hyperplanes.  Both
    sequences are classified like offsets; a divergent intersection marks
    the auxiliary constraint DIVERGENT (dropped from the limit).
    """
    if t_i.indices != t_j.indices:
        raise ValueError("trajectories disagree on sample indices")
    sink = warnings if warnings is not None else []
    vs: list[FloatVector] = []
    us: list[float] = []
    for k in range(t_i.sample_count):
        ai, aj = t_i.normals[k], t_j.normals[k]
        total = [x + y for x, y in zip(ai, aj)]
        norm = math.sqrt(sum(v * v for v in total))
        if norm < 1e-12:
            sink.append(f"pair {pair}: sample {k} has opposite normals; skipped")
            continue
        v = tuple(x / norm for x in total)
        x0 = _min_norm_intersection(ai, t_i.offsets[k], aj, t_j.offsets[k])
        if x0 is None:
            sink.append(f"pair {pair}: sample {k} hyperplanes parallel; skipped")
            continue
        vs.append(v)
        us.append(sum(a * b for a, b in zip(v, x0)))
    if len(vs) < 3:
        raise ParallelPair(f"pair {pair} is parallel inverse-equivalent (no usable bisector samples)")
    v_limit = _coordinate_limits(vs, eps_limit, f"pair {pair} bisector", sink)
    u_class = _classify_tail(us, eps_limit)
    if u_class.kind != "finite":
        if u_class.kind == "oscillating":
            sink.append(f"pair {pair}: bisector offsets oscillate; treated as divergent")
        return AuxiliaryConstraint(pair=pair, v=v_limit, u=DIVERGENT, rationalized=None)
    row = rationalize_row(v_limit, u_class.value, eps_limit, max_denominator)
    return AuxiliaryConstraint(pair=pair, v=v_limit, u=u_class.value, rationalized=row)


# ---------------------------------------------------------------------------
# Limit assembly


class LimitReport(NamedTuple):
    """Constructed limit polyhedron with full constraint provenance."""

    limit: Polyhedron
    kept: tuple[int, ...]
    dropped_plus_infinity: tuple[int, ...]
    ie_pairs: tuple[tuple[tuple[int, int], bool], ...]
    auxiliary: tuple[AuxiliaryConstraint, ...]
    warnings: tuple[str, ...]
    kept_estimates: tuple[tuple[int, FloatVector, float], ...] = ()

    def to_dict(self) -> dict:
        from ..geometry import polyhedron_to_dict

        return {
            "limit": polyhedron_to_dict(self.limit),
            "kept": list(self.kept),
            "dropped_plus_infinity": list(self.dropped_plus_infinity),
            "ie_pairs": [{"pair": list(p), "parallel": par} for p, par in self.ie_pairs],
            "auxiliary": [
                {
                    "pair": list(aux.pair),
                    "v": list(aux.v),
                    "u": "divergent" if aux.u is DIVERGENT else aux.u,
                    "rationalized": None
                    if aux.rationalized is None
                    else {
                        "a": format_vector(aux.rationalized.a),
                        "b": format_rational(aux.rationalized.b),
                    },
                }
                for aux in self.auxiliary
            ],
            "warnings": list(self.warnings),
            "kept_estimates": [
                {"row": i, "a": list(a), "b": b} for i, a, b in self.kept_estimates
            ],
        }


def construct_limit(
    T: PolyhedronTrajectory,
    eps_limit: float = DEFAULT_EPS_LIMIT,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> LimitReport:
    """Build the exact limit polyhedron of a sampled family.

    Finite-offset rows are kept (rationalized), +infinity rows dropped;
    offsets drifting to -infinity or oscillating abort (no polyhedral
    limit).  Inverse-equivalent pairs among the kept limits contribute
    their bisector constraints when those converge.
    """
    warnings: list[str] = []
    kept: list[int] = []
    dropped: list[int] = []
    kept_rows: list[HalfSpace] = []
    kept_floats: list[tuple[int, FloatVector, float]] = []

    for i, t in enumerate(T.constraints):
        cls = classify_offset(t, eps_limit)
        if cls.kind == "plus_infinity":
            dropped.append(i)
            continue
        if cls.kind == "minus_infinity":
            raise OffsetDiverges(f"row {i}: offsets diverge to -infinity (limit set empty)")
        if cls.kind == "oscillating":
            raise OffsetOscillates(f"row {i}: offsets have no limit along the sampled tail")
        if isinstance(t.declared_limit, HalfSpace):
            row = t.declared_limit
            a_float, b_float = _unit_row(row.a, row.b)
        else:
            a_float = _coordinate_limits(t.normals, eps_limit, f"row {i} normal", warnings)
            b_float = cls.value
            row = rationalize_row(a_float, b_float, eps_limit, max_denominator)
        kept.append(i)
        kept_rows.append(row)
        kept_floats.append((i, a_float, b_float))

    if not kept_rows:
        raise OffsetDiverges("all offsets drift to +infinity; the limit is all of R^n")

    pair_flags = detect_ie_pairs(
        kept_rows,
        eps_limit,
        samples=[T.constraints[i].normals for i in kept],
    )
    ie_pairs = [((kept[i], kept[j]), par) for (i, j), par in pair_flags]

    auxiliary: list[AuxiliaryConstraint] = []
    aux_rows: list[HalfSpace] = []
    for (pos_i, pos_j), parallel in pair_flags:
        if parallel:
            continue
        orig = (kept[pos_i], kept[pos_j])
        aux = auxiliary_limit(
            T.constraints[orig[0]],
            T.constraints[orig[1]],
            eps_limit,
            max_denominator,
            pair=orig,
            warnings=warnings,
        )
        auxiliary.append(aux)
        if aux.rationalized is not None:
            aux_rows.append(aux.rationalized)
        else:
            warnings.append(f"pair {orig}: bisector offset divergent; auxiliary row dropped")

    limit = Polyhedron.from_rows(T.n, kept_rows + aux_rows)
    return LimitReport(
        limit=limit,
        kept=tuple(kept),
        dropped_plus_infinity=tuple(dropped),
        ie_pairs=tuple(ie_pairs),
        auxiliary=tuple(auxiliary),
        warnings=tuple(warnings),
        kept_estimates=tuple(kept_floats),
    )


# ---------------------------------------------------------------------------
# JSON codec


def _numbers(values) -> list:
    """values, each a JSON number: not true, "1" or null."""
    values = list(values)
    for v in values:
        if type(v) not in (int, float):
            raise TypeError(f"expected a JSON number, got {v!r}")
    return values


def trajectory_from_dict(data: dict) -> PolyhedronTrajectory:
    """Parse the trajectory wire format.

    ``{"n": int, "samples": [k...], "constraints": [{"rows": [[a..., b]
    per sample], "limit": {"a": [...], "b": ...} | "+inf" | null}],
    "cost": {"rows": [[c...] per sample], "limit": [...] | null}?}``

    Samples and rows are JSON numbers; declared limits are rational strings.
    A cost row or declared cost limit of a length other than n raises
    DimensionMismatch.
    """
    try:
        n = data["n"]
        if type(n) is not int:  # a JSON integer: not 1.9, "1" or true
            raise ValueError(f"n must be an integer, got {n!r}")
        sample_idx = _numbers(data["samples"])
        raw_constraints = data["constraints"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed trajectory JSON: {exc}") from exc
    constraints = []
    cost = None
    try:
        for entry in raw_constraints:
            rows = entry["rows"]
            if len(rows) != len(sample_idx):
                raise ValueError("constraint row count does not match sample count")
            samples = []
            for k, row in zip(sample_idx, rows):
                if len(row) != n + 1:
                    raise ValueError(f"constraint row needs {n + 1} entries, got {len(row)}")
                row = _numbers(row)
                samples.append((k, row[:n], row[n]))
            declared = entry.get("limit")
            if declared == "+inf":
                declared = PLUS_INFINITY
            elif declared is not None:
                declared = HalfSpace(parse_vector(declared["a"]), parse_rational(declared["b"]))
            constraints.append(ConstraintTrajectory(samples, declared_limit=declared))
        if data.get("cost") is not None:
            centry = data["cost"]
            rows = centry["rows"]
            if len(rows) != len(sample_idx):
                raise ValueError("cost row count does not match sample count")
            declared = centry.get("limit")
            declared = None if declared is None else parse_vector(declared)
            rows = [_numbers(row) for row in rows]
            for c in rows if declared is None else [*rows, declared]:
                if len(c) != n:
                    raise DimensionMismatch(f"cost dimension {len(c)} != ambient {n}")
            cost = CostTrajectory(list(zip(sample_idx, rows)), declared_limit=declared)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trajectory JSON: {exc}") from exc
    return PolyhedronTrajectory(n=n, constraints=tuple(constraints), cost=cost)


def trajectory_to_dict(T: PolyhedronTrajectory) -> dict:
    out = {
        "n": T.n,
        "samples": list(T.indices),
        "constraints": [],
    }
    for t in T.constraints:
        if t.declared_limit is PLUS_INFINITY:
            declared = "+inf"
        elif isinstance(t.declared_limit, HalfSpace):
            declared = {
                "a": format_vector(t.declared_limit.a),
                "b": format_rational(t.declared_limit.b),
            }
        else:
            declared = None
        out["constraints"].append(
            {
                "rows": [list(a) + [b] for a, b in zip(t.normals, t.offsets)],
                "limit": declared,
            }
        )
    if T.cost is not None:
        out["cost"] = {
            "rows": [list(v) for v in T.cost.vectors],
            "limit": None
            if T.cost.declared_limit is None
            else format_vector(T.cost.declared_limit),
        }
    return out
