"""Exception taxonomy shared across the package."""


class PolyconeError(Exception):
    """Base class for all domain errors raised by polycone."""


class DimensionMismatch(PolyconeError):
    """Inputs disagree on the ambient dimension."""


class InfeasiblePoint(PolyconeError):
    """A point violates at least one constraint where feasibility is required."""


class EmptyPolyhedron(PolyconeError):
    """An operation that requires a nonempty polyhedron received an empty one."""


class NoVertices(PolyconeError):
    """An operation that requires extremal points found none."""


class NotAVertex(PolyconeError):
    """The supplied point is not a vertex of the polyhedron."""


class NotAttained(PolyconeError):
    """The objective does not attain its optimum, so the requested face is undefined."""


class TooFewSamples(PolyconeError):
    """A trajectory has fewer samples than the minimum of three."""


class ParallelPair(PolyconeError):
    """The constraint pair is parallel inverse-equivalent; no bisector limit exists."""


class OffsetDiverges(PolyconeError):
    """A constraint offset diverges in a way that leaves no polyhedral limit."""


class OffsetOscillates(PolyconeError):
    """A constraint offset has no limit along the sampled tail."""


class TrackNotConverged(PolyconeError):
    """Cone diagnostics require a vertex track that converged."""


class MaxNotAttained(PolyconeError):
    """The objective of one family member does not attain its maximum."""

    def __init__(self, sample, message=None):
        self.sample = sample
        super().__init__(message or f"maximum not attained at sample {sample!r}")


class BadWindow(PolyconeError):
    """Window radius not positive and finite, or operands of two dimensions."""
