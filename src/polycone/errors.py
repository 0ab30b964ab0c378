"""Exception taxonomy shared across the package.

Every concrete error derives from exactly one of two bases, which carry
the CLI's exit policy: ``InputError`` (exit 1) for input that is
malformed or inconsistent, and ``DomainError`` (exit 2) for well-formed
input whose mathematical outcome the operation cannot complete, such as
an empty polyhedron or a diverging offset.  ``polycone.cli`` catches the
bases, so a new class is reported with its name as ``kind``.
"""


class PolyconeError(Exception):
    """Base class of polycone's own errors; each concrete class derives
    from ``InputError`` or ``DomainError``."""


class InputError(PolyconeError):
    """Malformed or inconsistent input (CLI exit 1)."""


class DomainError(PolyconeError):
    """Well-formed input with no answer of the requested kind (CLI exit 2)."""


class DimensionMismatch(InputError):
    """Inputs disagree on the ambient dimension."""


class InfeasiblePoint(DomainError):
    """A point violates at least one constraint where feasibility is required."""


class EmptyPolyhedron(DomainError):
    """An operation that requires a nonempty polyhedron received an empty one."""


class NoVertices(DomainError):
    """An operation that requires extremal points found none."""


class NotAVertex(DomainError):
    """The supplied point is not a vertex of the polyhedron."""


class NotAttained(DomainError):
    """The objective does not attain its optimum, so the requested face is undefined."""


class TooFewSamples(InputError):
    """A trajectory has fewer samples than the minimum of three."""


class ParallelPair(DomainError):
    """The constraint pair is parallel inverse-equivalent; no bisector limit exists."""


class OffsetDiverges(DomainError):
    """A constraint offset diverges in a way that leaves no polyhedral limit."""


class OffsetOscillates(DomainError):
    """A constraint offset has no limit along the sampled tail."""


class TrackNotConverged(DomainError):
    """Cone diagnostics require a vertex track that converged."""


class MaxNotAttained(DomainError):
    """The objective of one family member does not attain its maximum."""

    def __init__(self, sample, message=None):
        self.sample = sample
        super().__init__(message or f"maximum not attained at sample {sample!r}")


class BadWindow(InputError):
    """Window radius not positive and finite, or operands of two dimensions."""
