"""Exception types shared across the package.

Everything derives from :class:`SubquadError` (itself a ``ValueError``) so
callers can catch the whole family with one clause while the CLI maps them
onto its "math precondition violated" exit code.
"""


class SubquadError(ValueError):
    """Base class for all library-specific errors."""


class NonFiniteError(SubquadError):
    """An input or a function value contains NaN or Inf."""


class DimensionMismatchError(SubquadError):
    """Shapes of the supplied arrays are inconsistent."""


class NotSquareError(SubquadError):
    """A square matrix was required."""


class NotOrthonormalError(SubquadError):
    """A matrix that must have orthonormal columns does not."""


class EmptySetError(SubquadError):
    """A sample set or direction bundle with no members was supplied."""


class DuplicatePointError(SubquadError):
    """Duplicate sample displacements carry conflicting function values."""


class NotInSubspaceError(SubquadError):
    """Points or directions do not lie in the span of the given frame."""


class NotPoisedError(SubquadError):
    """The sample set does not determine a unique interpolating quadratic."""


class InfeasibleError(SubquadError):
    """No quadratic can interpolate the given values.

    The offending residual magnitude is stored in :attr:`residual`.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class VariantPreconditionError(SubquadError):
    """A model variant was requested whose preconditions do not hold."""


class ReferenceMismatchError(SubquadError):
    """A stored reference Hessian disagrees with the one implied by the frame."""


class UnknownTheoremError(SubquadError):
    """An unrecognized verification-suite identifier was requested."""


class SpecInfeasibleError(SubquadError):
    """A requested instance shape, or a verification run of fewer than one
    trial, cannot be realized."""


class FileFormatError(SubquadError):
    """A structured-text input file is malformed or violates its schema."""
