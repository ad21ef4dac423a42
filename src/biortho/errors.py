"""Exception types raised across the toolkit.

Every failure mode that callers may want to catch separately gets its own
class; all of them derive from BiorthoError so the CLI can catch one type.
"""


class BiorthoError(Exception):
    """Base class for all toolkit errors."""


class InvalidCutoffError(BiorthoError, ValueError):
    """Fock-space cutoff too small for the requested construction."""


class ConvergenceError(BiorthoError, RuntimeError):
    """Eigenvalue iteration failed to converge."""


class SingularOperatorError(BiorthoError, ValueError):
    """Linear part of an antilinear operator is numerically singular."""


class NoAntilinearSymmetryError(BiorthoError, ValueError):
    """Spectrum is not closed under complex conjugation, so no antilinear
    symmetry can exist."""


class ConditioningError(BiorthoError, RuntimeError):
    """No well-conditioned invertible element found in a solution space."""


class DefectiveSystemError(BiorthoError, ValueError):
    """Operation requires a diagonalizable system but the input is
    (numerically) defective."""


class SignAmbiguityError(BiorthoError, ValueError):
    """A sign convention could not be applied because the deciding quantity
    vanishes within tolerance."""


class PropagatorRangeError(BiorthoError, OverflowError):
    """Requested evolution time would overflow for a growing mode.

    ``safe_time`` is the largest |t| for which the computation stays in
    floating-point range.
    """

    def __init__(self, message, safe_time):
        super().__init__(message)
        self.safe_time = safe_time


class BoundaryResolutionError(BiorthoError, RuntimeError):
    """Grid-oracle eigenvalues are still sensitive to the box boundary or
    resolution; enlarge the box or refine the grid."""


class ConstraintSolveError(BiorthoError, RuntimeError):
    """A defining linear constraint has no solution (empty nullspace)."""
