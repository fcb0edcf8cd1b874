"""Exception types shared across the library."""


class BuresError(Exception):
    """Base class for every library-specific error."""


class ShapeError(BuresError, ValueError):
    """Array has the wrong shape, dimension, or non-finite entries."""


class NotHermitianError(BuresError, ValueError):
    """Matrix fails the Hermiticity tolerance required by the operation."""


class SingularMatrixError(BuresError, ValueError):
    """Matrix is numerically rank deficient."""


class ConvergenceError(BuresError, RuntimeError):
    """An iterative matrix factorization failed to converge."""


class OutOfBallError(BuresError, ValueError):
    """Coordinates lie outside the closed unit ball."""


class BoundaryError(BuresError, ValueError):
    """Point is too close to the ball edge for a stable finite difference."""


class DegenerateSpectrumError(BuresError, ValueError):
    """Eigenvalues collide (or vanish) where a formula requires them distinct."""


class RankDeficiencyError(BuresError, ValueError):
    """A metric term diverges on the kernel of the state."""


class InvalidStateError(BuresError, ValueError):
    """Matrix or eigenvalue data does not describe a density matrix."""


class UsageError(BuresError):
    """Invalid command-line input or a malformed input file (maps to exit code 2)."""
