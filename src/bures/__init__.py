"""Random fixed-spectrum density matrices from the unitary part of the Bures measure.

The central construction writes the diagonalizing unitary of a mixed state as
a product of coset blocks, one per growing flag level, each parametrized by a
point of an even-dimensional Euclidean ball. The coordinate volume on those
balls is exactly the invariant coset volume (unit Jacobian), so drawing the
layer points uniformly reproduces the unitary part of the Bures measure -
equivalently, conjugation by a Haar unitary. The package provides the
construction, the samplers, closed-form volumes and densities, and the
statistical machinery to verify the equivalence.
"""

from .coset import (
    BALL_EDGE_TOL,
    BOUNDARY_MARGIN,
    EULER_ANGLE_RANGES,
    BallPoint,
    DegeneracyPattern,
    EulerChart,
    FlagChart,
    b_to_spherical,
    coset_jacobian_det,
    coset_layers_for,
    coset_unitary,
    euler_coset_volume,
    euler_density_u3,
    flag_unitary,
)
from .errors import (
    BoundaryError,
    BuresError,
    ConvergenceError,
    DegenerateSpectrumError,
    InvalidStateError,
    NotHermitianError,
    OutOfBallError,
    RankDeficiencyError,
    ShapeError,
    SingularMatrixError,
    UnsupportedPatternError,
)
from .linalg import (
    ComplexMatrix,
    EigenDecomposition,
    adjoint,
    frobenius_distance,
    hermitian_eig,
    matmul,
    qr_decompose,
)
from .measures import (
    DensityMatrix,
    Spectrum,
    ball_volume,
    bures_quadratic,
    eigenvalue_density,
    fidelity,
    flag_volume,
    flag_volume_sz,
    lambda_factor,
)
from .sampling import (
    RngStream,
    SampleRecord,
    StateBatch,
    batch_sample,
    pattern_for_spectrum,
    sample_ball,
    sample_flag_chart,
    sample_haar_unitary,
    sample_interior_point,
    sample_state_coset,
    sample_state_haar,
    state_from_chart,
)
from .stats import Ecdf, KsResult, cumulative_pairs, ecdf, ks_two_sample

__version__ = "0.1.0"

__all__ = [
    "BALL_EDGE_TOL",
    "BOUNDARY_MARGIN",
    "EULER_ANGLE_RANGES",
    "BallPoint",
    "BoundaryError",
    "BuresError",
    "ComplexMatrix",
    "ConvergenceError",
    "DegeneracyPattern",
    "DegenerateSpectrumError",
    "DensityMatrix",
    "Ecdf",
    "EigenDecomposition",
    "EulerChart",
    "FlagChart",
    "InvalidStateError",
    "KsResult",
    "NotHermitianError",
    "OutOfBallError",
    "RankDeficiencyError",
    "RngStream",
    "SampleRecord",
    "ShapeError",
    "SingularMatrixError",
    "Spectrum",
    "StateBatch",
    "UnsupportedPatternError",
    "adjoint",
    "b_to_spherical",
    "ball_volume",
    "batch_sample",
    "bures_quadratic",
    "coset_jacobian_det",
    "coset_layers_for",
    "coset_unitary",
    "cumulative_pairs",
    "ecdf",
    "eigenvalue_density",
    "euler_coset_volume",
    "euler_density_u3",
    "fidelity",
    "flag_unitary",
    "flag_volume",
    "flag_volume_sz",
    "frobenius_distance",
    "hermitian_eig",
    "ks_two_sample",
    "lambda_factor",
    "matmul",
    "pattern_for_spectrum",
    "qr_decompose",
    "sample_ball",
    "sample_flag_chart",
    "sample_haar_unitary",
    "sample_interior_point",
    "sample_state_coset",
    "sample_state_haar",
    "state_from_chart",
    "__version__",
]
