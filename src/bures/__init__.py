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

from .coset import coset_jacobian_det
from .errors import BuresError
from .measures import DensityMatrix, Spectrum
from .sampling import RngStream, SampleRecord, StateBatch, batch_sample, sample_ball
from .stats import ks_two_sample

__version__ = "0.1.0"

__all__ = [
    "BuresError",
    "DensityMatrix",
    "RngStream",
    "SampleRecord",
    "Spectrum",
    "StateBatch",
    "batch_sample",
    "coset_jacobian_det",
    "ks_two_sample",
    "sample_ball",
    "__version__",
]
