"""Unitary coset coordinates on even balls and the layered flag construction.

A point of the closed ball B^(2n), read as a complex column
X = (x1 + i x2, ..., x(2n-1) + i x(2n)) with r^2 = X†X <= 1, determines the
unitary block

    [[ (1 - X X†)^(1/2),  X            ],
     [ -X†,               (1 - r^2)^(1/2) ]]

acting on n+1 levels. Because X X† has rank one, the matrix square root has
the closed form 1 - X X† / (1 + sqrt(1 - r^2)), which is what the code uses.
Embedding blocks of growing size into the top-left corner of an N-level
identity and multiplying them together (largest block leftmost) produces a
unitary whose columns diagonalize a generic mixed state.

The key quantitative fact, checked numerically by ``coset_jacobian_det``, is
that plain Euclidean volume on each ball is exactly the invariant volume of
the corresponding coset: the Jacobian from ball coordinates to the
left-invariant frame has unit determinant everywhere in the open ball.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, OutOfBallError, ShapeError
from .linalg import matmul

#: Squared-radius slack accepted when validating ball membership.
BALL_EDGE_TOL = 1e-12

#: Central differences are refused within this squared-radius distance of the edge.
BOUNDARY_MARGIN = 1e-6

#: Angle ranges (phi3, phi4, phi5, phi6) used for the three-level Euler chart.
EULER_ANGLE_RANGES = (
    (0.0, math.pi / 2),
    (0.0, math.pi),
    (0.0, math.pi / 2),
    (0.0, 2 * math.pi),
)


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A point of a closed even-dimensional unit ball."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size < 2 or coords.size % 2:
            raise ShapeError("ball coordinates must be a 1-D array of even length >= 2")
        if not np.all(np.isfinite(coords)):
            raise ShapeError("ball coordinates must be finite")
        r2 = float(coords @ coords)
        if r2 > 1.0 + BALL_EDGE_TOL:
            raise OutOfBallError(f"squared radius {r2:.17g} exceeds 1")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, dim: int) -> "BallPoint":
        return cls(np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.coords.size

    @property
    def radius_sq(self) -> float:
        return float(self.coords @ self.coords)

    def complex_column(self) -> np.ndarray:
        """Pair up coordinates as (x1 + i x2, x3 + i x4, ...)."""
        return self.coords[0::2] + 1j * self.coords[1::2]


@dataclass(frozen=True, eq=False)
class FlagChart:
    """Layered ball coordinates for an N-level diagonalizing unitary.

    ``layers`` holds one BallPoint per coset block, smallest first; the
    dimensions must climb in steps of two, and the last one, 2(N-1), fixes
    the level count N. A chart starting at dimension 2m > 2 is the reduced
    ladder used when the state has an m-fold zero eigenvalue.
    """

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        dims = tuple(p.dim for p in layers)
        if not dims:
            raise ShapeError("a flag chart needs at least one layer")
        if dims != tuple(range(dims[0], dims[-1] + 1, 2)):
            raise ShapeError(f"layer dimensions {dims} must climb in steps of 2")
        object.__setattr__(self, "layers", layers)

    @property
    def dims(self) -> tuple:
        return tuple(p.dim for p in self.layers)

    @property
    def n_levels(self) -> int:
        return self.layers[-1].dim // 2 + 1


@dataclass(frozen=True)
class EulerChart:
    """Euler angles (phi3, phi4, phi5, phi6) for the three-level coset."""

    phi3: float
    phi4: float
    phi5: float
    phi6: float

    def __post_init__(self):
        angles = (self.phi3, self.phi4, self.phi5, self.phi6)
        for name, value, (lo, hi) in zip(("phi3", "phi4", "phi5", "phi6"), angles, EULER_ANGLE_RANGES):
            if not (lo <= value <= hi):
                raise ShapeError(f"{name}={value} outside [{lo:.6g}, {hi:.6g}]")

    def density(self) -> float:
        return euler_density_u3(self.phi3, self.phi5)


def coset_unitary(point: BallPoint, n_levels: int) -> np.ndarray:
    """Unitary on ``n_levels`` levels from a point of B^(2n).

    The block described in the module docstring occupies the leading n+1
    levels; the remaining levels are untouched. A block larger than
    ``n_levels`` raises ShapeError.
    """
    n = point.dim // 2
    if n + 1 > n_levels:
        raise ShapeError(f"a ball of dimension {point.dim} acts on {n + 1} levels, more than {n_levels}")
    r2 = point.radius_sq
    if r2 > 1.0 + BALL_EDGE_TOL:
        raise OutOfBallError(f"squared radius {r2:.17g} exceeds 1")
    x = point.complex_column()
    s = math.sqrt(max(1.0 - min(r2, 1.0), 0.0))
    out = np.eye(n_levels, dtype=complex)
    out[:n, :n] -= np.outer(x, x.conj()) / (1.0 + s)
    out[:n, n] = x
    out[n, :n] = -x.conj()
    out[n, n] = s
    return out


def flag_unitary(chart: FlagChart) -> np.ndarray:
    """Product of the chart's coset layers, largest block leftmost."""
    out = np.eye(chart.n_levels, dtype=complex)
    for layer in chart.layers:
        out = matmul(coset_unitary(layer, chart.n_levels), out)
    return out


def b_to_spherical(b) -> BallPoint:
    """Map an unconstrained complex column B to ball coordinates sin(|B|) B / |B|.

    This is the exponential-map radial profile: the coset unitary built from
    the result equals exp of the antihermitian generator holding B in its
    last column. B = 0 maps to the ball center.
    """
    col = np.asarray(b, dtype=complex).reshape(-1)
    if col.size < 1:
        raise ShapeError("need at least one complex component")
    nrm = float(np.linalg.norm(col))
    scaled = np.sinc(nrm / np.pi) * col
    coords = np.empty(2 * col.size)
    coords[0::2] = scaled.real
    coords[1::2] = scaled.imag
    return BallPoint(coords)


def _jacobian_matrix(point: BallPoint, step: float) -> np.ndarray:
    """Central-difference Jacobian from ball coordinates to the invariant frame.

    Column j holds the real and imaginary parts (interleaved) of the last-column
    entries of base† dOmega/dx_j above the diagonal. The complex differences are
    split into real parts before the division by 2*step so that the division is
    exact at representable points (the all-zero chart gives the exact identity).
    """
    x = point.coords
    dim = x.size
    k = dim // 2 + 1
    base_dag = coset_unitary(point, k).conj().T
    jac = np.empty((dim, dim))
    for j in range(dim):
        shift = np.zeros(dim)
        shift[j] = step
        plus = coset_unitary(BallPoint(x + shift), k)
        minus = coset_unitary(BallPoint(x - shift), k)
        top = (base_dag @ (plus - minus))[: k - 1, k - 1]
        jac[0::2, j] = top.real
        jac[1::2, j] = top.imag
    jac /= 2.0 * step
    return jac


def coset_jacobian_det(point: BallPoint, step: float = 1e-5) -> float:
    """Numerical determinant of the coordinate-to-invariant-frame Jacobian.

    Equals 1 for every interior point, up to finite-difference truncation.
    Points within BOUNDARY_MARGIN of the edge (in squared radius), or so close
    that the perturbed point would leave the ball, are refused: the derivative
    of sqrt(1 - r^2) blows up there and the estimate loses accuracy.
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValueError(f"step {step:.3g} outside the supported range [1e-8, 1e-4]")
    r2 = point.radius_sq
    if r2 >= 1.0 - BOUNDARY_MARGIN or math.sqrt(r2) + step > 1.0:
        raise BoundaryError(f"squared radius {r2:.17g} is too close to the ball edge")
    return float(np.linalg.det(_jacobian_matrix(point, step)))


def euler_density_u3(phi3, phi5):
    """Invariant density cos(phi3) sin^3(phi3) sin(2 phi5) of the three-level Euler chart.

    Accepts scalars or broadcastable arrays. Nonnegative on the configured
    ranges; integrating it over EULER_ANGLE_RANGES yields the volume of B^4.
    """
    return np.cos(phi3) * np.sin(phi3) ** 3 * np.sin(2.0 * phi5)


def euler_coset_volume(nodes_per_axis: int = 64, ranges=None) -> float:
    """Tensor-product Gauss-Legendre integral of the Euler density.

    ``ranges`` defaults to EULER_ANGLE_RANGES; passing modified ranges is a
    diagnostic device (the result then no longer matches the ball volume).
    The density does not involve phi4 or phi6, so those axes contribute their
    exact lengths and the quadrature error comes from the phi3/phi5 grid alone.
    """
    if nodes_per_axis < 2:
        raise ValueError("need at least 2 quadrature nodes per axis")
    lo_hi = EULER_ANGLE_RANGES if ranges is None else tuple(ranges)
    if len(lo_hi) != 4:
        raise ValueError("expected four angle ranges")
    base_nodes, base_weights = np.polynomial.legendre.leggauss(nodes_per_axis)

    def mapped(bounds):
        lo, hi = bounds
        half = (hi - lo) / 2.0
        return lo + half * (base_nodes + 1.0), half * base_weights

    n3, w3 = mapped(lo_hi[0])
    n5, w5 = mapped(lo_hi[2])
    len4 = lo_hi[1][1] - lo_hi[1][0]
    len6 = lo_hi[3][1] - lo_hi[3][0]
    dens = euler_density_u3(n3[:, None], n5[None, :])
    return float(w3 @ dens @ w5 * len4 * len6)
