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
unitary whose columns diagonalize a generic mixed state: ``flag_unitary`` for
one chart, as dense products, and ``flag_unitaries`` for a stack of them, as
low-rank updates. From RUN_SWITCH levels up the stacked product takes the
layers in runs, each run one compact-WY update in matrix products; its
results agree with the dense product to rounding, but their last bits differ
from a layer-by-layer update's.

The key quantitative fact, checked numerically by ``coset_jacobian_det``, is
that plain Euclidean volume on each ball is exactly the invariant volume of
the corresponding coset: the Jacobian from ball coordinates to the
left-invariant frame has unit determinant everywhere in the open ball.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, OutOfBallError, ShapeError
from .measures import as_complex_matrix

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
    """A point of a closed even-dimensional unit ball, its coordinates read-only."""

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
        coords.setflags(write=False)  # the radius check holds for the point's lifetime
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
    def n_levels(self) -> int:
        return self.layers[-1].dim // 2 + 1


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
    x = point.complex_column()
    s = math.sqrt(1.0 - min(r2, 1.0))
    out = np.eye(n_levels, dtype=complex)
    out[:n, :n] -= np.outer(x, x.conj()) / (1.0 + s)
    out[:n, n] = x
    out[n, :n] = -x.conj()
    out[n, n] = s
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product a @ b with conformability checking."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def flag_unitary(chart: FlagChart) -> np.ndarray:
    """Product of the chart's coset layers, largest block leftmost."""
    out = np.eye(chart.n_levels, dtype=complex)
    for layer in chart.layers:
        out = matmul(coset_unitary(layer, chart.n_levels), out)
    return out


def layer_offsets(dims: tuple) -> list:
    """Column where each layer starts in a chart row, the layers concatenated smallest first."""
    return np.cumsum((0,) + dims[:-1]).tolist()


#: Fewest levels of a ladder whose layers ``flag_unitaries`` applies in runs.
#: Runs of 16 against single layers (one BLAS thread, 2-CPU x86-64 VM, blocks
#: of ``sampling.block_records(N)``): 1.77x the time at N=16, 1.21x at 24,
#: 1.07x at 28, 0.88x at 32, 0.62x at 40, 0.46x at 100 and 0.21x at 400.
#: In five sweeps, runs for only the layers from B^64 up took 0.64-0.83x at
#: N=48 and 0.60-0.73x at N=64, against 0.51-0.64x and 0.33-0.55x for whole
#: ladders.
RUN_SWITCH = 32

#: Layers per run. Runs of 12, 20 and 24 took 0.47, 0.45 and 0.48x at N=100
#: against 0.46x for 16, 0.24, 0.19 and 0.18x at N=400 against 0.21x, and
#: 0.85, 0.92 and 1.10x at N=32 against 0.88x (same sweep).
RUN_LAYERS = 16


def flag_unitaries(n_levels: int, dims: tuple, coords: np.ndarray) -> np.ndarray:
    """Stacked ``flag_unitary`` of each row's chart, in low-rank updates.

    Row i of ``coords`` concatenates the coordinates of a chart's layers,
    whose ball dimensions are ``dims``, smallest first. The layer on B^(2k)
    differs from the identity by ``coset_unitary``'s rank-two block on the
    leading k+1 levels, [[1 - x x†/(1+s), x], [-x†, s]]. Before it is applied
    the product is block-diagonal (W, identity) with W of size k, so the
    product only changes in its leading (k+1) x (k+1) block, which becomes
    [[W - x (x† W)/(1+s), x], [-x† W, s]]: O(k^2) work per layer instead of a
    dense N x N product. Below RUN_SWITCH levels the layers take this update
    one at a time; from RUN_SWITCH levels up they go in runs of RUN_LAYERS
    (``_apply_runs``), the same O(k^2) work per layer in matrix products.
    """
    u = np.zeros((coords.shape[0], n_levels, n_levels), dtype=complex)
    first = dims[0] // 2
    u[:, range(first), range(first)] = 1.0
    if n_levels >= RUN_SWITCH:
        _apply_runs(u, dims, coords)
        return u
    for lo, dim in zip(layer_offsets(dims), dims):
        k = dim // 2
        layer = coords[:, lo : lo + dim]
        x = layer[:, 0::2] + 1j * layer[:, 1::2]
        r2 = np.einsum("ij,ij->i", layer, layer)
        s = np.sqrt(1.0 - np.minimum(r2, 1.0))
        w = u[:, :k, :k]
        xw = (x.conj()[:, None, :] @ w)[:, 0, :]
        w -= x[:, :, None] * (xw / (1.0 + s)[:, None])[:, None, :]
        u[:, :k, k] = x
        u[:, k, :k] = -xw
        u[:, k, k] = s
    return u


def _apply_runs(u: np.ndarray, dims: tuple, coords: np.ndarray) -> None:
    """Apply the layers ``dims`` (rows of ``coords``) to the stack ``u`` in place, RUN_LAYERS at a time.

    Layer k is I + V_k M_k V_k†, with V_k = [x, e_(k+1)] (x padded with zeros)
    and M_k = [[-1/(1+s), 1], [-1, s-1]]. A run of b layers multiplies to
    I + V T V†, V holding the run's 2b columns, where T⁻¹ = blockdiag(M_k⁻¹)
    - strict-block-lower(V†V): the compact WY form of Bischof & Van Loan
    (SIAM J. Sci. Stat. Comput. 8, 1987) and Schreiber & Van Loan (ibid. 10,
    1989). Before the run the product is U = blockdiag(W, identity), W of
    size lo, and the run adds V Z with T⁻¹ Z = V† U.

    Ordered as [X, E], the x columns then the e columns (rows lo ... lo+b-1),
    T⁻¹ = [[diag(-r²/2) - strict-lower(X†X), -D/2 - Q†], [D/2, -I/2]], with
    D = diag(1+s) and Q† = X†E = X†[:, lo:lo+b], strictly lower as x_j has
    lo+j levels. Its e rows give Z_E = D Z_X - 2 E†U, which leaves one b x b
    solve, (-D - strict-lower(X†X) - Q† D) Z_X = [X†[:, :lo] W, -D - Q†].
    Only X enters a matrix product: U becomes U + X Z_X, and its rows lo ...
    lo+b-1, [0, identity] before, gain D Z_X - 2 [0, identity].
    """
    rows = coords.shape[0]
    ks = np.array(dims) // 2
    # x† of every layer, zero past its k levels, and every 1 + s, once per block
    xh = np.zeros((rows, len(dims), ks[-1] + 1), dtype=complex)
    xh[:, np.arange(ks[-1] + 1) < ks[:, None]] = coords[:, 0::2] - 1j * coords[:, 1::2]
    r2 = np.add.reduceat(coords * coords, layer_offsets(dims), axis=1)
    s1 = 1.0 + np.sqrt(1.0 - np.minimum(r2, 1.0))
    for j in range(0, len(dims), RUN_LAYERS):
        b = min(RUN_LAYERS, len(dims) - j)
        lo = ks[j]
        n = lo + b
        run = xh[:, j : j + b, :n]
        d = s1[:, j : j + b]
        q = run[:, :, lo:]
        diag = np.arange(b)
        x = run.conj().transpose(0, 2, 1)
        a = -np.tril(run @ x, -1) - q * d[:, None, :]
        a[:, diag, diag] = -d
        rhs = np.empty((rows, b, n), dtype=complex)
        w = u[:, :n, :n]
        rhs[:, :, :lo] = run[:, :, :lo] @ w[:, :lo, :lo]
        rhs[:, :, lo:] = -q
        rhs[:, diag, lo + diag] -= d
        z = np.linalg.solve(a, rhs)
        w[:, lo + diag, lo + diag] = -1.0
        w[:, lo:] += d[:, :, None] * z
        w += x @ z


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


def euler_coset_volume(nodes_per_axis: int = 64) -> float:
    """Tensor-product Gauss-Legendre integral of the Euler density over EULER_ANGLE_RANGES.

    The density does not involve phi4 or phi6, so those axes contribute their
    exact lengths and the quadrature error comes from the phi3/phi5 grid alone.
    """
    if nodes_per_axis < 2:
        raise ValueError("need at least 2 quadrature nodes per axis")
    range3, range4, range5, range6 = EULER_ANGLE_RANGES
    base_nodes, base_weights = np.polynomial.legendre.leggauss(nodes_per_axis)

    def mapped(bounds):
        lo, hi = bounds
        half = (hi - lo) / 2.0
        return lo + half * (base_nodes + 1.0), half * base_weights

    n3, w3 = mapped(range3)
    n5, w5 = mapped(range5)
    len4 = range4[1] - range4[0]
    len6 = range6[1] - range6[0]
    dens = euler_density_u3(n3[:, None], n5[None, :])
    return float(w3 @ dens @ w5 * len4 * len6)
