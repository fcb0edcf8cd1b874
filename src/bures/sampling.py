"""Seeded samplers: ball points, Haar unitaries, and fixed-spectrum states.

Randomness comes from counter-based Philox streams keyed by (seed,
stream_index), so every record of a batch owns an independent stream and the
output is reproducible bit for bit regardless of execution order.

``batch_sample`` is the columnar path. It re-keys one generator per record,
draws from stream (seed, i) exactly what the scalar samplers below draw for
record i, and builds the states of a whole block of records with stacked
array operations. The scalar samplers stay as the reference it is tested
against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coset import BALL_EDGE_TOL, BallPoint, FlagChart, flag_unitary
from .errors import (
    NotHermitianError,
    OutOfBallError,
    ShapeError,
    SingularMatrixError,
    UnsupportedPatternError,
)
from .linalg import PIVOT_FLOOR, qr_decompose, qr_decompose_stack
from .measures import (
    DEGENERACY_TOL,
    DensityMatrix,
    Spectrum,
    raise_first_failure,
    state_checks,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)

#: Default squared-radius margin kept between sampled points and the ball edge
#: when the points feed finite-difference Jacobian checks.
INTERIOR_MARGIN = 1e-2

#: Sampling methods, as written in record files.
METHODS = ("haar", "coset")


class RngStream:
    """Counter-based random stream keyed by (seed, stream_index).

    The same key always reproduces the same draw sequence. Distinct stream
    indices under one seed give statistically independent streams, which is
    how batches assign one stream per record.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = int(seed) % 2**64
        self.stream_index = int(stream_index) % 2**64
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    def rekey(self, stream_index: int) -> None:
        """Restart as stream (seed, stream_index): counter 0, empty buffer.

        A Philox stream is a pure function of its key and counter, so the
        draws that follow equal those of ``RngStream(seed, stream_index)`` bit
        for bit, without the cost of building a new generator.
        """
        self.stream_index = int(stream_index) % 2**64
        self._generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": _PHILOX_ZEROS,
                "key": np.array([self.seed, self.stream_index], dtype=np.uint64),
            },
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def standard_normal(self, size=None):
        return self._generator.standard_normal(size)

    def uniform(self) -> float:
        return float(self._generator.random())

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex Gaussian draws: (X + iY)/sqrt(2), real block first."""
        re = self._generator.standard_normal(shape)
        im = self._generator.standard_normal(shape)
        return (re + 1j * im) * _SQRT_HALF


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """One sampled state: its method, its stream index and the state itself.

    Its rho_jj observables are the real diagonal entries of the state, so
    ``observables`` derives them rather than storing a second copy.
    """

    method: str
    index: int
    rho: DensityMatrix

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")

    @property
    def observables(self) -> dict:
        """Labels "rho_11", "rho_22", ... mapped to the real diagonal entries, in label order."""
        return {f"rho_{j}{j}": value for j, value in enumerate(np.diagonal(self.rho.matrix).real.tolist(), 1)}


def sample_ball(dim: int, rng: RngStream) -> BallPoint:
    """Uniform point of the closed ball B^dim (dim even).

    Gaussian direction, then radius u^(1/dim); the direction is drawn first,
    which fixes the stream layout that reproducibility tests rely on.
    """
    if dim < 2 or dim % 2:
        raise ShapeError("ball dimension must be even and at least 2")
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    while norm < 1e-300:
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
    radius = rng.uniform() ** (1.0 / dim)
    return BallPoint(direction * (radius / norm))


def sample_interior_point(dim: int, rng: RngStream, margin: float = INTERIOR_MARGIN) -> BallPoint:
    """Uniform ball point conditioned on radius_sq <= 1 - margin.

    Finite-difference Jacobian checks need clearance from the edge; rejection
    keeps the conditional law exactly uniform on the retained region.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie strictly between 0 and 1")
    while True:
        point = sample_ball(dim, rng)
        if point.radius_sq <= 1.0 - margin:
            return point


def sample_haar_unitary(n_levels: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The QR phases are fixed by rescaling each column with the phase of the
    matching diagonal entry of R, which makes the factorization unique and
    the resulting distribution exactly invariant.
    """
    if n_levels < 1:
        raise ShapeError("need at least one level")
    last_error = None
    for _ in range(2):
        z = rng.complex_normal((n_levels, n_levels))
        try:
            q, r = qr_decompose(z)
        except SingularMatrixError as exc:
            last_error = exc
            continue
        d = np.diagonal(r)
        return q * (d / np.abs(d))
    raise SingularMatrixError("repeated singular Ginibre draws") from last_error


def _state_from_unitary(spectrum: Spectrum, unitary: np.ndarray) -> DensityMatrix:
    """State whose ascending-ordered diagonal model is conjugated by ``unitary``."""
    return DensityMatrix.from_eigensystem(spectrum, unitary[:, ::-1])


def coset_ladder(spectrum: Spectrum) -> tuple:
    """Ball dimensions of the spectrum's coset ladder, smallest first.

    A generic N-level spectrum uses (2, 4, ..., 2(N-1)); an m-fold zero
    eigenvalue with m >= 2 drops the first m-1 balls, leaving (2m, ...,
    2(N-1)). Repeated nonzero eigenvalues have no coset chart here.
    """
    n = spectrum.n_levels
    if n < 2:
        raise ShapeError("a coset ladder needs at least 2 levels")
    nonzero = spectrum.values[spectrum.values > DEGENERACY_TOL]
    if nonzero.size >= 2 and np.min(np.abs(np.diff(nonzero))) < DEGENERACY_TOL:
        raise UnsupportedPatternError("repeated nonzero eigenvalues have no coset chart here")
    return tuple(2 * j for j in range(max(spectrum.num_zero(), 1), n))


def sample_flag_chart(spectrum: Spectrum, rng: RngStream) -> FlagChart:
    """Independent uniform ball points for each layer of the spectrum's ladder."""
    return FlagChart(tuple(sample_ball(dim, rng) for dim in coset_ladder(spectrum)))


def state_from_chart(spectrum: Spectrum, chart: FlagChart) -> DensityMatrix:
    """Deterministic state for explicit chart coordinates (diagnostics and tests)."""
    if chart.n_levels != spectrum.n_levels:
        raise ShapeError(
            f"chart is for {chart.n_levels} levels, spectrum has {spectrum.n_levels}"
        )
    return _state_from_unitary(spectrum, flag_unitary(chart))


def sample_state_haar(spectrum: Spectrum, rng: RngStream) -> SampleRecord:
    """Fixed-spectrum state conjugated by a Haar unitary."""
    rho = _state_from_unitary(spectrum, sample_haar_unitary(spectrum.n_levels, rng))
    return SampleRecord("haar", rng.stream_index, rho)


def sample_state_coset(spectrum: Spectrum, rng: RngStream) -> SampleRecord:
    """Fixed-spectrum state conjugated by a layered coset unitary.

    Layer points are uniform on their balls, which by the unit-Jacobian
    property of the coset coordinates reproduces the unitary part of the
    Bures measure for the given spectrum.
    """
    rho = state_from_chart(spectrum, sample_flag_chart(spectrum, rng))
    return SampleRecord("coset", rng.stream_index, rho)


#: Working-set budget of one block of records: a block holds as many records
#: as fit one (block, N, N) complex stack into this many bytes (at least one),
#: so peak memory stays flat in the record count whatever N is. A block makes
#: a handful of such stacks at once; at 1 MiB their churn raised the peak RSS
#: of repeated N=3 runs by about 10%, at 256 KiB by about 2%.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class StateBatch:
    """Sampled states as one stack; record i was drawn from stream (seed, i).

    ``matrices`` has shape (count, N, N) and holds finite states equal to
    their conjugate transposes bit for bit, checked at construction block by
    block. ``diagonals`` (count, N), the rho_jj observables, are derived from
    them. ``seed`` is None for states built from explicit charts.
    """

    method: str
    seed: int | None
    spectrum: Spectrum
    matrices: np.ndarray

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")
        n = self.spectrum.n_levels
        count = self.matrices.shape[0]
        if self.matrices.shape != (count, n, n):
            raise ShapeError(f"matrices {self.matrices.shape} do not hold {n}-level states")
        # block by block: a whole-stack conjugate transpose would raise peak memory
        for start, stop in _blocks(count, n):
            block = self.matrices[start:stop]
            finite = np.isfinite(block).all(axis=(1, 2))
            if not finite.all():
                raise ShapeError(f"record {start + int(np.argmin(finite))}: matrix entries must be finite")
            hermitian = (block == block.conj().transpose(0, 2, 1)).all(axis=(1, 2))
            if not hermitian.all():
                row = start + int(np.argmin(hermitian))
                raise NotHermitianError(f"record {row}: state differs from its conjugate transpose")

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_levels(self) -> int:
        return self.spectrum.n_levels

    @property
    def diagonals(self) -> np.ndarray:
        """(count, N) real diagonals of the states: their rho_jj observables."""
        return np.diagonal(self.matrices, axis1=1, axis2=2).real

    @property
    def indices(self) -> range:
        """Stream index of each record, in order."""
        return range(len(self))


def block_records(n_levels: int) -> int:
    """Records per block: as many (N, N) complex states as fit BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (16 * n_levels * n_levels))


def _blocks(count: int, n_levels: int):
    """(start, stop) pairs covering range(count) in blocks of the byte budget."""
    step = block_records(n_levels)
    for start in range(0, count, step):
        yield start, min(start + step, count)


def _layer_offsets(dims: tuple) -> list:
    """Column where each layer starts in a chart row."""
    return np.cumsum((0,) + dims[:-1]).tolist()


def _draw_charts(rng: RngStream, dims: tuple, start: int, stop: int) -> np.ndarray:
    """Chart coordinates of records start..stop-1, one row per record.

    Row i concatenates the layers smallest first and equals the coordinates
    ``sample_flag_chart`` draws from stream (seed, start + i), bit for bit:
    the same draws in the same order, the same redraw loop, and the same
    floating-point steps (np.linalg.norm of a real vector is sqrt(x.dot(x))).
    """
    coords = np.empty((stop - start, sum(dims)))
    scales = np.empty((stop - start, len(dims)))
    layers = list(enumerate(zip(_layer_offsets(dims), dims)))
    for row, index in enumerate(range(start, stop)):
        rng.rekey(index)
        for layer, (lo, dim) in layers:
            direction = rng.standard_normal(dim)
            norm = math.sqrt(direction.dot(direction))
            while norm < 1e-300:
                direction = rng.standard_normal(dim)
                norm = math.sqrt(direction.dot(direction))
            coords[row, lo : lo + dim] = direction
            scales[row, layer] = rng.uniform() ** (1.0 / dim) / norm
    coords *= np.repeat(scales, dims, axis=1)
    return coords


def sample_chart_coords(spectrum: Spectrum, seed: int, count: int) -> np.ndarray:
    """(count, sum of ladder dims) chart coordinates, row i from stream (seed, i)."""
    return _draw_charts(RngStream(seed), coset_ladder(spectrum), 0, count)


def _check_ball_rows(coords: np.ndarray, dims: tuple, start: int) -> None:
    """The BallPoint contract for every layer of every row, vectorized."""
    finite = np.all(np.isfinite(coords), axis=1)
    if not finite.all():
        raise ShapeError(f"record {start + int(np.argmin(finite))}: ball coordinates must be finite")
    r2 = np.add.reduceat(coords * coords, _layer_offsets(dims), axis=1)
    outside = np.any(r2 > 1.0 + BALL_EDGE_TOL, axis=1)
    if outside.any():
        row = int(np.argmax(outside))
        raise OutOfBallError(f"record {start + row}: squared radius {r2[row].max():.17g} exceeds 1")


def _coset_unitaries(n_levels: int, dims: tuple, coords: np.ndarray, start: int) -> np.ndarray:
    """Stacked ``flag_unitary`` of each row's chart, one low-rank update per layer.

    The layer on B^(2k) differs from the identity by a rank-two block on the
    leading k+1 levels, [[1 - x x†/(1+s), x], [-x†, s]]. Before it is applied
    the product is block-diagonal (W, identity) with W of size k, so the
    product only changes in its leading (k+1) x (k+1) block, which becomes
    [[W - x (x† W)/(1+s), x], [-x† W, s]]: O(k^2) work per layer instead of a
    dense N x N product.
    """
    _check_ball_rows(coords, dims, start)
    u = np.zeros((coords.shape[0], n_levels, n_levels), dtype=complex)
    first = dims[0] // 2
    u[:, range(first), range(first)] = 1.0
    for lo, dim in zip(_layer_offsets(dims), dims):
        k = dim // 2
        layer = coords[:, lo : lo + dim]
        x = layer[:, 0::2] + 1j * layer[:, 1::2]
        r2 = np.einsum("ij,ij->i", layer, layer)
        s = np.sqrt(np.maximum(1.0 - np.minimum(r2, 1.0), 0.0))
        w = u[:, :k, :k]
        xw = (x.conj()[:, None, :] @ w)[:, 0, :]
        w -= x[:, :, None] * (xw / (1.0 + s)[:, None])[:, None, :]
        u[:, :k, k] = x
        u[:, k, :k] = -xw
        u[:, k, k] = s
    return u


def _haar_unitaries(rng: RngStream, n_levels: int, start: int, stop: int) -> np.ndarray:
    """Stacked ``sample_haar_unitary`` for records start..stop-1.

    One QR runs over the whole stack and the phases are fixed by the diagonal
    of each R. A record whose R has a pivot at or below PIVOT_FLOOR is redone
    by the scalar sampler on a fresh stream (seed, index), which replays the
    same first draw and then the same retry.
    """
    z = np.empty((stop - start, n_levels, n_levels), dtype=complex)
    for row, index in enumerate(range(start, stop)):
        rng.rekey(index)
        z[row] = rng.complex_normal((n_levels, n_levels))
    q, r = qr_decompose_stack(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    mag = np.abs(d)
    singular = mag <= PIVOT_FLOOR
    u = q * (d / np.where(singular, 1.0, mag))[:, None, :]
    for row in np.flatnonzero(singular.any(axis=1)):
        u[row] = sample_haar_unitary(n_levels, RngStream(rng.seed, start + int(row)))
    return u


def _store_states(spectrum: Spectrum, unitaries: np.ndarray, out: np.ndarray, start: int) -> None:
    """Write the states of ``unitaries`` into ``out``, enforcing DensityMatrix's contract.

    Mirrors ``_state_from_unitary``: the basis is the unitary with its columns
    reversed, raw = (basis * values) basis†, and the stored state is
    (raw + raw†)/2. The block is checked by ``state_checks``, which names the
    first failing record.
    """
    basis = unitaries[:, :, ::-1]
    raw = (basis * spectrum.values) @ basis.conj().transpose(0, 2, 1)
    np.add(raw, raw.conj().transpose(0, 2, 1), out=out)
    out /= 2
    raise_first_failure(state_checks(out, spectrum.values, basis, raw), start)


def _assemble(method: str, seed, spectrum: Spectrum, count: int, unitaries_for) -> StateBatch:
    """StateBatch of ``count`` states; ``unitaries_for(start, stop)`` yields each block's unitaries."""
    n = spectrum.n_levels
    try:
        matrices = np.empty((count, n, n), dtype=complex)
    except (MemoryError, ValueError) as exc:  # numpy raises either, by size
        raise ShapeError(f"cannot hold {count} states of {n} levels in memory") from exc
    for start, stop in _blocks(count, n):
        _store_states(spectrum, unitaries_for(start, stop), matrices[start:stop], start)
    return StateBatch(method, seed, spectrum, matrices)


def batch_from_charts(spectrum: Spectrum, coords) -> StateBatch:
    """Coset states for explicit chart coordinates, one row per record (diagnostics and tests).

    Rows are laid out as ``sample_chart_coords`` returns them: the layers of
    the spectrum's ladder (``coset_ladder``), smallest first.
    """
    dims = coset_ladder(spectrum)
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] != sum(dims):
        raise ShapeError(f"chart rows must have {sum(dims)} coordinates, got shape {coords.shape}")
    n = spectrum.n_levels
    return _assemble(
        "coset", None, spectrum, coords.shape[0],
        lambda start, stop: _coset_unitaries(n, dims, coords[start:stop], start),
    )


def batch_sample(method: str, spectrum: Spectrum, count: int, seed: int) -> StateBatch:
    """StateBatch of ``count`` states, record i drawn from stream (seed, i).

    The spectrum needs at least 2 levels; the coset method uses its ladder
    (``coset_ladder``). Record i does not depend on ``count``, so a batch's
    first k records equal a count-k batch bit for bit.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    n = spectrum.n_levels
    if n < 2:
        raise ShapeError("sampling needs at least 2 levels")
    rng = RngStream(seed)
    dims = coset_ladder(spectrum) if method == "coset" else ()

    def unitaries_for(start, stop):
        if method == "haar":
            return _haar_unitaries(rng, n, start, stop)
        return _coset_unitaries(n, dims, _draw_charts(rng, dims, start, stop), start)

    return _assemble(method, seed, spectrum, count, unitaries_for)
