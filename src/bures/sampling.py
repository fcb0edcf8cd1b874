"""Seeded samplers: ball points, Haar unitaries, and fixed-spectrum states.

Randomness comes from counter-based Philox streams keyed by (seed,
stream_index), so every record of a batch owns an independent stream and the
output is reproducible bit for bit regardless of execution order.

``batch_sample`` is the columnar path. It draws from stream (seed, i)
exactly what the scalar samplers below draw for record i, and builds the
states of a whole block of records with stacked array operations. For
records of few draws it computes the draws of a whole block from the
streams' Philox words (``bures.philox``) and re-keys one generator only for
the records those words cannot give; otherwise it re-keys it per record. The
scalar samplers stay as the reference it is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coset import BallPoint, FlagChart, flag_unitary
from .errors import NotHermitianError, ShapeError, SingularMatrixError
from .linalg import PIVOT_FLOOR, qr_decompose, qr_decompose_stack
from .measures import DensityMatrix, Spectrum, raise_first_failure, state_checks
from .philox import normals, philox_words, uniforms

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)

#: Squared-radius margin kept between interior points and the ball edge, so
#: that finite-difference Jacobian checks have clearance.
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


@dataclass(frozen=True, eq=False, slots=True)
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


def sample_interior_point(dim: int, rng: RngStream) -> BallPoint:
    """Uniform ball point conditioned on radius_sq <= 1 - INTERIOR_MARGIN.

    Finite-difference Jacobian checks need clearance from the edge; rejection
    keeps the conditional law exactly uniform on the retained region.
    """
    while True:
        point = sample_ball(dim, rng)
        if point.radius_sq <= 1.0 - INTERIOR_MARGIN:
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
    2(N-1)). Repeated nonzero eigenvalues change nothing: the chart draws a
    uniform flag, and a state depends on its flag only through the
    eigenspaces, so the state law is the Haar-conjugation law whatever the
    multiplicities.
    """
    n = spectrum.n_levels
    if n < 2:
        raise ShapeError("a coset ladder needs at least 2 levels")
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
    their conjugate transposes bit for bit. Construction checks both, block
    by block, and names the first failing record with the first check it
    fails; for a sampled stack this is the only finiteness and Hermiticity
    check. ``diagonals`` (count, N), the rho_jj observables, are derived from
    them.
    """

    method: str
    seed: int
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
            hermitian = (block == block.conj().transpose(0, 2, 1)).all(axis=(1, 2))
            checks = [
                (~np.isfinite(block).all(axis=(1, 2)), ShapeError, "matrix entries must be finite"),
                (~hermitian, NotHermitianError, "state differs from its conjugate transpose"),
            ]
            raise_first_failure(checks, start)

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


#: Most normal draws per record for which the bulk draw path runs. A normal
#: leaves numpy's ziggurat fast path with probability about 1.5% (``KI``),
#: and a record with such a draw is redrawn on its own stream, so a record of
#: n normals falls back with probability 1 - 0.985^n: about 9% at 6 normals
#: (coset, N=3), 24% at 18 (Haar, N=3), 26% at 20 (coset, N=5) and 74% at 90
#: (coset, N=10), where drawing each record on its own stream is the faster.
BULK_MAX_NORMALS = 20


def _bulk_words(seed: int, start: int, stop: int, draws: int) -> np.ndarray:
    """The first ``draws`` words of the streams (seed, start)..(seed, stop - 1), one row each."""
    return philox_words(seed, start, stop, -(-draws // 4))[:, :draws]


def _bulk_chart_rows(seed: int, layers: list, start: int, coords: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """``_draw_charts``' per-record draws for every row at once, from the streams' words.

    Each layer takes dim normal words, then one uniform word. Returns the
    rows it could not draw: those with a normal off the ziggurat fast path or
    a layer whose norm would be redrawn. Each squared norm, a stacked matmul
    of the row with itself, must equal the per-record path's ndarray.dot bit
    for bit (the tests compare them); summed another way it differs.
    """
    words = _bulk_words(seed, start, start + len(coords), coords.shape[1] + len(layers))
    done = np.ones(len(coords), dtype=bool)
    pos = 0
    for layer, (lo, dim) in layers:
        direction, fast = normals(words[:, pos : pos + dim])
        u = uniforms(words[:, pos + dim]).tolist()
        pos += dim + 1
        norm = np.sqrt(np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0])
        done &= fast.all(axis=1) & (norm >= 1e-300)
        coords[:, lo : lo + dim] = direction
        # Python's float power, as the per-record path takes it
        scales[:, layer] = np.array([v ** (1.0 / dim) for v in u]) / np.where(done, norm, 1.0)
    return np.flatnonzero(~done)


def _draw_charts(rng: RngStream, dims: tuple, start: int, stop: int) -> np.ndarray:
    """Chart coordinates of records start..stop-1, one row per record.

    Row i concatenates the layers smallest first and equals the coordinates
    ``sample_flag_chart`` draws from stream (seed, start + i), bit for bit.
    Up to BULK_MAX_NORMALS normals per record the rows are drawn in bulk from
    the streams' words, and only the rows that leave the bulk path re-key
    ``rng``; above it every row does.
    """
    coords = np.empty((stop - start, sum(dims)))
    scales = np.empty((stop - start, len(dims)))
    layers = list(enumerate(zip(_layer_offsets(dims), dims)))
    if sum(dims) <= BULK_MAX_NORMALS:
        redo = _bulk_chart_rows(rng.seed, layers, start, coords, scales).tolist()
    else:
        redo = range(stop - start)
    # the same draws in the same order, the same redraw loop and the same
    # floating-point steps as sample_ball (np.linalg.norm of a real vector is
    # sqrt(x.dot(x)))
    for row in redo:
        rng.rekey(start + row)
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


def _coset_unitaries(n_levels: int, dims: tuple, coords: np.ndarray) -> np.ndarray:
    """Stacked ``flag_unitary`` of each row's chart, one low-rank update per layer.

    The layer on B^(2k) differs from the identity by a rank-two block on the
    leading k+1 levels, [[1 - x x†/(1+s), x], [-x†, s]]. Before it is applied
    the product is block-diagonal (W, identity) with W of size k, so the
    product only changes in its leading (k+1) x (k+1) block, which becomes
    [[W - x (x† W)/(1+s), x], [-x† W, s]]: O(k^2) work per layer instead of a
    dense N x N product.
    """
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

    Up to BULK_MAX_NORMALS normals per record the Ginibre draws come from the
    streams' words, and a record with a normal off the ziggurat fast path is
    drawn on its own re-keyed stream. One QR runs over the whole stack and
    the phases are fixed by the diagonal of each R. A record whose R has a
    pivot at or below PIVOT_FLOOR is redone by the scalar sampler on a fresh
    stream (seed, index), which replays the same first draw and then the
    same retry.
    """
    z = np.empty((stop - start, n_levels, n_levels), dtype=complex)
    draws = 2 * n_levels * n_levels
    if draws <= BULK_MAX_NORMALS:
        x, fast = normals(_bulk_words(rng.seed, start, stop, draws))
        x = x.reshape(stop - start, 2, n_levels, n_levels)
        # RngStream.complex_normal's arithmetic on the whole stack
        z[:] = (x[:, 0] + 1j * x[:, 1]) * _SQRT_HALF
        redo = np.flatnonzero(~fast.all(axis=1)).tolist()
    else:
        redo = range(stop - start)
    for row in redo:
        rng.rekey(start + row)
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
    """Write the states of ``unitaries`` into ``out``, checking their eigensystem residuals.

    Mirrors ``_state_from_unitary``: the basis is the unitary with its columns
    reversed, raw = (basis * values) basis†, and the stored state is
    (raw + raw†)/2, Hermitian bit for bit. ``state_checks`` tests the trace,
    the unitarity of the basis and the reconstruction, naming the first
    failing record; finiteness and exact Hermiticity are left to the
    ``StateBatch`` that ``batch_sample`` builds from the whole stack.
    """
    basis = unitaries[:, :, ::-1]
    raw = (basis * spectrum.values) @ basis.conj().transpose(0, 2, 1)
    np.add(raw, raw.conj().transpose(0, 2, 1), out=out)
    out /= 2
    raise_first_failure(state_checks(out, spectrum.values, basis, raw), start)


def batch_sample(method: str, spectrum: Spectrum, count: int, seed: int) -> StateBatch:
    """StateBatch of ``count`` states, record i drawn from stream (seed, i).

    The spectrum needs at least 2 levels; the coset method uses its ladder
    (``coset_ladder``). Record i does not depend on ``count``, so a batch's
    first k records equal a count-k batch bit for bit.
    """
    if count < 1:
        raise ShapeError("count must be at least 1")
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    n = spectrum.n_levels
    if n < 2:
        raise ShapeError("sampling needs at least 2 levels")
    try:
        matrices = np.empty((count, n, n), dtype=complex)
    except (MemoryError, ValueError) as exc:  # numpy raises either, by size
        raise ShapeError(f"cannot hold {count} states of {n} levels in memory") from exc
    rng = RngStream(seed)
    dims = coset_ladder(spectrum) if method == "coset" else ()
    for start, stop in _blocks(count, n):
        if method == "haar":
            unitaries = _haar_unitaries(rng, n, start, stop)
        else:
            unitaries = _coset_unitaries(n, dims, _draw_charts(rng, dims, start, stop))
        _store_states(spectrum, unitaries, matrices[start:stop], start)
    return StateBatch(method, seed, spectrum, matrices)
