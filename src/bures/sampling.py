"""Seeded samplers: ball points, Haar unitaries, and fixed-spectrum states.

Randomness comes from counter-based Philox streams keyed by (seed,
stream_index), so every record of a batch owns an independent stream and the
output is reproducible bit for bit regardless of execution order.

``batch_sample`` is the one record sampler. For record i it draws from
stream (seed, i) exactly what the tests' per-record oracle
(``tests/conftest.py``, built from the primitives below) draws, and builds
the states of a whole block of records with stacked array operations. A
Haar record, and a coset record of many draws, re-keys one generator to its
stream: a re-key assigns the one restart state the stream keeps, and the
record writes its normals and uniforms in place into the block's rows. For
coset records of few draws the draws of a whole block come from the streams'
Philox words (``bures.philox``), and only the records those words cannot give
re-key the generator. The complex Ginibre stack, and the ball norms and
radii, are then assembled once per block for all rows, and the rows the bulk
paths cannot give are redone by the per-record primitives. A block's flag
product and states come from ``coset.flag_unitaries`` and
``measures.store_states``, each beside its per-record twin.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coset import BallPoint, FlagChart, flag_unitaries, flag_unitary, layer_offsets
from .errors import NotHermitianError, ShapeError, SingularMatrixError
from .measures import DensityMatrix, Spectrum, as_complex_matrix, raise_first_failure, store_states
from .philox import normals, philox_words, uniforms

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Squared-radius margin kept between interior points and the ball edge, so
#: that finite-difference Jacobian checks have clearance.
INTERIOR_MARGIN = 1e-2

#: Sampling methods, as written in record files.
METHODS = ("haar", "coset")

#: Diagonal entries of R at or below this magnitude count as rank deficiency.
PIVOT_FLOOR = 1e-300

#: A ball direction of norm below this is drawn again, by ``sample_ball`` and
#: ``_draw_charts`` alike: the batch matches the scalar reference only so.
DIRECTION_FLOOR = 1e-300


def observable_labels(n_levels: int) -> list:
    """The rho_jj observable labels "rho_11", "rho_22", ..., in order."""
    return [f"rho_{j}{j}" for j in range(1, n_levels + 1)]


class RngStream:
    """Counter-based random stream keyed by (seed, stream_index).

    The same key always reproduces the same draw sequence. Distinct stream
    indices under one seed give statistically independent streams, which is
    how batches assign one stream per record.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = int(seed) % 2**64
        self.stream_index = int(stream_index) % 2**64
        self._key = [self.seed, self.stream_index]
        self._generator = np.random.Generator(np.random.Philox(key=np.array(self._key, dtype=np.uint64)))
        # the state rekey assigns: counter 0, empty buffer, and the key list above.
        # numpy copies each entry into the generator, and reads Python ints
        # several times faster than numpy arrays' scalars
        self._restart = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, stream_index: int) -> None:
        """Restart as stream (seed, stream_index): counter 0, empty buffer.

        A Philox stream is a pure function of its key and counter, so the
        draws that follow equal those of ``RngStream(seed, stream_index)`` bit
        for bit, without the cost of building a new generator. The stream
        keeps one restart state and only changes its key's index.
        """
        self.stream_index = self._key[1] = int(stream_index) % 2**64
        self._generator.bit_generator.state = self._restart

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
        """``observable_labels`` mapped to the real diagonal entries, in label order."""
        return dict(zip(observable_labels(self.rho.n_levels), np.diagonal(self.rho.matrix).real.tolist()))


def sample_ball(dim: int, rng: RngStream) -> BallPoint:
    """Uniform point of the closed ball B^dim (dim even).

    Gaussian direction, then radius u^(1/dim); the direction is drawn first,
    which fixes the stream layout that reproducibility tests rely on.
    """
    if dim < 2 or dim % 2:
        raise ShapeError("ball dimension must be even and at least 2")
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    while norm < DIRECTION_FLOOR:
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


def qr_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a square matrix.

    Returns ``(q, r)`` with ``q`` unitary and ``r`` upper triangular. Raises
    ``SingularMatrixError`` if any diagonal entry of ``r`` underflows the
    pivot floor, i.e. the input is numerically rank deficient.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"QR factorization here expects a square matrix, got {a.shape}")
    q, r = np.linalg.qr(a)
    if np.any(np.abs(np.diagonal(r)) <= PIVOT_FLOOR):
        raise SingularMatrixError("matrix is numerically rank deficient")
    return q, r


def qr_decompose_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of every matrix in a finite (count, n, n) complex stack.

    The caller builds the stack, so its shape and finiteness are not checked
    again. Unlike ``qr_decompose`` it does not raise on rank deficiency, so
    that one bad matrix does not fail the stack: callers compare the
    diagonals of R with PIVOT_FLOOR themselves.
    """
    return np.linalg.qr(a)


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


def state_from_chart(spectrum: Spectrum, chart: FlagChart) -> DensityMatrix:
    """State whose ascending-ordered diagonal model the chart's flag unitary conjugates."""
    if chart.n_levels != spectrum.n_levels:
        raise ShapeError(f"chart is for {chart.n_levels} levels, spectrum has {spectrum.n_levels}")
    return DensityMatrix.from_eigensystem(spectrum, flag_unitary(chart)[:, ::-1])


#: Working-set budget of one block of records (``block_records``), so that
#: peak memory stays flat in the record count whatever N is. A block makes a
#: handful of (block, N, N) stacks at once; at 1 MiB their churn raised the
#: peak RSS of repeated N=3 runs by about 10%, at 256 KiB by about 2%.
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class StateBatch:
    """Sampled states as one stack; record i was drawn from stream (seed, i).

    ``matrices``, taken as a complex array (a complex128 stack is not
    copied), has shape (count, N, N) and holds finite states equal to their
    conjugate transposes bit for bit. Construction checks these, block by
    block, and names the first failing record with the first check it fails;
    for a sampled stack this is the only finiteness and Hermiticity check.
    ``diagonals`` (count, N), the rho_jj observables, are derived from them.
    """

    method: str
    seed: int
    spectrum: Spectrum
    matrices: np.ndarray

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")
        n = self.spectrum.n_levels
        matrices = np.asarray(self.matrices, dtype=complex)
        if matrices.ndim != 3 or matrices.shape[1:] != (n, n):
            raise ShapeError(f"matrices {matrices.shape} do not hold {n}-level states")
        object.__setattr__(self, "matrices", matrices)
        # block by block: a whole-stack conjugate transpose would raise peak memory
        step = block_records(n)
        for start in range(0, len(matrices), step):
            block = matrices[start : start + step]
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


#: Fewest records of a block (see ``block_records``): the flag product makes
#: a fixed number of numpy calls per run of layers (``coset.flag_unitaries``)
#: and block, and in 4-record blocks the N=100 one took 1.03 instead of 1.14
#: ms per record (one BLAS thread, 2-CPU VM).
BLOCK_FLOOR = 4


def block_records(n_levels: int) -> int:
    """Records per block of every stack of states, sampled, checked or read.

    As many (N, N) complex states as fit BLOCK_BYTES, but at least
    min(BLOCK_FLOOR, states that fit BLOCK_FLOOR x BLOCK_BYTES) and one:
    1,820 at N = 3, 163 at N = 10, 4 at N = 65-128, 3 at 129-147, 2 at
    148-181 and 1 from N = 182 up.
    """
    state = 16 * n_levels * n_levels
    return max(1, BLOCK_BYTES // state, min(BLOCK_FLOOR, BLOCK_FLOOR * BLOCK_BYTES // state))


#: Most normal draws per coset record for which the bulk draw path runs. A
#: normal leaves numpy's ziggurat fast path with probability about 1.5%
#: (``KI``), and a record with such a draw is redrawn on its own stream, so a
#: record of n normals falls back with probability 1 - 0.985^n: about 9% at 6
#: normals (N=3), 47% at 42 (N=7) and 57% at 56 (N=8). Timed against
#: per-record draws, bulk was the faster up to N=7 and about even at N=8, so
#: the gate sits at N=7.
BULK_MAX_NORMALS = 42


def _bulk_chart_draws(seed: int, dims: tuple, start: int, stop: int):
    """(directions, uniforms, redo): ``_draw_charts``' draws for every row at once, from the streams' words.

    Each layer takes dim normal words, then one uniform word. ``directions``
    (rows, sum(dims)) holds the normals layer after layer, ``uniforms`` (rows,
    layers) the uniforms, and ``redo`` lists the rows with a normal off the
    ziggurat fast path, whose draws here are not numpy's.
    """
    draws = sum(dims) + len(dims)
    words = philox_words(seed, start, stop, -(-draws // 4))[:, :draws]
    ends = np.cumsum(np.add(dims, 1)) - 1
    # np.take keeps the rows C-contiguous, which in-place draws into a row need
    directions, fast = normals(np.take(words, np.delete(np.arange(words.shape[1]), ends), axis=1))
    return directions, uniforms(words[:, ends]), np.flatnonzero(~fast.all(axis=1)).tolist()


def _draw_charts(rng: RngStream, dims: tuple, start: int, stop: int) -> np.ndarray:
    """Chart coordinates of records start..stop-1, one row per record.

    Row i concatenates the layers smallest first and equals, bit for bit,
    the coordinates that ``sample_ball`` draws for the ladder's layers in
    turn from stream (seed, start + i): the tests' oracle chart.
    Up to BULK_MAX_NORMALS normals per record the draws come from the
    streams' words, and only the rows that leave the bulk path re-key
    ``rng``; above it every row does. A re-keyed row writes each layer's
    normals in place, then its uniform. Norms and radii of every row come
    from one assembly per block. Each squared norm, a stacked matmul of a
    layer with itself, equals ``sample_ball``'s ndarray.dot bit for bit (the
    tests compare them); summed another way it differs. A row with a layer
    norm below DIRECTION_FLOOR, which ``sample_ball`` redraws, is redone by it.
    """
    rows = stop - start
    spans = [slice(lo, lo + dim) for lo, dim in zip(layer_offsets(dims), dims)]
    if sum(dims) <= BULK_MAX_NORMALS:
        coords, u, redo = _bulk_chart_draws(rng.seed, dims, start, stop)
    else:
        coords, u, redo = np.empty((rows, sum(dims))), np.empty((rows, len(dims))), range(rows)
    draw, uniform = rng._generator.standard_normal, rng._generator.random
    for row in redo:
        rng.rekey(start + row)
        line, line_u = coords[row], u[row]
        for layer, span in enumerate(spans):
            draw(out=line[span])
            line_u[layer] = uniform()
    norms = np.empty_like(u)
    for layer, span in enumerate(spans):
        direction = coords[:, span]
        norms[:, layer] = np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0]
    np.sqrt(norms, out=norms)
    tiny = norms < DIRECTION_FLOOR
    # Python's float power, as sample_ball takes it
    radii = np.fromiter(map(pow, u.ravel().tolist(), [1.0 / dim for dim in dims] * rows), float, u.size)
    coords *= np.repeat(radii.reshape(u.shape) / np.where(tiny, 1.0, norms), dims, axis=1)
    for row in np.flatnonzero(tiny.any(axis=1)).tolist():
        rng.rekey(start + row)
        coords[row] = np.concatenate([sample_ball(dim, rng).coords for dim in dims])
    return coords


def _haar_unitaries(rng: RngStream, n_levels: int, start: int, stop: int) -> np.ndarray:
    """Stacked ``sample_haar_unitary`` for records start..stop-1.

    Each record re-keys ``rng`` and draws its 2N² normals, the real block
    first, in place into its row with one generator call. The complex
    Ginibre stack is built once from all rows. One QR runs over the whole
    stack and the phases are fixed by the diagonal of each R. A record whose
    R has a pivot at or below PIVOT_FLOOR is redone by the scalar sampler on
    its re-keyed stream, which replays the same first draw and then the same
    retry.
    """
    x = np.empty((stop - start, 2 * n_levels * n_levels))
    draw = rng._generator.standard_normal
    for row in range(stop - start):
        rng.rekey(start + row)
        draw(out=x[row])
    x = x.reshape(stop - start, 2, n_levels, n_levels)
    # RngStream.complex_normal's arithmetic on the whole stack
    q, r = qr_decompose_stack((x[:, 0] + 1j * x[:, 1]) * _SQRT_HALF)
    d = np.diagonal(r, axis1=1, axis2=2)
    mag = np.abs(d)
    singular = mag <= PIVOT_FLOOR
    u = q * (d / np.where(singular, 1.0, mag))[:, None, :]
    for row in np.flatnonzero(singular.any(axis=1)).tolist():
        rng.rekey(start + row)
        u[row] = sample_haar_unitary(n_levels, rng)
    return u


def batch_sample(method: str, spectrum: Spectrum, count: int, seed: int) -> StateBatch:
    """StateBatch of ``count`` states, record i drawn from stream (seed, i).

    The spectrum needs at least 2 levels; the coset method uses its ladder
    (``coset_ladder``). Record i depends neither on ``count`` nor on the
    ``block_records(N)`` blocks both methods build the states in, so a
    batch's first k records equal a count-k batch bit for bit. The tests
    compare each record with their oracle's (``sample_state_coset`` and
    ``sample_state_haar`` in ``tests/conftest.py``), built one by one.
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
    step = block_records(n)
    for start in range(0, count, step):
        stop = min(start + step, count)
        if method == "haar":
            unitaries = _haar_unitaries(rng, n, start, stop)
        else:
            unitaries = flag_unitaries(n, dims, _draw_charts(rng, dims, start, stop))
        # the basis of the unitary's ascending-ordered diagonal model, as in state_from_chart
        store_states(spectrum, unitaries[:, :, ::-1], matrices[start:stop], start)
    return StateBatch(method, seed, spectrum, matrices)
