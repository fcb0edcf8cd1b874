"""Closed-form volumes, spectral densities, and metric quantities for mixed states.

The distance notion throughout is the Bures one: its squared line element on
density matrices is

    dB^2 = (1/2) sum_jk |<j|drho|k>|^2 / (lambda_j + lambda_k)

in the eigenbasis of rho. The eigenvalue part of the corresponding volume
element carries the factor prod_{j<k} (lambda_j - lambda_k)^2 / (lambda_j +
lambda_k) over 2^(N-2) sqrt(lambda_1 ... lambda_N); the angular part is the
flag-manifold volume computed here in two common normalizations.

The state types come with their stacked twins: ``density_matrices`` is
``DensityMatrix.from_matrix`` (through the checked ``hermitian_eig``) over a
stack, and ``store_states`` is ``from_eigensystem``.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    InvalidStateError,
    NotHermitianError,
    RankDeficiencyError,
    ShapeError,
)

#: Absolute tolerance on the eigenvalue sum of a spectrum.
SPECTRUM_SUM_TOL = 1e-12

#: Eigenvalues this far below zero are rejected; anything in between is clamped.
NEGATIVE_EIGENVALUE_TOL = -1e-12

#: Absolute Hermiticity and reconstruction tolerances for stored states.
STATE_HERM_TOL = 1e-12
STATE_RECON_TOL = 1e-10

#: Eigenvalues at or below this count as zero.
DEGENERACY_TOL = 1e-12

#: Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Hermitian eigensystem: ascending eigenvalues, matching unit eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("matrix entries must be finite")
    return arr


def _not_hermitian(h: np.ndarray, floor: float = 0.0) -> bool:
    """Whether ``norm(h - h†) > HERMITICITY_RTOL * max(floor, norm(h))``.

    h and ``floor`` are scaled by one power of two, exactly, so that no norm overflows.
    """
    peak = max(np.abs(h.real).max(), np.abs(h.imag).max())
    scale = 2.0 ** -math.frexp(peak)[1] if peak > 1 else 1.0
    unit = h * scale
    return bool(np.linalg.norm(unit - unit.conj().T) > HERMITICITY_RTOL * max(floor * scale, np.linalg.norm(unit)))


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input must satisfy ``norm(h - h†) <= 1e-10 * norm(h)`` in Frobenius
    norm; the tiny antihermitian residue is symmetrized away before the solve.
    """
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ShapeError(f"eigendecomposition expects a square matrix, got {h.shape}")
    if _not_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian to working tolerance")
    # a huge finite entry may overflow here; the caller rejects non-finite eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (h + h.conj().T) / 2
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("eigenvalue iteration failed to converge") from exc
    return EigenDecomposition(w, v)


@dataclass(frozen=True, eq=False, slots=True)
class Spectrum:
    """Eigenvalues of a density matrix, stored in descending order.

    The constructor accepts the values in any order, checks that they are
    nonnegative (to NEGATIVE_EIGENVALUE_TOL) and sum to one, clamps any tiny
    negative rounding residue to zero, and sorts.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size < 1:
            raise ShapeError("a spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(values)):
            raise ShapeError("eigenvalues must be finite")
        if np.any(values < NEGATIVE_EIGENVALUE_TOL):
            raise InvalidStateError(f"negative eigenvalue {values.min():.6g}")
        with np.errstate(over="ignore"):  # a huge sum is inf, and fails
            total = values.sum()
        if abs(total - 1.0) > SPECTRUM_SUM_TOL:
            raise InvalidStateError(f"eigenvalues sum to {total:.17g}, not 1")
        values = np.sort(np.clip(values, 0.0, None))[::-1].copy()
        object.__setattr__(self, "values", values)

    @property
    def n_levels(self) -> int:
        return self.values.size

    def num_zero(self) -> int:
        """How many eigenvalues are zero to DEGENERACY_TOL."""
        return int(np.count_nonzero(self.values <= DEGENERACY_TOL))


@dataclass(frozen=True, eq=False, slots=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix with eigensystem attached.

    ``basis`` columns are unit eigenvectors ordered to match the descending
    ``spectrum``, so matrix = basis @ diag(spectrum.values) @ basis† up to
    STATE_RECON_TOL.
    """

    matrix: np.ndarray
    spectrum: Spectrum
    basis: np.ndarray

    def __post_init__(self):
        matrix = as_complex_matrix(self.matrix)
        basis = as_complex_matrix(self.basis)
        n = self.spectrum.n_levels
        if matrix.shape != (n, n) or basis.shape != (n, n):
            raise ShapeError(
                f"matrix {matrix.shape} and basis {basis.shape} must both be {(n, n)}"
            )
        # a huge finite entry may overflow a residual to inf, or to NaN (inf - inf in a
        # product): each test is written to fail on both
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.linalg.norm(matrix - matrix.conj().T) <= STATE_HERM_TOL:
                raise NotHermitianError("density matrix is not Hermitian to tolerance")
            tr = complex(np.trace(matrix))
            if not abs(tr - 1.0) <= STATE_HERM_TOL:
                raise InvalidStateError(f"trace is {tr.real:.17g}{tr.imag:+.3g}j, not 1")
            if not np.linalg.norm(basis.conj().T @ basis - np.eye(n)) <= STATE_RECON_TOL:
                raise InvalidStateError("eigenbasis is not unitary to tolerance")
            recon = (basis * self.spectrum.values) @ basis.conj().T
            if not np.linalg.norm(recon - matrix) <= STATE_RECON_TOL:
                raise InvalidStateError("matrix does not match its eigensystem")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        """Eigendecompose a raw matrix; ``hermitian_eig`` checks it is a finite square matrix."""
        eig = hermitian_eig(m)
        spectrum = Spectrum(eig.eigenvalues[::-1])
        return cls(m, spectrum, eig.eigenvectors[:, ::-1])

    @classmethod
    def from_eigensystem(cls, spectrum: Spectrum, basis) -> "DensityMatrix":
        """Assemble basis @ diag(spectrum.values) @ basis† from a unitary basis.

        Column j of ``basis`` is taken as the eigenvector of the j-th largest
        eigenvalue.
        """
        basis = as_complex_matrix(basis)
        raw = (basis * spectrum.values) @ basis.conj().T
        return cls((raw + raw.conj().T) / 2, spectrum, basis)

    @property
    def n_levels(self) -> int:
        return self.spectrum.n_levels


def _prechecked(cls, **columns) -> list:
    """Instances of a slotted frozen dataclass, one per row of the field ``columns``.

    Skips ``__post_init__``: the caller's block check has passed every row on
    every check that can fail (see ``density_matrices``), and re-running the
    checks record by record would cost most of what it saves. Each field is
    stored through its slot descriptor, which bypasses the frozen
    ``__setattr__`` as ``object.__setattr__`` does, one C-level ``map`` per
    field.
    """
    count = len(next(iter(columns.values())))
    objs = list(map(object.__new__, itertools.repeat(cls, count)))
    for name, column in columns.items():
        list(map(getattr(cls, name).__set__, objs, column))
    return objs


def raise_first_failure(checks, start: int) -> None:
    """Raise for the first record that fails any check, with the first check it fails.

    ``checks`` are (failing rows, error class, message) triples in the order
    the per-record constructors run them, so the error is the one building
    the records one by one would raise first. Rows count from ``start``.
    """
    failing = np.logical_or.reduce([rows for rows, _, _ in checks])
    if failing.any():
        row = int(np.argmax(failing))
        error, message = next((error, message) for rows, error, message in checks if rows[row])
        raise error(f"record {start + row}: {message}")


def density_matrices(matrices: np.ndarray, start: int = 0, after=()) -> list:
    """``DensityMatrix.from_matrix`` of every matrix in a (count, N, N) stack.

    One stacked eigh runs on (h + h†)/2, the recipe of ``hermitian_eig``, so
    spectra and bases equal the per-matrix path bit for bit. The checks of
    ``hermitian_eig``, ``Spectrum`` and ``DensityMatrix`` on the matrices' own
    numbers run vectorized against the same tolerances, followed by the
    caller's ``after`` triples (see ``raise_first_failure``); the first failing
    record is named, counting from ``start``. One finiteness mask and one norm
    of h - h† serve every finiteness and Hermiticity row, except that a matrix
    with a part above 1, whose norms may overflow, takes ``hermitian_eig``'s
    scaled relative test. ``DensityMatrix``'s rows on eigh's own output are
    left out: Hermitian eigh is backward stable, so its basis is unitary to
    rounding, and the reconstruction misses h by at most the clipped
    eigenvalues in [-1e-12, 0), sqrt(N - 1) * 1e-12, plus half the skew,
    0.5e-12, which is below STATE_RECON_TOL for N < 9,900.
    """
    finite = np.isfinite(matrices).all(axis=(1, 2))
    # non-finite rows fail the first check; zeros keep them out of LAPACK
    h = matrices if finite.all() else np.where(finite[:, None, None], matrices, 0.0)
    # a huge finite cell may overflow the norms, sums and symmetrization, and the inf
    # then makes NaN parts; its row fails a check all the same (skew is never NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        # h† becomes the eigh input (h + h†)/2 in place, the block's one temporary stack
        sym = h.conj().transpose(0, 2, 1)
        skew = np.linalg.norm(h - sym, axis=(1, 2))
        not_hermitian = skew > HERMITICITY_RTOL * np.linalg.norm(h, axis=(1, 2))
        peak = np.maximum(np.abs(h.real).max(axis=(1, 2)), np.abs(h.imag).max(axis=(1, 2)))
        for row in np.flatnonzero(peak > 1).tolist():
            not_hermitian[row] = _not_hermitian(h[row])
        sym += h
        sym /= 2
        try:
            w, v = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"records {start}-{start + len(h) - 1}: eigenvalue iteration failed to converge"
            ) from exc
        del sym
        w = np.ascontiguousarray(w[:, ::-1])
        checks = [
            (~finite, ShapeError, "matrix entries must be finite"),
            (not_hermitian, NotHermitianError, "matrix is not Hermitian to working tolerance"),
            (~np.isfinite(w).all(axis=1), ShapeError, "eigenvalues must be finite"),
            ((w < NEGATIVE_EIGENVALUE_TOL).any(axis=1), InvalidStateError, "negative eigenvalue"),
            (np.abs(w.sum(axis=1) - 1.0) > SPECTRUM_SUM_TOL, InvalidStateError, "eigenvalues do not sum to 1"),
            (skew > STATE_HERM_TOL, NotHermitianError, "density matrix is not Hermitian to tolerance"),
            # the one row that sees Im tr rho, which can pass 1e-12 while both Hermiticity rows pass
            (np.abs(np.trace(h, axis1=1, axis2=2) - 1.0) > STATE_HERM_TOL, InvalidStateError, "trace is not 1"),
        ]
    values = np.sort(np.clip(w, 0.0, None), axis=1)[:, ::-1].copy()
    raise_first_failure(checks + list(after), start)
    spectra = _prechecked(Spectrum, values=values)
    return _prechecked(DensityMatrix, matrix=matrices, spectrum=spectra, basis=v[:, :, ::-1])


def store_states(spectrum: Spectrum, bases: np.ndarray, out: np.ndarray, start: int) -> None:
    """``DensityMatrix.from_eigensystem`` of every basis in a (count, N, N) stack, written into ``out``.

    raw = (basis * values) basis†, and the stored state is (raw + raw†)/2,
    Hermitian bit for bit, as in ``from_eigensystem``. The trace (to
    STATE_HERM_TOL) and ‖basis† basis − I‖ (to STATE_RECON_TOL) are tested
    as ``DensityMatrix`` tests them, so a NaN residual fails, naming the
    first failing record counting from ``start``. Once the basis is unitary
    the reconstruction residual ‖raw − (raw + raw†)/2‖ is rounding-level, so
    it is not tested; finiteness and exact Hermiticity are left to the
    caller's stack check.
    """
    bases_h = bases.conj().transpose(0, 2, 1)
    raw = (bases * spectrum.values) @ bases_h
    np.add(raw, raw.conj().transpose(0, 2, 1), out=out)
    out /= 2
    del raw
    unitary = np.linalg.norm(bases_h @ bases - np.eye(out.shape[-1]), axis=(1, 2))
    checks = [
        (~(np.abs(np.trace(out, axis1=1, axis2=2) - 1.0) <= STATE_HERM_TOL), InvalidStateError, "trace is not 1"),
        (~(unitary <= STATE_RECON_TOL), InvalidStateError, "eigenbasis is not unitary to tolerance"),
    ]
    raise_first_failure(checks, start)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: 2 pi^(n/2) / (n Gamma(n/2))."""
    if n < 1:
        raise ValueError("ball dimension must be a positive integer")
    return 2.0 * math.pi ** (n / 2.0) / (n * math.gamma(n / 2.0))


def _log_flag_volume(n_levels: int, pair_angle: float) -> float:
    """log of pair_angle^(N(N-1)/2) / prod_{j<=N} Gamma(j), summed in log space.

    The Gamma product alone overflows a double from N=28 although the volumes
    stay normal doubles up to N=36.
    """
    if n_levels < 2:
        raise ShapeError("flag volumes need at least 2 levels")
    log_gammas = math.fsum(math.lgamma(j) for j in range(1, n_levels + 1))
    return n_levels * (n_levels - 1) / 2.0 * math.log(pair_angle) - log_gammas


def flag_volume(n_levels: int) -> float:
    """Volume of the full flag manifold of C^N: pi^(N(N-1)/2) / prod_{j<=N} Gamma(j).

    Equals the product of the even ball volumes Vol(B^2) ... Vol(B^(2(N-1))),
    which is how the layered coset construction reproduces it.
    """
    return math.exp(_log_flag_volume(n_levels, math.pi))


def flag_volume_sz(n_levels: int) -> float:
    """Flag-manifold volume in the 2 pi per pair normalization used in tabulations.

    Exceeds ``flag_volume`` by 2^(N(N-1)/2).
    """
    return math.exp(_log_flag_volume(n_levels, 2.0 * math.pi))


def lambda_factor(lam_j: float, lam_k: float) -> float:
    """Eigenvalue-pair weight (lam_j - lam_k)^2 / (lam_j + lam_k)."""
    if lam_j < 0 or lam_k < 0:
        raise ValueError("eigenvalues must be nonnegative")
    if lam_j + lam_k <= 0:
        raise DegenerateSpectrumError("both eigenvalues vanish; pair weight undefined")
    return (lam_j - lam_k) ** 2 / (lam_j + lam_k)


def eigenvalue_density(spectrum: Spectrum) -> float:
    """Unnormalized eigenvalue density of the Bures volume element.

    prod_{j<k} lambda_factor over 2^(N-2) sqrt(prod lambda). Defined for full
    rank spectra only; a repeated eigenvalue gives exactly 0.
    """
    vals = spectrum.values
    n = vals.size
    if n < 2:
        raise ShapeError("eigenvalue density needs at least 2 levels")
    if np.any(vals <= 0.0):
        raise DegenerateSpectrumError("zero eigenvalue makes the density singular")
    prod = 1.0
    for j in range(n):
        for k in range(j + 1, n):
            prod *= lambda_factor(vals[j], vals[k])
    return prod / (2.0 ** (n - 2) * math.sqrt(math.prod(vals.tolist())))


def bures_quadratic(rho: DensityMatrix, drho) -> float:
    """Squared Bures line element (1/2) sum |<j|drho|k>|^2 / (lambda_j + lambda_k).

    ``drho`` is a Hermitian perturbation (by ``hermitian_eig``'s overflow-safe
    test, with a floor of 1) in the same basis as ``rho.matrix``; it is
    rotated into the eigenbasis internally. Terms with lambda_j + lambda_k
    below 1e-14 are dropped when their numerator vanishes (perturbation
    tangent to the rank surface) and rejected otherwise; an overflow gives inf.
    """
    drho = as_complex_matrix(drho)
    n = rho.n_levels
    if drho.shape != (n, n):
        raise ShapeError(f"perturbation shape {drho.shape} does not match {(n, n)}")
    if _not_hermitian(drho, floor=1.0):
        raise NotHermitianError("perturbation must be Hermitian")
    m = rho.basis.conj().T @ drho @ rho.basis
    lam = rho.spectrum.values
    denom = lam[:, None] + lam[None, :]
    tiny = denom < 1e-14
    with np.errstate(over="ignore"):  # a huge drho squares to inf
        amp2 = np.abs(m) ** 2
        if np.any(amp2[tiny] >= 1e-24):
            raise RankDeficiencyError("perturbation pushes off the kernel; line element diverges")
        safe = np.where(tiny, 1.0, denom)
        return float(0.5 * np.sum(np.where(tiny, 0.0, amp2 / safe)))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1]."""
    if rho.n_levels != sigma.n_levels:
        raise ShapeError(f"dimension mismatch: {rho.n_levels} vs {sigma.n_levels}")
    root = (rho.basis * np.sqrt(rho.spectrum.values)) @ rho.basis.conj().T
    inner = root @ sigma.matrix @ root
    eig = hermitian_eig((inner + inner.conj().T) / 2)
    vals = eig.eigenvalues
    if np.any(vals < NEGATIVE_EIGENVALUE_TOL):
        raise InvalidStateError(f"product operator has eigenvalue {vals.min():.6g} < 0")
    total = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    return min(max(total, 0.0), 1.0)
