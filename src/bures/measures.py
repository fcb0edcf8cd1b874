"""Closed-form volumes, spectral densities, and metric quantities for mixed states.

The distance notion throughout is the Bures one: its squared line element on
density matrices is

    dB^2 = (1/2) sum_jk |<j|drho|k>|^2 / (lambda_j + lambda_k)

in the eigenbasis of rho. The eigenvalue part of the corresponding volume
element carries the factor prod_{j<k} (lambda_j - lambda_k)^2 / (lambda_j +
lambda_k) over 2^(N-2) sqrt(lambda_1 ... lambda_N); the angular part is the
flag-manifold volume computed here in two common normalizations.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    InvalidStateError,
    NotHermitianError,
    RankDeficiencyError,
    ShapeError,
)
from .linalg import HERMITICITY_RTOL, as_complex_matrix, hermitian_eig

#: Absolute tolerance on the eigenvalue sum of a spectrum.
SPECTRUM_SUM_TOL = 1e-12

#: Eigenvalues this far below zero are rejected; anything in between is clamped.
NEGATIVE_EIGENVALUE_TOL = -1e-12

#: Absolute Hermiticity and reconstruction tolerances for stored states.
STATE_HERM_TOL = 1e-12
STATE_RECON_TOL = 1e-10

#: Eigenvalues at or below this count as zero.
DEGENERACY_TOL = 1e-12


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
        if abs(values.sum() - 1.0) > SPECTRUM_SUM_TOL:
            raise InvalidStateError(f"eigenvalues sum to {values.sum():.17g}, not 1")
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
        if np.linalg.norm(matrix - matrix.conj().T) > STATE_HERM_TOL:
            raise NotHermitianError("density matrix is not Hermitian to tolerance")
        tr = complex(np.trace(matrix))
        if abs(tr - 1.0) > STATE_HERM_TOL:
            raise InvalidStateError(f"trace is {tr.real:.17g}{tr.imag:+.3g}j, not 1")
        if np.linalg.norm(basis.conj().T @ basis - np.eye(n)) > STATE_RECON_TOL:
            raise InvalidStateError("eigenbasis is not unitary to tolerance")
        recon = (basis * self.spectrum.values) @ basis.conj().T
        if np.linalg.norm(recon - matrix) > STATE_RECON_TOL:
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

    Skips ``__post_init__``: the caller's block check has passed every row,
    and re-running the per-record checks would repeat it record by record,
    which costs most of what it saves. Each field is stored through its slot
    descriptor, which bypasses the frozen ``__setattr__`` as
    ``object.__setattr__`` does, one C-level ``map`` per field.
    """
    count = len(next(iter(columns.values())))
    objs = list(map(object.__new__, itertools.repeat(cls, count)))
    for name, column in columns.items():
        list(map(getattr(cls, name).__set__, objs, column))
    return objs


def state_checks(matrices: np.ndarray, values: np.ndarray, basis: np.ndarray, recon=None) -> list:
    """``DensityMatrix``'s eigensystem rows for a (count, N, N) stack of states, vectorized.

    ``values`` holds the descending eigenvalues, shared (N,) or per state
    (count, N), and ``basis`` the matching eigenvector columns; ``recon``,
    if the caller has it, is (basis * values) basis†. Returns (failing rows,
    error class, message) triples for the trace, the unitarity of the basis
    and the reconstruction, in the order ``DensityMatrix.__post_init__``
    checks them, against the same tolerances, for ``raise_first_failure``.
    These are the residuals a sampler's arithmetic can get wrong; finiteness
    and Hermiticity are checked once by each caller (``density_matrices``,
    ``StateBatch``).
    """
    n = matrices.shape[-1]
    basis_h = basis.conj().transpose(0, 2, 1)
    # before recon exists, so that the two rows' temporaries are never live together
    unitary = np.linalg.norm(basis_h @ basis - np.eye(n), axis=(1, 2)) > STATE_RECON_TOL
    if recon is None:
        recon = (basis * values[..., None, :]) @ basis_h
    return [
        (np.abs(np.trace(matrices, axis1=1, axis2=2) - 1.0) > STATE_HERM_TOL, InvalidStateError, "trace is not 1"),
        (unitary, InvalidStateError, "eigenbasis is not unitary to tolerance"),
        (
            np.linalg.norm(recon - matrices, axis=(1, 2)) > STATE_RECON_TOL,
            InvalidStateError,
            "matrix does not match its eigensystem",
        ),
    ]


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
    ``hermitian_eig``, ``Spectrum`` and ``DensityMatrix`` run vectorized
    against the same tolerances, followed by the caller's ``after`` triples
    (see ``raise_first_failure``); the first failing record is named, counting
    from ``start``. The stack gets one finiteness mask, and one norm of
    h - h† serves both Hermiticity tolerances: ``hermitian_eig``'s relative
    one and ``DensityMatrix``'s absolute one.
    """
    finite = np.isfinite(matrices).all(axis=(1, 2))
    # non-finite rows fail the first check; zeros keep them out of LAPACK
    h = matrices if finite.all() else np.where(finite[:, None, None], matrices, 0.0)
    # h† becomes the eigh input (h + h†)/2 in place, the block's one temporary stack
    sym = h.conj().transpose(0, 2, 1)
    skew = np.linalg.norm(h - sym, axis=(1, 2))
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
    basis = v[:, :, ::-1]
    checks = [
        (~finite, ShapeError, "matrix entries must be finite"),
        (
            skew > HERMITICITY_RTOL * np.linalg.norm(h, axis=(1, 2)),
            NotHermitianError,
            "matrix is not Hermitian to working tolerance",
        ),
        (~np.isfinite(w).all(axis=1), ShapeError, "eigenvalues must be finite"),
        ((w < NEGATIVE_EIGENVALUE_TOL).any(axis=1), InvalidStateError, "negative eigenvalue"),
        (np.abs(w.sum(axis=1) - 1.0) > SPECTRUM_SUM_TOL, InvalidStateError, "eigenvalues do not sum to 1"),
        # DensityMatrix's own rows before its eigensystem rows
        (~np.isfinite(basis).all(axis=(1, 2)), ShapeError, "matrix entries must be finite"),
        (skew > STATE_HERM_TOL, NotHermitianError, "density matrix is not Hermitian to tolerance"),
    ]
    values = np.sort(np.clip(w, 0.0, None), axis=1)[:, ::-1].copy()
    raise_first_failure(checks + state_checks(h, values, basis) + list(after), start)
    return _prechecked(DensityMatrix, matrix=matrices, spectrum=_prechecked(Spectrum, values=values), basis=basis)


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

    ``drho`` is a Hermitian perturbation expressed in the same basis as
    ``rho.matrix``; it is rotated into the eigenbasis internally. Terms with
    lambda_j + lambda_k below 1e-14 are dropped when their numerator vanishes
    (perturbation tangent to the rank surface) and rejected otherwise.
    """
    drho = as_complex_matrix(drho)
    n = rho.n_levels
    if drho.shape != (n, n):
        raise ShapeError(f"perturbation shape {drho.shape} does not match {(n, n)}")
    scale = max(1.0, float(np.linalg.norm(drho)))
    if np.linalg.norm(drho - drho.conj().T) > 1e-10 * scale:
        raise NotHermitianError("perturbation must be Hermitian")
    m = rho.basis.conj().T @ drho @ rho.basis
    lam = rho.spectrum.values
    denom = lam[:, None] + lam[None, :]
    amp2 = np.abs(m) ** 2
    tiny = denom < 1e-14
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
