"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion. Every criterion states its tolerance inline; the statistical ones
use fixed seeds so the whole suite is reproducible.
"""

import math

import numpy as np
import pytest

from bures.cli import write_records_csv
from bures.coset import BallPoint, coset_jacobian_det, euler_coset_volume
from bures.measures import (
    DensityMatrix,
    Spectrum,
    ball_volume,
    bures_quadratic,
    fidelity,
    flag_volume,
    flag_volume_sz,
)
from bures.sampling import (
    RngStream,
    batch_sample,
    coset_ladder,
    sample_haar_unitary,
    sample_interior_point,
)
from bures.stats import cumulative_pairs, ks_two_sample

from conftest import one_sample_ks, random_hermitian

REF_SPECTRUM = Spectrum([0.5, 0.375, 0.125])


def verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def diag_column(batch, j):
    return batch.diagonals[:, j - 1]


def test_c1_volume_identities():
    """Ball, flag, and rescaled flag volumes agree with their closed forms."""
    ok = (
        abs(ball_volume(2) - math.pi) < 1e-12 * math.pi
        and abs(ball_volume(4) - math.pi**2 / 2) < 1e-12 * math.pi**2
        and abs(ball_volume(6) - math.pi**3 / 6) < 1e-12 * math.pi**3
    )
    for n_levels in range(2, 9):
        product = math.prod(ball_volume(2 * k) for k in range(1, n_levels))
        flag = flag_volume(n_levels)
        ok = ok and abs(flag - product) <= 1e-12 * flag
        ratio = flag_volume_sz(n_levels) / flag
        ok = ok and abs(ratio - 2.0 ** (n_levels * (n_levels - 1) / 2)) <= 1e-12 * ratio
    verdict("c1 volume identities", ok, "N = 2..8, relative 1e-12")


def test_c2_unit_jacobian():
    """det J = 1 across the interior of every ball layer, step 1e-5."""
    ok = coset_jacobian_det(BallPoint.zero(2)) == 1.0
    worst = 0.0
    for n in (1, 2, 3, 4):
        rng = RngStream(7, n)
        for _ in range(100):
            point = sample_interior_point(2 * n, rng)
            worst = max(worst, abs(coset_jacobian_det(point, 1e-5) - 1.0))
    ok = ok and worst < 1e-4
    verdict("c2 unit jacobian", ok, f"max |det J - 1| = {worst:.2e}, bound 1e-4")


def test_c3_euler_volume_quadrature():
    """Euler-angle density integrates to Vol(B^4)."""
    rel = abs(euler_coset_volume() - ball_volume(4)) / ball_volume(4)
    verdict("c3 euler volume quadrature", rel < 1e-9, f"relative error {rel:.2e}")


def test_c4_method_equivalence_three_levels():
    """(rho)_33 for spectrum (1/2, 3/8, 1/8): coset vs haar at n = m = 1000."""
    passes = 0
    for rep in range(100):
        haar = batch_sample("haar", REF_SPECTRUM, 1000, 2 * rep)
        coset = batch_sample("coset", REF_SPECTRUM, 1000, 2 * rep + 1)
        result = ks_two_sample(diag_column(haar, 3), diag_column(coset, 3))
        passes += result.passed
    haar = batch_sample("haar", REF_SPECTRUM, 1000, 0)
    coset = batch_sample("coset", REF_SPECTRUM, 1000, 1)
    pairs = cumulative_pairs(diag_column(haar, 3), diag_column(coset, 3))
    sup_dev = float(np.max(np.abs(pairs[:, 0] - pairs[:, 1])))
    ok = passes >= 95 and sup_dev < 0.073
    verdict(
        "c4 three-level equivalence",
        ok,
        f"{passes}/100 reps under D = 0.0728, QQ sup dev {sup_dev:.4f}",
    )


def test_c5_method_equivalence_larger_systems():
    """Every diagonal matches between methods at N = 4 and N = 5."""
    cases = [
        (Spectrum([0.4, 0.3, 0.2, 0.1]), 50, 51),
        (Spectrum([0.35, 0.25, 0.2, 0.15, 0.05]), 52, 53),
    ]
    ok = True
    worst = 0.0
    for spectrum, seed_h, seed_c in cases:
        haar = batch_sample("haar", spectrum, 1000, seed_h)
        coset = batch_sample("coset", spectrum, 1000, seed_c)
        for j in range(1, spectrum.n_levels + 1):
            result = ks_two_sample(diag_column(haar, j), diag_column(coset, j))
            ok = ok and result.passed
            worst = max(worst, result.statistic)
    verdict(
        "c5 four- and five-level equivalence",
        ok,
        f"9 diagonals, worst D = {worst:.4f} vs 0.0728",
    )


def test_c6_degenerate_ladders():
    """Zero blocks select the reduced ladders and keep the right statistics."""
    ok = coset_ladder(Spectrum([1.0, 0.0, 0.0])) == (4,)
    ok = ok and coset_ladder(Spectrum([0.7, 0.3, 0.0, 0.0])) == (4, 6)

    # rank-one three-level states: analytic marginal CDF 1 - (1-t)^2
    pure = batch_sample("coset", Spectrum([1.0, 0.0, 0.0]), 1000, 23)
    stat_pure = one_sample_ks(diag_column(pure, 3), lambda t: 1.0 - (1.0 - t) ** 2)
    ok = ok and stat_pure < 1.6276 / math.sqrt(1000)

    # rank-two four-level spectrum: spectrum preserved, diagonals match haar
    sdeg = Spectrum([0.7, 0.3, 0.0, 0.0])
    coset = batch_sample("coset", sdeg, 1000, 54)
    haar = batch_sample("haar", sdeg, 1000, 55)
    for matrix in coset.matrices[:25]:
        eigs = np.linalg.eigvalsh(matrix)[::-1]
        ok = ok and np.allclose(eigs, sdeg.values, atol=1e-12)
    for j in range(1, 5):
        ok = ok and ks_two_sample(diag_column(haar, j), diag_column(coset, j)).passed
    verdict(
        "c6 degenerate ladders",
        ok,
        f"pure-state KS {stat_pure:.4f} vs {1.6276 / math.sqrt(1000):.4f}",
    )


def test_c7_metric_closed_forms():
    """Quadratic form reproduces closed forms and the fidelity expansion."""
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.375, 0.125]))
    eps = 1e-3
    diag_form = bures_quadratic(rho, np.diag([0.0, eps, -eps]))
    ok = abs(diag_form - 8.0 / 3.0 * eps**2) <= 1e-12 * diag_form
    off = np.zeros((3, 3), dtype=complex)
    off[1, 2] = off[2, 1] = eps
    off_form = bures_quadratic(rho, off)
    ok = ok and abs(off_form - eps**2 / 0.5) <= 1e-12 * off_form

    h = random_hermitian(np.random.default_rng(71), 3)
    h -= np.trace(h).real * np.eye(3) / 3
    h /= np.linalg.norm(h)

    def gap(eps):
        quad = bures_quadratic(rho, eps * h)
        shifted = DensityMatrix.from_matrix(rho.matrix + eps * h)
        return abs(2.0 * (1.0 - math.sqrt(fidelity(rho, shifted))) - quad) / quad

    g1 = gap(1e-4)
    g2 = gap(5e-5)
    ok = ok and g1 < 1e-3 and g2 < g1
    verdict(
        "c7 metric closed forms",
        ok,
        f"fidelity expansion gap {g1:.2e} -> {g2:.2e} on halving",
    )


def test_c8_haar_sampler_quality():
    """Unitarity, the Beta entry marginal, and left invariance."""
    rng = RngStream(81)
    worst_unitarity = 0.0
    for _ in range(1000):
        u = sample_haar_unitary(4, rng)
        worst_unitarity = max(worst_unitarity, np.linalg.norm(u.conj().T @ u - np.eye(4)))
    ok = worst_unitarity < 1e-12

    rng = RngStream(82)
    entries = [abs(sample_haar_unitary(4, rng)[0, 0]) ** 2 for _ in range(10000)]
    stat = one_sample_ks(entries, lambda t: 1.0 - (1.0 - t) ** 3)
    ok = ok and stat < 0.02

    fixed, _ = np.linalg.qr(RngStream(83).complex_normal((4, 4)))
    rng_a, rng_b = RngStream(84), RngStream(85)
    plain = [sample_haar_unitary(4, rng_a)[0, 0].real for _ in range(1000)]
    pushed = [(fixed @ sample_haar_unitary(4, rng_b))[0, 0].real for _ in range(1000)]
    ok = ok and ks_two_sample(plain, pushed).passed
    verdict(
        "c8 haar sampler",
        ok,
        f"unitarity {worst_unitarity:.1e}, entry-law KS {stat:.4f}",
    )


def test_c9_reproducibility(tmp_path):
    """Identical seeds give byte-identical output; different seeds differ."""
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    write_records_csv(batch_sample("coset", REF_SPECTRUM, 50, 11), a)
    write_records_csv(batch_sample("coset", REF_SPECTRUM, 50, 11), b)
    write_records_csv(batch_sample("coset", REF_SPECTRUM, 50, 12), c)
    same = a.read_bytes() == b.read_bytes()
    different = a.read_bytes() != c.read_bytes()
    verdict("c9 reproducibility", same and different, "CSV bytes compared")
