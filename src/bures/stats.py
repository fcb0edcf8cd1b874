"""Empirical distribution comparison: two-sample KS, quantile pairing."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

#: Asymptotic two-sample Kolmogorov-Smirnov coefficient at the 1% level.
KS_COEFF_001 = 1.628


def _as_samples(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ValueError(f"{name} must contain at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS statistic with the asymptotic 1% decision attached."""

    statistic: float
    n: int
    m: int

    @property
    def critical_001(self) -> float:
        return KS_COEFF_001 * math.sqrt((self.n + self.m) / (self.n * self.m))

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_001


def ks_two_sample(a, b) -> KsResult:
    """Supremum distance between the two empirical CDFs.

    Evaluated by a merge scan over the pooled sample points, which handles
    ties exactly (both CDFs are compared right of every jump).
    """
    a = np.sort(_as_samples(a, "a"))
    b = np.sort(_as_samples(b, "b"))
    pool = np.concatenate([a, b])
    fa = np.searchsorted(a, pool, side="right") / a.size
    fb = np.searchsorted(b, pool, side="right") / b.size
    return KsResult(float(np.max(np.abs(fa - fb))), a.size, b.size)


def cumulative_pairs(a, b) -> np.ndarray:
    """Quantile-quantile pairs (sorted a_i, sorted b_i) as an (n, 2) array.

    Both samples must have the same length; the pairs trace the QQ curve and
    fall on the diagonal exactly when the samples are order-isomorphic.
    """
    a = _as_samples(a, "a")
    b = _as_samples(b, "b")
    if a.size != b.size:
        raise ShapeError(f"sample sizes differ: {a.size} vs {b.size}")
    return np.column_stack([np.sort(a), np.sort(b)])
