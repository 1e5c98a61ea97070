"""Cell-sampling distributions over matrix entries and their beta certificates.

The hybrid builder averages the squared-entry (L2) and absolute-entry (L1)
distributions, which is the smallest distribution satisfying the per-cell
lower bound p_ij >= (beta/2) * (x_ij^2/||X||_F^2 + |x_ij|/sum|X|) with
beta = 1. ``beta_certificate`` computes the largest admissible beta in (0, 1]
for an arbitrary distribution, so downstream sample-size formulas never trust
a user-supplied beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeMismatchError, ZeroMatrixError
from .matrix import DenseMatrix, entry_abs_sum, frobenius_norm

__all__ = [
    "DistributionKind",
    "SamplingDistribution",
    "hybrid_distribution",
    "l2_distribution",
    "l1_distribution",
    "custom_distribution",
    "distribution_for_kind",
    "beta_certificate",
]

_SUM_TOL = 1e-12


class DistributionKind(str, Enum):
    HYBRID = "hybrid"
    PURE_L2 = "l2"
    PURE_L1 = "l1"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Probability table over the mn cells (row-major, aligned with
    DenseMatrix), tagged with how it was built and its beta certificate."""

    m: int
    n: int
    probs: np.ndarray
    kind: DistributionKind
    beta: float

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64).reshape(-1)
        if p.shape[0] != self.m * self.n:
            raise ShapeMismatchError(
                f"expected {self.m * self.n} probabilities, got {p.shape[0]}"
            )
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and nonnegative")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {_SUM_TOL}, got {total!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta certificate must lie in [0, 1], got {self.beta!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "kind", DistributionKind(self.kind))

    def grid(self) -> np.ndarray:
        """Probabilities reshaped to (m, n)."""
        return self.probs.reshape(self.m, self.n)

    def transpose(self) -> "SamplingDistribution":
        return SamplingDistribution(
            self.n, self.m, np.ascontiguousarray(self.grid().T).reshape(-1), self.kind, self.beta
        )


def _require_nonzero(x: DenseMatrix) -> np.ndarray:
    flat = x.flat()
    if not np.any(flat):
        raise ZeroMatrixError("sampling distribution is undefined for the zero matrix")
    return flat


def _l2_probs(flat: np.ndarray) -> np.ndarray:
    sq = flat * flat
    return sq / math.fsum(sq.tolist())


def _l1_probs(flat: np.ndarray) -> np.ndarray:
    ab = np.abs(flat)
    return ab / math.fsum(ab.tolist())


def l2_distribution(x: DenseMatrix) -> SamplingDistribution:
    """p_ij proportional to x_ij^2 (squared-entry baseline)."""
    flat = _require_nonzero(x)
    probs = _l2_probs(flat)
    beta = beta_certificate(x, probs)
    return SamplingDistribution(x.m, x.n, probs, DistributionKind.PURE_L2, beta)


def l1_distribution(x: DenseMatrix) -> SamplingDistribution:
    """p_ij proportional to |x_ij| (absolute-entry baseline)."""
    flat = _require_nonzero(x)
    probs = _l1_probs(flat)
    beta = beta_certificate(x, probs)
    return SamplingDistribution(x.m, x.n, probs, DistributionKind.PURE_L1, beta)


def hybrid_distribution(x: DenseMatrix) -> SamplingDistribution:
    """Entry-wise average of the L2 and L1 distributions; certificate is 1."""
    flat = _require_nonzero(x)
    probs = 0.5 * (_l2_probs(flat) + _l1_probs(flat))
    return SamplingDistribution(x.m, x.n, probs, DistributionKind.HYBRID, 1.0)


def custom_distribution(x: DenseMatrix, probs: np.ndarray) -> SamplingDistribution:
    """Wrap a user-supplied probability table; beta is computed, not trusted."""
    beta = beta_certificate(x, probs)
    return SamplingDistribution(x.m, x.n, probs, DistributionKind.CUSTOM, beta)


def distribution_for_kind(x: DenseMatrix, kind) -> SamplingDistribution:
    kind = DistributionKind(kind)
    if kind is DistributionKind.HYBRID:
        return hybrid_distribution(x)
    if kind is DistributionKind.PURE_L2:
        return l2_distribution(x)
    if kind is DistributionKind.PURE_L1:
        return l1_distribution(x)
    raise ValueError("custom distributions must be built via custom_distribution")


def beta_certificate(x: DenseMatrix, probs: np.ndarray) -> float:
    """Largest beta in (0, 1] for which the per-cell lower bound holds.

    Returns 0.0 when some nonzero cell has zero probability (the bound fails
    for every beta > 0). Cells where x_ij = 0 impose no constraint and are
    excluded from the minimum.
    """
    flat = _require_nonzero(x)
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    if p.shape[0] != flat.shape[0]:
        raise ShapeMismatchError(f"expected {flat.shape[0]} probabilities, got {p.shape[0]}")
    lower = 0.5 * (_l2_probs(flat) + _l1_probs(flat))
    mask = flat != 0.0
    ratios = p[mask] / lower[mask]
    return float(min(1.0, ratios.min()))


def support_mask(d: SamplingDistribution) -> np.ndarray:
    """Boolean (m, n) grid of cells with positive probability."""
    return d.grid() > 0.0
