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

from .errors import NonFiniteError, ShapeMismatchError, ZeroMatrixError
from .matrix import DenseMatrix, _exact_sum

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


def _shares(x: DenseMatrix) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Exact sums of x^2 and |x|, and the per-cell shares x^2 / sum x^2 (L2)
    and |x| / sum |x| (L1) that every distribution and certificate is built
    from. Refuses the zero matrix, and a nonzero one whose squares underflow
    to 0 or overflow to inf, where no share is defined."""
    flat = x.flat()
    with np.errstate(over="ignore"):  # an inf square is refused below
        sq = flat * flat
    ab = np.abs(flat)
    sum_sq, abs_sum = _exact_sum(sq), _exact_sum(ab)
    if abs_sum == 0.0:
        raise ZeroMatrixError("sampling distributions and bounds are undefined for the zero matrix")
    if not 0.0 < sum_sq < math.inf:
        raise NonFiniteError(
            f"the squared entries sum to {sum_sq!r} (largest |x| is {float(ab.max())!r}), "
            "outside float range; rescale the matrix"
        )
    return sum_sq, abs_sum, sq / sum_sq, ab / abs_sum


def _certificate(flat: np.ndarray, p: np.ndarray, hybrid: np.ndarray) -> float:
    mask = flat != 0.0
    return float(min(1.0, (p[mask] / hybrid[mask]).min()))


def _distributions(x: DenseMatrix, kinds, l2: np.ndarray, l1: np.ndarray) -> tuple:
    """One distribution per kind, in order, from the shares of ``_shares``.
    The hybrid is their average, and the L1/L2 certificates divide by it."""
    hybrid = 0.5 * (l2 + l1)
    out = []
    for kind in map(DistributionKind, kinds):
        if kind is DistributionKind.HYBRID:
            out.append(SamplingDistribution(x.m, x.n, hybrid, kind, 1.0))
        elif kind is DistributionKind.CUSTOM:
            raise ValueError("custom distributions must be built via custom_distribution")
        else:
            probs = l2 if kind is DistributionKind.PURE_L2 else l1
            out.append(SamplingDistribution(x.m, x.n, probs, kind, _certificate(x.flat(), probs, hybrid)))
    return tuple(out)


def l2_distribution(x: DenseMatrix) -> SamplingDistribution:
    """p_ij proportional to x_ij^2 (squared-entry baseline)."""
    return distribution_for_kind(x, DistributionKind.PURE_L2)


def l1_distribution(x: DenseMatrix) -> SamplingDistribution:
    """p_ij proportional to |x_ij| (absolute-entry baseline)."""
    return distribution_for_kind(x, DistributionKind.PURE_L1)


def hybrid_distribution(x: DenseMatrix) -> SamplingDistribution:
    """Entry-wise average of the L2 and L1 distributions; certificate is 1."""
    return distribution_for_kind(x, DistributionKind.HYBRID)


def custom_distribution(x: DenseMatrix, probs: np.ndarray) -> SamplingDistribution:
    """Wrap a user-supplied probability table; beta is computed, not trusted."""
    beta = beta_certificate(x, probs)
    return SamplingDistribution(x.m, x.n, probs, DistributionKind.CUSTOM, beta)


def distribution_for_kind(x: DenseMatrix, kind) -> SamplingDistribution:
    _, _, l2, l1 = _shares(x)
    return _distributions(x, (kind,), l2, l1)[0]


def beta_certificate(x: DenseMatrix, probs: np.ndarray) -> float:
    """Largest beta in (0, 1] for which the per-cell lower bound holds.

    Returns 0.0 when some nonzero cell has zero probability (the bound fails
    for every beta > 0). Cells where x_ij = 0 impose no constraint and are
    excluded from the minimum.
    """
    _, _, l2, l1 = _shares(x)
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    if p.shape[0] != x.m * x.n:
        raise ShapeMismatchError(f"expected {x.m * x.n} probabilities, got {p.shape[0]}")
    return _certificate(x.flat(), p, 0.5 * (l2 + l1))
