"""Cell-sampling distributions over matrix entries and their beta certificates.

The hybrid builder averages the squared-entry (L2) and absolute-entry (L1)
distributions, which is the smallest distribution satisfying the per-cell
lower bound p_ij >= (beta/2) * (x_ij^2/||X||_F^2 + |x_ij|/sum|X|) with
beta = 1. ``beta_certificate`` computes the largest admissible beta in [0, 1]
for an arbitrary distribution, so downstream sample-size formulas never trust
a user-supplied beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpecError, ShapeMismatchError, ZeroProbabilityError
from .matrix import DenseMatrix, _exact_sum, _nonzero_squares

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


class _Named(str, Enum):
    """A string enum that refuses an unknown value with InvalidSpecError
    naming the known ones, not Enum's bare ValueError."""

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(member.value for member in cls)
        raise InvalidSpecError(f"{value!r} is not a valid {cls.__name__}; use one of {names}")


class DistributionKind(_Named):
    HYBRID = "hybrid"
    PURE_L2 = "l2"
    PURE_L1 = "l1"
    CUSTOM = "custom"


# The kinds built from a matrix alone, in the order the harness reports them.
_BUILTIN_KINDS = (DistributionKind.HYBRID, DistributionKind.PURE_L1, DistributionKind.PURE_L2)


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
        p = _cell_probs(self.probs, self.m, self.n)
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise InvalidSpecError("probabilities must be finite and nonnegative")
        total = _exact_sum(p)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidSpecError(f"probabilities must sum to 1 within {_SUM_TOL}, got {total!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidSpecError(f"beta certificate must lie in [0, 1], got {self.beta!r}")
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


def _cell_probs(probs, m: int, n: int) -> np.ndarray:
    """probs as a new flat float64 array of the m*n cell probabilities; any
    other count raises ShapeMismatchError."""
    p = np.array(probs, dtype=np.float64).reshape(-1)
    if p.shape[0] != m * n:
        raise ShapeMismatchError(f"expected {m * n} probabilities, got {p.shape[0]}")
    return p


def _shares(x: DenseMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """The exact sum of x^2, and the per-cell shares x^2 / sum x^2 (L2) and
    |x| / sum |x| (L1) that every distribution and certificate is built
    from. Refuses, through ``_nonzero_squares``, the zero matrix and a
    nonzero one whose squares leave float range, where no share is defined."""
    flat = x.flat()
    sq, sum_sq = _nonzero_squares(flat)
    ab = np.abs(flat)
    return sum_sq, sq / sum_sq, ab / _exact_sum(ab)


def _check_shape(x: DenseMatrix, d: SamplingDistribution) -> None:
    if (x.m, x.n) != (d.m, d.n):
        raise ShapeMismatchError(f"distribution shape ({d.m}, {d.n}) does not match matrix shape {x.shape}")


def _certificate(flat: np.ndarray, p: np.ndarray, hybrid: np.ndarray) -> float:
    """0 if a nonzero cell has p = 0, else the least p / hybrid (at most 1)
    over cells with a positive hybrid share, so that no 0 is divided by 0."""
    if np.any((p == 0.0) & (flat != 0.0)):
        return 0.0
    low = (hybrid > 0.0) & (p < hybrid)  # only these can lower it below 1
    return float((p[low] / hybrid[low]).min(initial=1.0))


def _distributions(x: DenseMatrix, kinds, l2: np.ndarray, l1: np.ndarray) -> tuple:
    """One distribution per kind, in order, from the shares of ``_shares``.
    The hybrid is their average, and every certificate divides by it: the
    hybrid's own is 1 wherever its support covers x's."""
    hybrid = 0.5 * (l2 + l1)
    out = []
    for kind in map(DistributionKind, kinds):
        if kind is DistributionKind.CUSTOM:
            raise InvalidSpecError("custom distributions must be built via custom_distribution")
        probs = {DistributionKind.HYBRID: hybrid, DistributionKind.PURE_L2: l2, DistributionKind.PURE_L1: l1}[kind]
        out.append(SamplingDistribution(x.m, x.n, probs, kind, _certificate(x.flat(), probs, hybrid)))
    return tuple(out)


def _certified_beta(x: DenseMatrix, d, l2: np.ndarray, l1: np.ndarray) -> float:
    """The certificate of the one distribution d; 0 is refused, naming each
    other distribution that gives the starved cell positive probability."""
    if d.beta > 0.0:
        return d.beta
    cell = int(np.flatnonzero((x.flat() != 0.0) & (d.probs == 0.0))[0])
    i, j = divmod(cell, x.n)
    shares = zip(_BUILTIN_KINDS, (0.5 * (l2[cell] + l1[cell]), l1[cell], l2[cell]))
    others = " or ".join(kind.value for kind, share in shares if kind is not d.kind and share > 0.0)
    use = f"; use the {others} distribution" if others else ""
    raise ZeroProbabilityError(
        f"the {d.kind.value} distribution gives the nonzero entry x[{i}, {j}] = {float(x.flat()[cell])!r} "
        f"probability 0 (its share underflows), so no beta certifies it{use}"
    )


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
    _, l2, l1 = _shares(x)
    return _distributions(x, (kind,), l2, l1)[0]


def beta_certificate(x: DenseMatrix, probs: np.ndarray) -> float:
    """Largest beta in (0, 1] for which the per-cell lower bound holds.

    Returns 0.0 when some nonzero cell has zero probability (the bound fails
    for every beta > 0). Cells where x_ij = 0 or both shares underflow to 0
    impose no constraint and are excluded from the minimum.
    """
    _, l2, l1 = _shares(x)
    p = _cell_probs(probs, x.m, x.n)
    return _certificate(x.flat(), p, 0.5 * (l2 + l1))
