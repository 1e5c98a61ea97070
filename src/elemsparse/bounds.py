"""Closed-form sample sizes, the Bernstein-type tail, and second-moment
diagnostics for the sparsification estimator.

Sample-size formulas are exposed in three forms: the two simplified cases
(selected by comparing epsilon with the Frobenius norm, ties to case (i)
where both coincide), the sharper un-simplified bound they are derived from,
and the stable-rank form with a relative error target. All sizes are
ceilinged to integers since s is a trial count.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import SamplingDistribution, _check_shape
from .errors import (
    HypothesisViolatedError,
    InvalidSpecError,
    ZeroProbabilityError,
    _integer,
)
from .matrix import DenseMatrix, _nonzero_squares
from .spectral import spectral_norm

__all__ = [
    "Theorem1Case",
    "BoundRequest",
    "BoundReport",
    "sample_size_theorem1",
    "sample_size_unsimplified",
    "sample_size_corollary",
    "bernstein_tail",
    "gamma_rho_bounds",
    "mt_spectral_norm",
    "exact_second_moment",
    "bound_report",
]


class Theorem1Case(str, Enum):
    CASE_I = "i"
    CASE_II = "ii"


@dataclass(frozen=True)
class BoundRequest:
    """Inputs the closed-form bounds need; epsilon is an absolute spectral
    error target."""

    m: int
    n: int
    epsilon: float
    delta: float
    beta: float
    frobenius: float
    stable_rank: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidSpecError("matrix dimensions must be >= 1")
        if not 0 < self.epsilon < math.inf:
            raise InvalidSpecError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0 < self.delta < 1:
            raise InvalidSpecError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not 0 < self.beta <= 1:
            raise InvalidSpecError(f"beta must lie in (0, 1], got {self.beta!r}")
        if not 0 < self.frobenius < math.inf:
            raise InvalidSpecError(f"frobenius must be positive and finite, got {self.frobenius!r}")
        if self.stable_rank is not None and not 0 < self.stable_rank < math.inf:
            raise InvalidSpecError(f"stable_rank must be positive and finite when given, got {self.stable_rank!r}")

    @property
    def log_term(self) -> float:
        return math.log((self.m + self.n) / self.delta)


@dataclass(frozen=True)
class BoundReport:
    """Everything the harness reports about sample sizes for one request."""

    s_theorem1: int
    case_used: Theorem1Case
    s_unsimplified: int
    s_corollary: int | None
    gamma: float
    rho2: float
    tail_at_s: float


def sample_size_theorem1(req: BoundRequest) -> tuple[int, Theorem1Case]:
    """Simplified bound and which case fired (tie -> case i)."""
    lead = 6.0 * max(req.m, req.n) * req.log_term / req.beta
    if req.epsilon <= req.frobenius:
        return math.ceil(lead * req.frobenius**2 / req.epsilon**2), Theorem1Case.CASE_I
    return math.ceil(lead * req.frobenius / req.epsilon), Theorem1Case.CASE_II


def sample_size_unsimplified(req: BoundRequest) -> int:
    """The sharper bound the simplified cases are rounded up from; always
    <= sample_size_theorem1 for the same request."""
    numer = 4.0 * req.n * req.frobenius**2 + 2.0 * req.epsilon * math.sqrt(
        req.m * req.n
    ) * req.frobenius
    return math.ceil(numer * req.log_term / (req.beta * req.epsilon**2))


def sample_size_corollary(req: BoundRequest, epsilon_rel: float) -> int:
    """Stable-rank form targeting ``||X - sketch||_2 <= epsilon_rel * ||X||_2``.

    Requires stable_rank >= epsilon_rel^2.
    """
    if req.stable_rank is None:
        raise InvalidSpecError("request must carry stable_rank for the stable-rank bound")
    if not epsilon_rel > 0:
        raise InvalidSpecError("epsilon_rel must be positive")
    if req.stable_rank < epsilon_rel**2:
        raise HypothesisViolatedError(
            f"stable rank {req.stable_rank} is below epsilon_rel^2 = {epsilon_rel**2}"
        )
    value = 6.0 * max(req.m, req.n) * req.log_term * req.stable_rank / (
        req.beta * epsilon_rel**2
    )
    return math.ceil(value)


def bernstein_tail(
    m: int, n: int, s: int, epsilon: float, rho2: float, gamma: float
) -> float:
    """(m+n) * exp(-(s eps^2 / 2) / (rho^2 + gamma eps / 3)).

    An upper bound on the failure probability, not a probability mass: it may
    exceed 1 (its range is [0, m+n]).
    """
    return (m + n) * math.exp(-(s * epsilon**2 / 2.0) / (rho2 + gamma * epsilon / 3.0))


def _gamma_rho_values(m: int, n: int, frob: float, beta: float) -> tuple[float, float]:
    gamma = 3.0 * math.sqrt(m * n) * frob / beta
    rho2 = 2.0 * n * frob**2 / beta
    return gamma, rho2


def gamma_rho_bounds(x: DenseMatrix, beta: float) -> tuple[float, float]:
    """Per-outcome norm bound gamma and variance proxy rho^2 for a matrix
    sampled under any beta-certified distribution."""
    if not 0 < beta <= 1:
        raise InvalidSpecError("beta must lie in (0, 1]")
    frob = math.sqrt(_nonzero_squares(x.flat())[1])
    return _gamma_rho_values(x.m, x.n, frob, beta)


def mt_spectral_norm(x: DenseMatrix, d: SamplingDistribution, cell: tuple[int, int]) -> float:
    """Spectral norm of the centered single-outcome matrix
    ``(x_ij / p_ij) e_i e_j^T - X`` for the given cell, whose indices must
    lie in [0, m) x [0, n)."""
    _check_shape(x, d)
    i, j = (_integer(k, "cell index") for k in cell)
    if not (0 <= i < x.m and 0 <= j < x.n):
        raise InvalidSpecError(f"cell ({i}, {j}) is outside the {x.m}x{x.n} matrix")
    p = d.probs[i * d.n + j]
    if p <= 0.0:
        raise ZeroProbabilityError(f"cell ({i}, {j}) has zero probability")
    outcome = -x.data
    outcome[i, j] += x.data[i, j] / p
    return spectral_norm(outcome).value


def exact_second_moment(x: DenseMatrix, d: SamplingDistribution) -> DenseMatrix:
    """Exact covariance factor ``sum_ij (x_ij^2 / p_ij) e_i e_i^T - X X^T``
    (m-by-m, symmetric, positive semi-definite).

    Requires p_ij > 0 wherever x_ij != 0; outside that support condition the
    estimator is biased and the quantity is meaningless, so violations raise.
    """
    _check_shape(x, d)
    p = d.grid()
    nz = x.data != 0.0
    if np.any(nz & (p <= 0.0)):
        raise ZeroProbabilityError("distribution assigns zero probability to a nonzero cell")
    ratio = np.zeros_like(x.data)
    np.divide(x.data * x.data, p, out=ratio, where=nz)
    gram = x.data @ x.data.T
    out = np.diag(ratio.sum(axis=1)) - 0.5 * (gram + gram.T)
    return DenseMatrix(out)


def bound_report(req: BoundRequest, epsilon_rel: float | None = None) -> BoundReport:
    """Evaluate every bound for one request; the tail is reported at the
    un-simplified sample size, where it must not exceed delta; s_corollary is
    None without sr and epsilon_rel or when sr < epsilon_rel^2. Inputs whose
    bounds leave float range raise InvalidSpecError."""
    try:
        s1, case = sample_size_theorem1(req)
        s_un = sample_size_unsimplified(req)
        s_cor = None
        if req.stable_rank is not None and epsilon_rel is not None:
            with contextlib.suppress(HypothesisViolatedError):
                s_cor = sample_size_corollary(req, epsilon_rel)
        gamma, rho2 = _gamma_rho_values(req.m, req.n, req.frobenius, req.beta)
        tail = bernstein_tail(req.m, req.n, s_un, req.epsilon, rho2, gamma)
    except (OverflowError, ZeroDivisionError):
        raise InvalidSpecError("the bounds leave float range for these inputs") from None
    return BoundReport(
        s_theorem1=s1,
        case_used=case,
        s_unsimplified=s_un,
        s_corollary=s_cor,
        gamma=gamma,
        rho2=rho2,
        tail_at_s=tail,
    )
