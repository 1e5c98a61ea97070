"""Deterministic-seeded spectral-norm estimation by power iteration.

Used for error measurement ``||sketch - X||_2`` and for stable rank. The
difference operator is applied lazily (COO scatter plus dense matvec per
iteration), never densifying sketch - X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError

__all__ = ["SpectralConfig", "SpectralEstimate", "spectral_norm", "sketch_error"]


@dataclass(frozen=True)
class SpectralConfig:
    """Power-iteration controls.

    tol is the relative Rayleigh-quotient change threshold; seed fixes the
    random unit start vector, making every estimate deterministic.
    """

    tol: float = 1e-9
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


DEFAULT_CONFIG = SpectralConfig()


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int
    converged: bool


def _start_vector(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(n)


def _as_array(a) -> np.ndarray:
    data = a if isinstance(a, np.ndarray) else getattr(a, "data", a)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d operand, got ndim={arr.ndim}")
    return arr


def _power_iteration(apply, apply_t, v0: np.ndarray, cfg: SpectralConfig) -> SpectralEstimate:
    """Iterate v <- A^T(Av) / ||A^T(Av)|| from v0, with A given by its matvecs
    ``apply`` (v -> Av) and ``apply_t`` (u -> A^T u).

    Stops once the Rayleigh quotient r = ||Av||^2 changes by at most
    cfg.tol * r between iterations and returns sqrt(r); after cfg.max_iters
    the last estimate comes back with converged=False.
    """
    v = v0 / np.sqrt(v0 @ v0)
    r_prev = 0.0
    r = 0.0
    for it in range(1, cfg.max_iters + 1):
        u = apply(v)
        r = float(u @ u)
        if r == 0.0:
            return SpectralEstimate(0.0, it, True)
        if it > 1 and abs(r - r_prev) <= cfg.tol * r:
            return SpectralEstimate(float(np.sqrt(r)), it, True)
        r_prev = r
        w = apply_t(u)
        nw = float(np.sqrt(w @ w))
        if nw == 0.0:
            return SpectralEstimate(float(np.sqrt(r)), it, True)
        v = w / nw
    return SpectralEstimate(float(np.sqrt(r)), cfg.max_iters, False)


def spectral_norm(a, cfg: SpectralConfig = DEFAULT_CONFIG) -> SpectralEstimate:
    """Estimate the top singular value of a dense matrix.

    Power iteration on v -> A^T(Av) from a seeded random unit vector; returns
    the square root of the Rayleigh quotient once its relative change drops
    below cfg.tol, or the best estimate with converged=False after
    cfg.max_iters. Non-convergence is signaled, not raised.
    """
    arr = _as_array(a)
    v0 = _start_vector(arr.shape[1], cfg.seed)
    return _power_iteration(lambda v: arr @ v, lambda u: arr.T @ u, v0, cfg)


def sketch_error(x, sketch, cfg: SpectralConfig = DEFAULT_CONFIG) -> SpectralEstimate:
    """``||S - X||_2`` with S applied lazily from its COO triples.

    Accepts a SparseSketch (unwrapping its COO matrix) or a SparseCOO. Like
    spectral_norm, returns the estimate with its iteration count and
    convergence flag. Power iteration only under-estimates, so a value with
    converged=False may sit well below the true norm.
    """
    coo = getattr(sketch, "matrix", sketch)
    arr = _as_array(x)
    if (coo.m, coo.n) != arr.shape:
        raise ShapeMismatchError(
            f"sketch shape ({coo.m}, {coo.n}) does not match matrix shape {arr.shape}"
        )
    m, n = arr.shape
    rows, cols, vals = coo.rows, coo.cols, coo.vals

    def apply(v):
        return np.bincount(rows, weights=vals * v[cols], minlength=m) - arr @ v

    def apply_t(u):
        return np.bincount(cols, weights=vals * u[rows], minlength=n) - arr.T @ u

    v0 = _start_vector(n, cfg.seed)
    return _power_iteration(apply, apply_t, v0, cfg)
