"""Deterministic-seeded spectral-norm solves by Golub–Kahan–Lanczos
bidiagonalization.

Used for the error measurement ``||sketch - X||_2`` and for stable rank. Both
run one solver on a dense array: ``sketch_error`` densifies ``S - X`` once,
at the size of X, which the program already holds dense. The solver stops on
a residual certificate for its top Ritz triple, so ``converged`` means the
reported value lies within ``tol`` (relative) of a singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError
from .matrix import _scatter

__all__ = ["SpectralConfig", "SpectralEstimate", "spectral_norm", "sketch_error"]

# Steps between residual tests; a test costs one SVD of the k x k bidiagonal,
# which outweighs a Lanczos step on small operators.
_CHECK_EVERY = 4


@dataclass(frozen=True)
class SpectralConfig:
    """Lanczos controls.

    tol is the relative Ritz residual at which a solve stops: the top Ritz
    triple (sigma, u, v) must satisfy ``||A^T u - sigma v|| <= tol * sigma``
    (``A v = sigma u`` holds exactly). max_iters caps the Lanczos steps, each
    one product with A and one with A^T; a solve never needs more than
    min(m, n). seed fixes the random start vector, making every estimate
    deterministic.
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
    residual: float  # ||A^T u - value * v|| of the reported Ritz triple


def _as_array(a) -> np.ndarray:
    data = a if isinstance(a, np.ndarray) else getattr(a, "data", a)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d operand, got ndim={arr.ndim}")
    return arr


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> None:
    """Remove from w, in place, its components along the orthonormal rows of
    basis; two Gram–Schmidt passes keep the rows orthonormal to roundoff."""
    for _ in range(2):
        w -= basis.T @ (basis @ w)


def _push(buf: np.ndarray, k: int, row: np.ndarray) -> np.ndarray:
    """Store row as buf[k], doubling buf's rows when it is full."""
    if k == buf.shape[0]:
        grown = np.empty((2 * k, buf.shape[1]))
        grown[:k] = buf
        buf = grown
    buf[k] = row
    return buf


def _top_ritz(alphas: list, betas: list, beta: float) -> tuple[float, float]:
    """Top singular value of the upper bidiagonal B_k (diagonal alphas,
    superdiagonal betas) and its residual beta * |p_k|, p the matching left
    singular vector of B_k."""
    p, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
    return float(s[0]), beta * float(abs(p[-1, 0]))


def _lanczos_norm(a: np.ndarray, cfg: SpectralConfig) -> SpectralEstimate:
    """Top singular value of a by Golub–Kahan–Lanczos bidiagonalization with
    full reorthogonalization.

    Builds orthonormal V (right) and U (left) with A V_k = U_k B_k and
    A^T U_k = V_k B_k^T + beta_k v_{k+1} e_k^T, then tests the top Ritz
    triple of B_k every _CHECK_EVERY steps, at the step cap, and on
    breakdown. Runs on the transpose when a is wide, so the start vector
    lives in the smaller dimension n and the solve is exact by step n.
    """
    if a.shape[0] < a.shape[1]:
        a = a.T
    m, n = a.shape
    steps = min(cfg.max_iters, n)
    v = np.random.Generator(np.random.PCG64(cfg.seed)).standard_normal(n)
    v /= np.sqrt(v @ v)
    rows = min(n, 16)
    vs, us = np.empty((rows, n)), np.empty((rows, m))
    vs[0] = v
    alphas, betas = [], []
    beta = 0.0
    for k in range(1, steps + 1):
        u = a @ v
        if k > 1:
            u -= beta * us[k - 2]
            _orthogonalize(u, us[: k - 1])
        alpha = float(np.sqrt(u @ u))
        alphas.append(alpha)
        if alpha == 0.0 or k == n:
            # alpha = 0 makes span(V_k) invariant under A^T A, and at k = n
            # V_k spans the whole space: either way the Ritz triple is exact.
            beta = 0.0
        else:
            u /= alpha
            us = _push(us, k - 1, u)
            r = a.T @ u - alpha * v
            _orthogonalize(r, vs[:k])
            beta = float(np.sqrt(r @ r))
        if beta == 0.0 or k % _CHECK_EVERY == 0 or k == steps:
            sigma, residual = _top_ritz(alphas, betas, beta)
            converged = residual <= cfg.tol * sigma
            if converged or k == steps:
                return SpectralEstimate(sigma, k, converged, residual)
        betas.append(beta)
        v = r / beta
        vs = _push(vs, k, v)


def spectral_norm(a, cfg: SpectralConfig = DEFAULT_CONFIG) -> SpectralEstimate:
    """Top singular value of a dense matrix, with its Lanczos step count,
    convergence flag and Ritz residual.

    converged is True exactly when the residual test held; after cfg.max_iters
    steps (when that is below min(m, n)) the last estimate comes back with
    converged=False. A Lanczos estimate never exceeds the true norm.
    Non-convergence is signaled, not raised.
    """
    return _lanczos_norm(_as_array(a), cfg)


def sketch_error(x, sketch, cfg: SpectralConfig = DEFAULT_CONFIG) -> SpectralEstimate:
    """``||S - X||_2``, solved on the densified difference.

    Accepts a SparseSketch (unwrapping its COO matrix) or a SparseCOO. S is
    scattered into an m x n array once (duplicate cells add up) and X is
    subtracted in place, so the solve holds one array the size of X. Returns
    the same SpectralEstimate as spectral_norm; a value with converged=False
    may sit below the true norm.
    """
    coo = getattr(sketch, "matrix", sketch)
    arr = _as_array(x)
    if (coo.m, coo.n) != arr.shape:
        raise ShapeMismatchError(
            f"sketch shape ({coo.m}, {coo.n}) does not match matrix shape {arr.shape}"
        )
    d = _scatter(coo)
    d -= arr
    return _lanczos_norm(d, cfg)
