"""Spectral-norm solves: exact from a Gram eigensolve on small operands, by
deterministic-seeded Golub–Kahan–Lanczos bidiagonalization on large ones.

Used for the error measurement ``||sketch - X||_2`` and by ``stable_rank``.
``_spectral_norm`` takes one dense 2-d array: ``spectral_norm`` hands it a
copy of its operand, ``sketch_error`` and the experiment harness a trial's
``S - X``, densified at the size of X, which the program already holds dense.
It picks the path from the shape alone, by cost: where small + small^2 / big
<= 2 * _DENSE_MAX_DIM, small and big the two dimensions (up to 300 x 300 on
a square operand), ``_gram_norm`` takes sigma_1 as the square root of the
top eigenvalue of the Gram matrix, which is exact to roundoff and reports 0
steps, ``converged`` True and residual 0.0. Otherwise ``_lanczos_norm``
stops on a residual certificate for its top Ritz triple, so ``converged``
means the reported value lies within ``_TOL`` (relative) of a singular
value; one test per Lanczos step makes that decision, breakdown and the
exact last step included. Both paths consume their operand: ``_scale_down``
scales it in place by a power of two, which keeps products in float range
and is undone exactly on the result. So a result does not depend on the
scale of its matrix, and ``spectral_norm`` solves a copy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError
from .matrix import DenseMatrix, _nonzero_squares, _scatter

__all__ = ["SpectralEstimate", "spectral_norm", "sketch_error", "stable_rank"]

# A solve stops once its top Ritz triple (sigma, u, v) has ||A^T u - sigma v||
# <= _TOL * sigma, or after _MAX_STEPS Lanczos steps; _START_SEED seeds its
# start vector. _lanczos_norm reads all three at call time.
_TOL = 1e-9
_MAX_STEPS = 5000
_START_SEED = 0
# Steps between residual tests; a test costs one SVD of the k x k bidiagonal,
# which outweighs a Lanczos step on small operators.
_CHECK_EVERY = 4
# An operand with small + small^2 / big <= 2 * _DENSE_MAX_DIM, small and big
# its two dimensions, is solved exactly from its Gram matrix, any other by
# Lanczos. The Gram solve costs O(big small^2 + small^3) time and small^2
# memory, a Lanczos step O(big small), and the step count barely moves with
# big. On square S - X operands the Gram solve is the faster of the two up to
# about 300-325 and Lanczos from 350, so the rule takes 300^2 and not 301^2;
# on tall ones the Gram solve stays faster far longer (1204x301 and 1600x400:
# the crossover table is in ROADMAP.md).
_DENSE_MAX_DIM = 300


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int  # Lanczos steps taken; 0 for a dense (Gram) solve
    converged: bool  # the residual test held; always True for a dense solve
    # ||A^T u - value * v|| of the reported Ritz triple; 0.0 for a dense solve
    residual: float


def _scale_down(a: np.ndarray) -> int:
    """Scale a in place by the power of two that puts its largest |entry| in
    [1/2, 1), and return the exponent e that undoes it: a's singular values
    are 2^e times those of its scaled copy. One per-element ldexp pass, exact
    even for a subnormal largest entry, so no later product underflows or
    overflows."""
    e = int(np.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))[1])
    np.ldexp(a, -e, out=a)
    return e


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> None:
    """Remove from w, in place, its components along the orthonormal rows of
    basis; two Gram–Schmidt passes keep the rows orthonormal to roundoff."""
    for _ in range(2):
        w -= basis.T @ (basis @ w)


def _top_ritz(alphas: np.ndarray, betas: np.ndarray, beta: float) -> tuple:
    """Top singular value of the upper bidiagonal B_k (diagonal alphas,
    superdiagonal betas) and its residual beta * |p_k|, p the matching left
    singular vector of B_k: one SVD of the k x k matrix."""
    k = alphas.size
    bidiagonal = np.zeros((k, k))
    entries = bidiagonal.reshape(k * k)
    entries[:: k + 1] = alphas
    entries[1 :: k + 1] = betas
    p, s, _ = np.linalg.svd(bidiagonal)
    return s[0], beta * abs(p[-1, 0])


def _lanczos_norm(a: np.ndarray) -> SpectralEstimate:
    """Top singular value of the 2-d array a by Golub–Kahan–Lanczos
    bidiagonalization with full reorthogonalization.

    With T = a, or its transpose when wide (so the start vector lives in the
    smaller dimension N and the solve is exact by step N), it builds
    orthonormal V (right) and U (left) with T V_k = U_k B_k and
    T^T U_k = V_k B_k^T + beta_k v_{k+1} e_k^T. One test stops the solve: the
    top Ritz triple of B_k is tested every _CHECK_EVERY steps, at the step
    cap, and where beta_k = 0, as breakdown (alpha_k = 0) and k = N set it.
    A step makes one product with T and one with T^T, both on a as it lies
    in memory.

    a is consumed, never copied: _scale_down scales it in place first, so
    that no dot product underflows or overflows.
    """
    m, n = a.shape
    big, small = max(m, n), min(m, n)
    e = _scale_down(a)
    op, op_t = (a, a.T) if m >= n else (a.T, a)
    steps = min(_MAX_STEPS, small)
    start = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(small)
    start /= np.sqrt(start @ start)
    # Krylov buffers: one Lanczos vector per row. Rows past the step that
    # stops the solve are never written, so they take no resident memory.
    vs, us = np.empty((steps, small)), np.empty((steps, big))
    vs[0] = start
    alphas, betas = np.empty(steps), np.empty(steps)
    beta = 0.0
    for k in range(1, steps + 1):
        v = vs[k - 1]
        u = op @ v
        if k > 1:
            u -= beta * us[k - 2]
            _orthogonalize(u, us[: k - 1])
        alpha = np.sqrt(u @ u)
        alphas[k - 1] = alpha
        if alpha > 0.0:
            u /= alpha
        us[k - 1] = u
        r = op_t @ u
        r -= alpha * v
        _orthogonalize(r, vs[:k])
        # alpha = 0 makes span(V_k) invariant under T^T T, and at k = N V_k
        # spans the whole space: either way beta_k = 0, the Ritz triple is
        # exact, and the test below stops the solve.
        beta = 0.0 if alpha == 0.0 or k == small else np.sqrt(r @ r)
        if k % _CHECK_EVERY == 0 or k == steps or beta == 0.0:
            sigma, residual = _top_ritz(alphas[:k], betas[: k - 1], beta)
            converged = residual <= _TOL * sigma
            if converged or k == steps:
                return SpectralEstimate(float(np.ldexp(sigma, e)), k, bool(converged), float(np.ldexp(residual, e)))
        betas[k - 1] = beta
        r /= beta
        vs[k] = r


def _gram_norm(a: np.ndarray) -> SpectralEstimate:
    """Top singular value of the 2-d array a, exact to roundoff: with T = a,
    or its transpose when wide, sigma_1 is the square root of the top
    eigenvalue of T^T T, which LAPACK's symmetric eigensolver returns with
    every other eigenvalue, so it cannot be missed. a is consumed:
    _scale_down scales it in place first. Returns
    SpectralEstimate(value, 0, True, 0.0).
    """
    e = _scale_down(a)
    t = a if a.shape[0] >= a.shape[1] else a.T
    top = np.linalg.eigvalsh(t.T @ t)[-1]
    return SpectralEstimate(float(np.ldexp(np.sqrt(top), e)), 0, True, 0.0)


def _spectral_norm(a: np.ndarray) -> SpectralEstimate:
    """Top singular value of the 2-d float64 array a: exactly by _gram_norm
    where small + small^2 / big <= 2 * _DENSE_MAX_DIM (small and big its two
    dimensions; compared in integers), by _lanczos_norm otherwise. a is
    consumed."""
    small, big = sorted(a.shape)
    solve = _gram_norm if small * (big + small) <= 2 * _DENSE_MAX_DIM * big else _lanczos_norm
    return solve(a)


def _values(x) -> np.ndarray:
    """The entries of x as a float64 array, x checked as a DenseMatrix is.
    For a plain array the checked copy is freed at once and x's own values,
    read as float64 as the check reads them, come back: no solve holds that
    copy beside its working array."""
    if isinstance(x, DenseMatrix):
        return x.data
    DenseMatrix(x)
    return np.asarray(x, dtype=np.float64)


def spectral_norm(a) -> SpectralEstimate:
    """Top singular value of a dense matrix, with its Lanczos step count,
    convergence flag and Ritz residual.

    Where small + small^2 / big <= 2 * _DENSE_MAX_DIM (600), small and big
    the two dimensions (so up to 300 x 300 square and 1600 x 400 tall), the
    value is exact and comes back as SpectralEstimate(value, 0, True, 0.0).
    Otherwise converged is True exactly when the Lanczos residual test held;
    after _MAX_STEPS (5000) steps, when that is below min(m, n), the last
    estimate comes back with converged=False. A Lanczos estimate never
    exceeds the true norm. Non-convergence is signaled, not raised. The
    operand is checked as a DenseMatrix is: a NaN or infinite entry raises
    NonFiniteError, and a 1-d or empty one ShapeMismatchError. The solve runs
    on a copy of a, and 2^k a takes the same path and steps as a; a norm
    above the float range reads inf, with numpy's overflow warning.
    """
    return _spectral_norm(np.array(_values(a), order="C"))


def sketch_error(x, sketch) -> SpectralEstimate:
    """``||S - X||_2``, solved on the densified difference.

    Accepts a SparseSketch (unwrapping its COO matrix) or a SparseCOO. S is
    scattered into an m x n array once (duplicate cells add up) and X is
    subtracted in place, so the solve holds one array the size of X, as each
    experiment trial does. Returns the same SpectralEstimate as
    spectral_norm; a value with converged=False may sit below the true norm.
    """
    coo = getattr(sketch, "matrix", sketch)
    values = _values(x)
    if (coo.m, coo.n) != values.shape:
        raise ShapeMismatchError(f"sketch shape ({coo.m}, {coo.n}) does not match matrix shape {values.shape}")
    diff = _scatter(coo)
    return _spectral_norm(np.subtract(diff, values, out=diff))


def stable_rank(x: DenseMatrix) -> float:
    """Squared Frobenius norm over squared top singular value, in [1, min(m, n)] up to
    the solver's tolerance; refuses the zero matrix and what frobenius_norm refuses."""
    return _stable_rank(x, math.sqrt(_nonzero_squares(x.flat())[1]))


def _stable_rank(x: DenseMatrix, frobenius: float) -> float:
    """Stable rank of x from its known Frobenius norm: one sigma_1 solve."""
    top = spectral_norm(x).value
    return (frobenius * frobenius) / (top * top)
