"""Spectral-norm solves: exact from a Gram eigensolve on small operands, by
deterministic-seeded Golub–Kahan–Lanczos bidiagonalization on large ones.

Used for the error measurement ``||sketch - X||_2`` and for stable rank.
``_spectral_norms`` takes a stack of dense arrays of one shape, each member
solved as it would be alone: ``spectral_norm`` and ``sketch_error`` hand it a
stack of one, and the experiment harness a batch of trials' ``S - X``,
densified at the size of X, which the program already holds dense. It picks
the path from the shape alone. Where min(m, n) <= _DENSE_MAX_DIM,
``_gram_norms`` takes sigma_1 as the square root of the top eigenvalue of the
member's Gram matrix, which is exact to roundoff and reports 0 steps,
``converged`` True and residual 0.0. Above it, ``_lanczos_norms`` stops each
member on a residual certificate for its top Ritz triple, so ``converged``
means the reported value lies within ``_TOL`` (relative) of a singular value;
one test per Lanczos step makes that decision, breakdown and the exact last
step included. Both paths consume their stack: ``_scale_down`` scales each
member in place by a power of two, which keeps products in float range and
is undone exactly on the results, and Lanczos reorders the stack in place. So
a result does not depend on the scale of its matrix, and ``spectral_norm``
solves a copy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .matrix import _scatter

__all__ = ["SpectralEstimate", "spectral_norm", "sketch_error"]

# A solve stops once its top Ritz triple (sigma, u, v) has ||A^T u - sigma v||
# <= _TOL * sigma, or after _MAX_STEPS Lanczos steps; _START_SEED seeds its
# start vector. _lanczos_norms reads all three at call time.
_TOL = 1e-9
_MAX_STEPS = 5000
_START_SEED = 0
# Steps between residual tests; a test costs one SVD of the k x k bidiagonal,
# which outweighs a Lanczos step on small operators.
_CHECK_EVERY = 4
# Members with min(m, n) <= _DENSE_MAX_DIM are solved exactly from their Gram
# matrix, larger ones by Lanczos. The Gram solve costs O(mn min(m, n)) time
# and min(m, n)^2 memory; on square S - X members it is the faster of the two
# up to about 300-325, and Lanczos is from 350 (the crossover table is in
# ROADMAP.md).
_DENSE_MAX_DIM = 300


class SpectralEstimate(NamedTuple):
    value: float
    iterations: int  # Lanczos steps taken; 0 for a dense (Gram) solve
    converged: bool  # the residual test held; always True for a dense solve
    # ||A^T u - value * v|| of the reported Ritz triple; 0.0 for a dense solve
    residual: float


def _as_array(a) -> np.ndarray:
    data = a if isinstance(a, np.ndarray) else getattr(a, "data", a)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d operand, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeMismatchError(f"expected a nonempty operand, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("the operand holds a NaN or infinite entry")
    return arr


def _scale_down(a: np.ndarray) -> np.ndarray:
    """Scale each member of the stack a (B, m, n) in place by the power of
    two that puts its largest |entry| in [1/2, 1), and return the exponents
    e (B,) that undo it: member i's singular values are 2^e[i] times those of
    its scaled copy. One per-element ldexp pass, exact even for a subnormal
    largest entry, so no later product underflows or overflows."""
    top = np.maximum(a.max(axis=(1, 2), initial=0.0), -a.min(axis=(1, 2), initial=0.0))
    exps = np.frexp(top)[1]
    np.ldexp(a, -exps[:, None, None], out=a)
    return exps


def _norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column w_i in the stack w (B, d, 1), shaped
    (B, 1, 1), by the dot product w_i . w_i."""
    return np.sqrt(np.matmul(w.transpose(0, 2, 1), w))


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> None:
    """Remove from each column w_i, in place, its components along the
    orthonormal rows of basis_i; two Gram–Schmidt passes keep the rows
    orthonormal to roundoff."""
    basis_t = basis.transpose(0, 2, 1)
    for _ in range(2):
        w -= np.matmul(basis_t, np.matmul(basis, w))


def _push(buf: np.ndarray, k: int, columns: np.ndarray) -> np.ndarray:
    """Store the b columns (b, d, 1) as rows buf[:b, k], doubling buf's rows
    when they are full; a grown buffer holds only the first b members."""
    b = columns.shape[0]
    if k == buf.shape[1]:
        grown = np.empty((b, 2 * k, buf.shape[2]))
        grown[:, :k] = buf[:b]
        buf = grown
    buf[:b, k] = columns[:, :, 0]
    return buf


def _compact(keep: list, arrays) -> None:
    """Move the members at positions keep (increasing) to the front of each
    array, in place and one member at a time, so no array is copied whole."""
    for dst, src in enumerate(keep):
        if src != dst:
            for arr in arrays:
                arr[dst] = arr[src]


def _top_ritz(alphas: np.ndarray, betas: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top singular value of each upper bidiagonal B_k (diagonal alphas[i],
    superdiagonal betas[i]) and its residual beta[i] * |p_k|, p the matching
    left singular vector of B_k: one SVD over the stacked k x k matrices."""
    t, k = alphas.shape
    bidiagonals = np.zeros((t, k, k))
    entries = bidiagonals.reshape(t, k * k)
    entries[:, :: k + 1] = alphas
    entries[:, 1 :: k + 1] = betas
    p, s, _ = np.linalg.svd(bidiagonals)
    return s[:, 0], beta * np.abs(p[:, -1, 0])


def _lanczos_norms(a: np.ndarray) -> list:
    """Top singular value of each member of the stack a (B, m, n) by
    Golub–Kahan–Lanczos bidiagonalization with full reorthogonalization.

    Each member runs the solve it would run alone. With T the member, or its
    transpose when wide (so the start vector lives in the smaller dimension N
    and the solve is exact by step N), it builds orthonormal V (right) and U
    (left) with T V_k = U_k B_k and T^T U_k = V_k B_k^T + beta_k v_{k+1}
    e_k^T. One test per step stops members: the top Ritz triple of B_k is
    tested every _CHECK_EVERY steps, at the step cap, and where beta_k = 0,
    as breakdown (alpha_k = 0) and k = N set it. A step makes one batched
    product with T and one with T^T, both on a as it lies in memory, over the
    members still running, which are always the front of a: a member that
    stops is recorded, and the running members after it move forward in a
    and in the Krylov buffers.

    a is consumed, never copied: _scale_down scales it in place first, so
    that no dot product underflows or overflows, and it is then reordered in
    place. Returns one SpectralEstimate per member, in the order of a.
    """
    count, m, n = a.shape
    big, small = max(m, n), min(m, n)
    exps = _scale_down(a)
    op, op_t = (a, a.transpose(0, 2, 1)) if m >= n else (a.transpose(0, 2, 1), a)
    steps = min(_MAX_STEPS, small)
    start = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(small)
    start /= np.sqrt(start @ start)
    # Lanczos vectors are columns (B, d, 1); the Krylov buffers hold them as rows.
    rows = min(small, 16)
    vs, us = np.empty((count, rows, small)), np.empty((count, rows, big))
    vs[:, 0] = start
    alphas, betas = np.empty((count, steps)), np.empty((count, steps))
    beta = np.zeros((count, 1, 1))
    ids = list(range(count))
    out = [None] * count
    b = count
    for k in range(1, steps + 1):
        v = vs[:b, k - 1, :, None]
        u = np.matmul(op, v)
        if k > 1:
            u -= beta * us[:b, k - 2, :, None]
            _orthogonalize(u, us[:b, : k - 1])
        alpha = _norms(u)
        alphas[:b, k - 1] = alpha[:, 0, 0]
        # alpha = 0 makes span(V_k) invariant under T^T T, and at k = N V_k
        # spans the whole space: either way beta_k = 0, the Ritz triple is
        # exact, and the test below stops the member.
        exact = k == small or np.count_nonzero(alpha) < b
        if exact:
            np.divide(u, alpha, out=u, where=alpha > 0.0)
        else:
            u /= alpha
        us = _push(us, k - 1, u)
        r = np.matmul(op_t, u)
        r -= alpha * v
        _orthogonalize(r, vs[:b, :k])
        beta[...] = _norms(r)
        if exact:
            beta[(alpha == 0.0) | (k == small)] = 0.0
        scheduled = k % _CHECK_EVERY == 0 or k == steps
        if scheduled or np.count_nonzero(beta) < b:
            pos = np.flatnonzero((beta[:, 0, 0] == 0.0) | scheduled)
            sigma, residual = _top_ritz(alphas[pos, :k], betas[pos, : k - 1], beta[pos, 0, 0])
            converged = residual <= _TOL * sigma
            stopped = np.flatnonzero(converged | (k == steps)).tolist()
            for j in stopped:
                i = ids[pos[j]]
                value, res = np.ldexp(sigma[j], exps[i]), np.ldexp(residual[j], exps[i])
                out[i] = SpectralEstimate(float(value), k, bool(converged[j]), float(res))
            if stopped:
                keep = sorted(set(range(b)).difference(pos[stopped].tolist()))
                _compact(keep, (a, vs, us, alphas, betas, beta, ids, r))
                b = len(keep)
                if b == 0:
                    break
                op, op_t, beta, r = op[:b], op_t[:b], beta[:b], r[:b]
        betas[:b, k - 1] = beta[:, 0, 0]
        r /= beta
        vs = _push(vs, k, r)
    return out


def _gram_norms(a: np.ndarray) -> list:
    """Top singular value of each member of the stack a (B, m, n), exact to
    roundoff: with T the member, or its transpose when wide, sigma_1 is the
    square root of the top eigenvalue of T^T T, which LAPACK's symmetric
    eigensolver returns with every other eigenvalue, so it cannot be missed.

    Each member is solved on its own into one reused Gram buffer of side
    min(m, n), so a member of a stack gives the bits it gives alone. a is
    consumed: _scale_down scales it in place first. Returns one
    SpectralEstimate(value, 0, True, 0.0) per member, in the order of a.
    """
    _, m, n = a.shape
    exps = _scale_down(a)
    gram = np.empty((min(m, n),) * 2)
    out = []
    for member, e in zip(a, exps):
        t = member if m >= n else member.T
        top = np.linalg.eigvalsh(np.matmul(t.T, t, out=gram))[-1]
        out.append(SpectralEstimate(float(np.ldexp(np.sqrt(top), e)), 0, True, 0.0))
    return out


def _spectral_norms(a: np.ndarray) -> list:
    """Top singular value of each member of the stack a (B, m, n): exactly
    by _gram_norms where min(m, n) <= _DENSE_MAX_DIM, by _lanczos_norms
    above. a is consumed. Returns one SpectralEstimate per member, in the
    order of a."""
    solve = _gram_norms if min(a.shape[1:]) <= _DENSE_MAX_DIM else _lanczos_norms
    return solve(a)


def spectral_norm(a) -> SpectralEstimate:
    """Top singular value of a dense matrix, with its Lanczos step count,
    convergence flag and Ritz residual.

    Where min(m, n) <= _DENSE_MAX_DIM (300) the value is exact and comes
    back as SpectralEstimate(value, 0, True, 0.0). Above it, converged is
    True exactly when the Lanczos residual test held; after _MAX_STEPS
    (5000) steps, when that is below min(m, n), the last estimate comes back
    with converged=False. A Lanczos estimate never exceeds the true norm.
    Non-convergence is signaled, not raised. An operand with a NaN or
    infinite entry raises NonFiniteError, and one with no rows or columns
    ShapeMismatchError. The solve runs on a copy of a, and 2^k a takes the
    same path and steps as a; a norm above the float range reads inf, with
    numpy's overflow warning.
    """
    return _spectral_norms(_as_array(a)[None].copy())[0]


def sketch_error(x, sketch) -> SpectralEstimate:
    """``||S - X||_2``, solved on the densified difference.

    Accepts a SparseSketch (unwrapping its COO matrix) or a SparseCOO. S is
    scattered into an m x n array once (duplicate cells add up) and X is
    subtracted in place, so the solve holds one array the size of X: a stack
    of one for the dispatch that the experiment runs on its batches. Returns
    the same SpectralEstimate as spectral_norm; a value with converged=False
    may sit below the true norm.
    """
    coo = getattr(sketch, "matrix", sketch)
    arr = _as_array(x)
    if (coo.m, coo.n) != arr.shape:
        raise ShapeMismatchError(
            f"sketch shape ({coo.m}, {coo.n}) does not match matrix shape {arr.shape}"
        )
    diff = _scatter(coo)
    return _spectral_norms(np.subtract(diff, arr, out=diff)[None])[0]
