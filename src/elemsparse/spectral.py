"""Deterministic-seeded spectral-norm solves by Golub–Kahan–Lanczos
bidiagonalization.

Used for the error measurement ``||sketch - X||_2`` and for stable rank. One
solver runs on a stack of dense arrays of one shape, each member solved as it
would be alone: ``spectral_norm`` and ``sketch_error`` hand it a stack of
one, and the experiment harness a batch of trials' ``S - X``, densified at
the size of X, which the program already holds dense. The solver stops each
member on a residual certificate for its top Ritz triple, so ``converged``
means the reported value lies within ``_TOL`` (relative) of a singular value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError
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
    e_k^T, and tests the top Ritz triple of B_k every _CHECK_EVERY steps, at
    the step cap, and on breakdown. A step makes one batched product with T
    and one with T^T, both on a as it lies in memory, over the members still
    running, which are always the front of a: a member that stops is
    recorded, and the running members after it move forward in a and in the
    Krylov buffers. a is reordered in place, never copied. Returns one
    SpectralEstimate per member, in the order of a.
    """
    count, m, n = a.shape
    big, small = max(m, n), min(m, n)
    ops, ops_t = (a, a.transpose(0, 2, 1)) if m >= n else (a.transpose(0, 2, 1), a)
    steps = min(_MAX_STEPS, small)
    start = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(small)
    start /= np.sqrt(start @ start)
    # Lanczos vectors are columns (B, d, 1); the Krylov buffers hold them as rows.
    v = np.tile(start[:, None], (count, 1, 1))
    rows = min(small, 16)
    vs, us = np.empty((count, rows, small)), np.empty((count, rows, big))
    vs[:, 0] = start
    alphas, betas = np.empty((count, steps)), np.empty((count, steps))
    beta = np.zeros((count, 1, 1))
    ids = list(range(count))
    out = [None] * count
    b = count

    def residual_test(tested: np.ndarray, k: int, beta_k: np.ndarray, step_column: np.ndarray) -> int:
        """Residual test of the running members where tested is set; those
        that converged or reached the step cap are recorded and leave the
        running set. Returns the new running count."""
        pos = np.flatnonzero(tested)
        sigma, residual = _top_ritz(alphas[pos, :k], betas[pos, : k - 1], beta_k[pos])
        converged = residual <= _TOL * sigma
        stopped = np.flatnonzero(converged | (k == steps)).tolist()
        if not stopped:
            return b
        for j in stopped:
            out[ids[pos[j]]] = SpectralEstimate(float(sigma[j]), k, bool(converged[j]), float(residual[j]))
        keep = sorted(set(range(b)).difference(pos[stopped].tolist()))
        _compact(keep, (a, vs, us, v, alphas, betas, beta, ids, step_column))
        return len(keep)

    op, op_t, vb, betab = ops[:b], ops_t[:b], v[:b], beta[:b]
    for k in range(1, steps + 1):
        u = np.matmul(op, vb)
        if k > 1:
            u -= betab * us[:b, k - 2, :, None]
            _orthogonalize(u, us[:b, : k - 1])
        alpha = _norms(u)
        alphas[:b, k - 1] = alpha[:, 0, 0]
        # alpha = 0 makes span(V_k) invariant under T^T T, and at k = N V_k
        # spans the whole space: either way beta_k = 0 and the Ritz triple is
        # exact.
        if k == small or np.count_nonzero(alpha) < b:
            b = residual_test((alphas[:b, k - 1] == 0.0) | (k == small), k, np.zeros(b), u)
            if b == 0:
                break
            op, op_t, vb, betab = ops[:b], ops_t[:b], v[:b], beta[:b]
            u, alpha = u[:b], alphas[:b, k - 1, None, None]
        u /= alpha
        us = _push(us, k - 1, u)
        r = np.matmul(op_t, u)
        r -= alpha * vb
        _orthogonalize(r, vs[:b, :k])
        betab[...] = _norms(r)
        scheduled = k % _CHECK_EVERY == 0 or k == steps
        if scheduled or np.count_nonzero(betab) < b:
            b = residual_test((betab[:, 0, 0] == 0.0) | scheduled, k, beta[:, 0, 0], r)
            if b == 0:
                break
            op, op_t, vb, betab = ops[:b], ops_t[:b], v[:b], beta[:b]
            r = r[:b]
        betas[:b, k - 1] = betab[:, 0, 0]
        np.divide(r, betab, out=vb)
        vs = _push(vs, k, vb)
    return out


def spectral_norm(a) -> SpectralEstimate:
    """Top singular value of a dense matrix, with its Lanczos step count,
    convergence flag and Ritz residual.

    converged is True exactly when the residual test held; after _MAX_STEPS
    (5000) steps, when that is below min(m, n), the last estimate comes back
    with converged=False. A Lanczos estimate never exceeds the true norm.
    Non-convergence is signaled, not raised.
    """
    return _lanczos_norms(_as_array(a)[None])[0]


def sketch_error(x, sketch) -> SpectralEstimate:
    """``||S - X||_2``, solved on the densified difference.

    Accepts a SparseSketch (unwrapping its COO matrix) or a SparseCOO. S is
    scattered into an m x n array once (duplicate cells add up) and X is
    subtracted in place, so the solve holds one array the size of X: a stack
    of one for the solver that the experiment runs on its batches. Returns
    the same SpectralEstimate as spectral_norm; a value with converged=False
    may sit below the true norm.
    """
    coo = getattr(sketch, "matrix", sketch)
    arr = _as_array(x)
    if (coo.m, coo.n) != arr.shape:
        raise ShapeMismatchError(
            f"sketch shape ({coo.m}, {coo.n}) does not match matrix shape {arr.shape}"
        )
    return _lanczos_norms(_difference(arr, coo)[None])[0]


def _difference(x: np.ndarray, coo, out: np.ndarray | None = None) -> np.ndarray:
    """S - X as an m x n array, S the scattered COO matrix (duplicate cells
    add up); written into out when given, else into S's own array."""
    d = _scatter(coo)
    return np.subtract(d, x, out=d if out is None else out)
