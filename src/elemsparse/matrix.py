"""Dense and sparse (COO) matrix containers plus the elementary reductions.

All containers are immutable after construction and safe to share across
threads. Reductions run in fixed row-major order with exactly-rounded
accumulation (``math.fsum``), so repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, ZeroMatrixError

__all__ = [
    "DenseMatrix",
    "SparseCOO",
    "frobenius_norm",
    "entry_abs_sum",
    "stable_rank",
    "coo_to_dense",
]


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable m-by-n real matrix with finite entries, row-major storage."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-d array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeMismatchError(f"matrix dimensions must be >= 1, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def flat(self) -> np.ndarray:
        """Row-major flattened view of the entries."""
        return self.data.reshape(-1)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.data.T)

    def is_zero(self) -> bool:
        return not np.any(self.data)


@dataclass(frozen=True, eq=False)
class SparseCOO:
    """Sparse matrix in coordinate form; duplicate (i, j) triples are allowed
    and accumulate (sum) on densification or canonicalization."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ShapeMismatchError(f"matrix dimensions must be >= 1, got ({self.m}, {self.n})")
        rows = np.array(self.rows, dtype=np.int64).reshape(-1)
        cols = np.array(self.cols, dtype=np.int64).reshape(-1)
        vals = np.array(self.vals, dtype=np.float64).reshape(-1)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeMismatchError("rows, cols and vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ShapeMismatchError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ShapeMismatchError("column index out of range")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("matrix entries must be finite (no NaN/Inf)")
        for a in (rows, cols, vals):
            a.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @property
    def nnz(self) -> int:
        return self.vals.shape[0]

    def canonicalize(self) -> "SparseCOO":
        """Sum duplicate cells and sort triples by (row, col)."""
        flat = self.rows * self.n + self.cols
        uniq, inverse = np.unique(flat, return_inverse=True)
        vals = np.bincount(inverse, weights=self.vals, minlength=uniq.shape[0])
        return SparseCOO(self.m, self.n, uniq // self.n, uniq % self.n, vals)


def _exact_sum(a: np.ndarray) -> float:
    """Exactly rounded sum of a's entries; inf when it overflows."""
    try:
        return math.fsum(a.tolist())
    except OverflowError:
        return math.inf


def frobenius_norm(x: DenseMatrix) -> float:
    """sqrt of the exactly-accumulated sum of squared entries."""
    flat = x.flat()
    return math.sqrt(_exact_sum(flat * flat))


def entry_abs_sum(x: DenseMatrix) -> float:
    """Exactly-accumulated sum of absolute entries."""
    return _exact_sum(np.abs(x.flat()))


def stable_rank(x: DenseMatrix, spectral_tol: float = 1e-9) -> float:
    """Squared Frobenius norm over squared top singular value; in [1, min(m, n)]
    up to the spectral estimator's tolerance."""
    f = frobenius_norm(x)
    if f == 0.0:
        raise ZeroMatrixError("stable rank is undefined for the zero matrix")
    return _stable_rank(x, f, spectral_tol)


def _stable_rank(x: DenseMatrix, frobenius: float, spectral_tol: float) -> float:
    """Stable rank of x from its known Frobenius norm: one sigma_1 solve."""
    from .spectral import SpectralConfig, spectral_norm

    top = spectral_norm(x, SpectralConfig(tol=spectral_tol)).value
    return (frobenius * frobenius) / (top * top)


def coo_to_dense(s: SparseCOO) -> DenseMatrix:
    """Densify, accumulating duplicate triples."""
    out = np.zeros((s.m, s.n))
    np.add.at(out, (s.rows, s.cols), s.vals)
    return DenseMatrix(out)
