"""Dense and sparse (COO) matrix containers plus the elementary reductions.

All containers are immutable after construction and safe to share across
threads. Sums are exactly rounded by ``_exact_sum``, which adds the entries
per binary exponent with ``np.bincount`` in chunks and needs no Python list
of them, so they do not depend on order and repeated calls are bit-identical.
Every sum of squares comes from ``_squares``, which refuses one outside float
range.
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
    "coo_to_dense",
]

# Flat cell indices are int64, so an m x n matrix holds at most this many cells.
MAX_CELLS = int(np.iinfo(np.int64).max)


def check_cell_count(m: int, n: int, error: type[Exception], **where) -> None:
    """Raise ``error`` (with ``where`` as keywords) if an m x n matrix has more
    cells than int64 flat indices can address."""
    if m * n > MAX_CELLS:
        raise error(f"a {m}x{n} matrix has more than 2**63 - 1 cells", **where)


def _check_entries(m: int, n: int, values: np.ndarray) -> None:
    """The dimension and finiteness rules that every matrix container shares."""
    if m < 1 or n < 1:
        raise ShapeMismatchError(f"matrix dimensions must be >= 1, got ({m}, {n})")
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("matrix entries must be finite (no NaN/Inf)")


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable m-by-n real matrix with finite entries, row-major storage."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-d array, got ndim={a.ndim}")
        _check_entries(*a.shape, a)
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
        vals = np.array(self.vals, dtype=np.float64).reshape(-1)
        _check_entries(self.m, self.n, vals)
        check_cell_count(self.m, self.n, ShapeMismatchError)
        rows = np.array(self.rows, dtype=np.int64).reshape(-1)
        cols = np.array(self.cols, dtype=np.int64).reshape(-1)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeMismatchError("rows, cols and vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ShapeMismatchError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ShapeMismatchError("column index out of range")
        for a in (rows, cols, vals):
            a.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @property
    def nnz(self) -> int:
        return self.vals.shape[0]

    def canonicalize(self) -> "SparseCOO":
        """Sum duplicate cells and sort triples by (row, col). Triples whose
        cells already strictly increase are canonical: self comes back."""
        flat = self.rows * self.n + self.cols
        if np.all(flat[1:] > flat[:-1]):
            return self
        uniq, inverse = np.unique(flat, return_inverse=True)
        vals = np.bincount(inverse, weights=self.vals, minlength=uniq.shape[0])
        return SparseCOO(self.m, self.n, uniq // self.n, uniq % self.n, vals)


_CHUNK = 4096  # values per numpy pass, so the temporaries stay small
_BLOCK = 1 << 26  # values whose per-exponent float sums stay exact: each below 2^53
_EMIN = -1073  # np.frexp's exponent of the least subnormal; the largest double's is 1024
_BINS = 1024 - _EMIN + 1


def _exact_sum(a: np.ndarray) -> float:
    """Exactly rounded sum of a's entries, the float math.fsum(a.tolist())
    returns, built without that list; inf when it leaves float range.

    np.frexp splits each value into m * 2^e with 2^27 m = h + l, h an integer
    of at most 27 bits and l in [0, 1) a multiple of 2^-26. Per exponent,
    np.bincount sums the h and the l of up to 2^26 values, which is exact,
    and math.fsum adds the exactly scaled sums. Where a running sum of
    mixed-sign values leaves float range but the total does not, this returns
    that total, where math.fsum raises OverflowError. Non-finite entries sum as
    math.fsum sums them.
    """
    flat = a.reshape(-1)
    partials = []
    for block in range(0, flat.size, _BLOCK):
        hi, lo = np.zeros(_BINS), np.zeros(_BINS)
        with np.errstate(invalid="ignore"):  # inf - inf, for an infinite entry, is caught below
            for start in range(block, min(block + _BLOCK, flat.size), _CHUNK):
                mant, exp = np.frexp(flat[start : start + _CHUNK])
                exp -= _EMIN
                mant *= 1 << 27
                whole = np.floor(mant)
                hi += np.bincount(exp, whole, _BINS)
                lo += np.bincount(exp, np.subtract(mant, whole, out=mant), _BINS)
        if not np.isfinite(lo).all():
            return math.fsum(flat[~np.isfinite(flat)].tolist())
        bins = np.flatnonzero((hi != 0.0) | (lo != 0.0))
        partials += zip(np.concatenate((hi[bins], lo[bins])).tolist(), 2 * (bins + _EMIN - 27).tolist())
    try:
        return math.fsum(math.ldexp(v, e) for v, e in partials)
    except OverflowError:
        return math.inf


def _squares(flat: np.ndarray) -> tuple[np.ndarray, float]:
    """The squares of flat and their exact sum, 0.0 when every entry is 0; a
    nonzero flat whose squares underflow to 0 or overflow raises NonFiniteError."""
    with np.errstate(over="ignore"):  # an inf square is refused below
        sq = flat * flat
    sum_sq = _exact_sum(sq)
    if sum_sq == math.inf or (sum_sq == 0.0 and flat.any()):
        raise NonFiniteError(
            f"the squared entries sum to {sum_sq!r} (largest |x| is {float(np.abs(flat).max())!r}), "
            "outside float range; rescale the matrix"
        )
    return sq, sum_sq


def _nonzero_squares(flat: np.ndarray) -> tuple[np.ndarray, float]:
    """``_squares`` for what the zero matrix leaves undefined: the sampling
    distributions, the bounds and the stable rank. The one place that
    refuses the zero matrix, with ZeroMatrixError."""
    sq, sum_sq = _squares(flat)
    if sum_sq == 0.0:
        raise ZeroMatrixError("sampling distributions, bounds and stable rank are undefined for the zero matrix")
    return sq, sum_sq


def frobenius_norm(x: DenseMatrix) -> float:
    """sqrt of the exactly-accumulated sum of squared entries, 0.0 for the zero
    matrix; a nonzero matrix whose squares leave float range raises NonFiniteError."""
    return math.sqrt(_squares(x.flat())[1])


def entry_abs_sum(x: DenseMatrix) -> float:
    """Exactly-accumulated sum of absolute entries."""
    return _exact_sum(np.abs(x.flat()))


def _scatter(s: SparseCOO) -> np.ndarray:
    """The m x n float array of s, duplicate triples summed in triple order."""
    flat = np.bincount(s.rows * s.n + s.cols, weights=s.vals, minlength=s.m * s.n)
    return flat.astype(np.float64, copy=False).reshape(s.m, s.n)  # no triples bincount to int64


def coo_to_dense(s: SparseCOO) -> DenseMatrix:
    """Densify, accumulating duplicate triples."""
    return DenseMatrix(_scatter(s))
