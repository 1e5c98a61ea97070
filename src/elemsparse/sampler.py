"""With-replacement cell sampling and construction of the sparse sketch.

The sketch of X from a sample multiset Omega of s cells is
``(1/s) * sum_t X[i_t, j_t] / p[i_t, j_t]`` placed at cell (i_t, j_t), so it
depends only on how many times each cell was drawn: a ``SampleSet`` holds
those per-cell counts, not the draws. The counts of s i.i.d. draws are
Multinomial(s, p), so they are drawn by one ``multinomial`` call on a seeded
PCG64 stream: O(mn) work and memory whatever s is, and a (distribution, s,
seed) triple always regenerates the identical sample under one numpy
version (numpy promises no stream across versions).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionKind, SamplingDistribution, _certified_beta, _check_shape, distribution_for_kind
from .errors import InvalidSpecError, ShapeMismatchError, ZeroProbabilityError, _integer
from .matrix import DenseMatrix, SparseCOO

__all__ = [
    "SampleSet",
    "SparseSketch",
    "build_alias_table",
    "draw_samples",
    "sampling_operator",
    "sparsify",
    "exact_expectation",
]

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SampleSet:
    """The multiset of s cells drawn from an m-by-n grid, plus its seed.

    ``cells`` are the distinct row-major flat indices that were drawn, in
    strictly increasing order; ``counts[k]`` is how many of the s draws hit
    ``cells[k]``, so every count is positive and they sum to s.
    """

    m: int
    n: int
    s: int
    cells: np.ndarray
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        if self.s < 1:
            raise InvalidSpecError(f"sample count must be >= 1, got {self.s}")
        cells = np.array(self.cells, dtype=np.int64)
        counts = np.array(self.counts, dtype=np.int64)
        if cells.ndim != 1 or counts.shape != cells.shape:
            raise ShapeMismatchError(
                f"cells and counts must be 1-d of equal length, got {cells.shape} and {counts.shape}"
            )
        if np.any(cells[1:] <= cells[:-1]):
            raise InvalidSpecError("sample cells must be strictly increasing")
        if cells.size and (cells[0] < 0 or cells[-1] >= self.m * self.n):
            raise ShapeMismatchError(f"sample cells out of range for a {self.m}x{self.n} matrix")
        if np.any(counts < 1) or int(counts.sum()) != self.s:
            raise InvalidSpecError(f"sample counts must be positive and sum to s={self.s}")
        cells.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True, eq=False)
class SparseSketch:
    """COO sketch together with the sampling provenance that built it."""

    matrix: SparseCOO
    s: int
    source_seed: int
    distribution_kind: DistributionKind


def _draw_counts(probs: np.ndarray, s: int, seed: int) -> np.ndarray:
    """How many of s i.i.d. draws from probs hit each cell: one
    Multinomial(s, probs) draw from PCG64(seed mod 2^64), an int64 array as
    long as probs. An s or seed that is not an integer, s above 2^63 - 1
    (the most int64 counts hold) or below 1, and probs numpy will not draw
    from are refused.

    numpy gives the last category whatever the others leave, float rounding
    of the running remainder included, so the draw ends at the last cell of
    positive probability: no count lands on a trailing cell of probability 0.

    numpy computes each other count as a float64 binomial draw, so counts are
    exact draws only up to s = 2^53. Above it they are rounded to float64:
    the hybrid of [[3, 4], [0, 0]] at s = 2^63 - 1, seed 0, draws
    3636643833541878272, a multiple of 512, for its first cell, and the
    sketch is unbiased only to about 1e-16 relative. The counts still sum to
    s exactly.
    """
    s = _integer(s, "sample count")
    if s > (1 << 63) - 1:
        raise InvalidSpecError(f"sample count {s} is more than 2**63 - 1, the most int64 counts hold")
    if s < 1:
        raise InvalidSpecError(f"sample count must be >= 1, got {s}")
    seed = _integer(seed, "seed") & _SEED_MASK  # index(): a numpy integer & 2^64 - 1 overflows
    end = probs.size if probs[-1] > 0.0 else int(np.flatnonzero(probs)[-1]) + 1
    counts = np.zeros(probs.size, dtype=np.int64)
    try:
        counts[:end] = np.random.Generator(np.random.PCG64(seed)).multinomial(s, probs[:end])
    except ValueError as exc:  # numpy refuses p whose leading sum is above 1 + 1e-12
        raise InvalidSpecError(f"cannot draw from these probabilities: {exc}") from None
    return counts


def build_alias_table(d: SamplingDistribution) -> SamplingDistribution:
    """Deprecated identity: returns d, which ``draw_samples`` takes. Kept only
    for callers written against the alias-table sampler; the benchmark
    revision of ROADMAP item 1 deletes it."""
    return d


def draw_samples(d: SamplingDistribution, s: int, seed: int) -> SampleSet:
    """s i.i.d. with-replacement draws from d, counted per cell; a pure
    function of (d, s, seed mod 2^64), the seed the SampleSet records."""
    counts = _draw_counts(d.probs, s, seed)
    cells = np.flatnonzero(counts)
    return SampleSet(d.m, d.n, s, cells, counts[cells], operator.index(seed) & _SEED_MASK)


def _cell_values(counts, x, sp, out: np.ndarray) -> np.ndarray:
    """The sketch's value counts * x / sp at each cell, sp = s * p, written
    into out. It is computed only where sp > 0, so a cell of probability 0,
    never drawn, keeps counts * x = 0."""
    np.multiply(counts, x, out=out)
    return np.divide(out, sp, out=out, where=sp > 0.0)


def sampling_operator(
    x: DenseMatrix, d: SamplingDistribution, omega: SampleSet
) -> SparseSketch:
    """Assemble the sketch: cell value = (times drawn) * x_ij / (s * p_ij)."""
    if (x.m, x.n) != (d.m, d.n) or (omega.m, omega.n) != (d.m, d.n):
        raise ShapeMismatchError(
            f"matrix shape {x.shape}, distribution shape ({d.m}, {d.n}) and "
            f"sample shape ({omega.m}, {omega.n}) must agree"
        )
    cells = omega.cells
    p = d.probs[cells]
    if np.any(p <= 0.0):
        raise ZeroProbabilityError(
            "sample contains a cell with zero probability; "
            "the sample set does not belong to this distribution"
        )
    vals = _cell_values(omega.counts, x.flat()[cells], omega.s * p, np.empty(cells.size))
    coo = SparseCOO(x.m, x.n, cells // x.n, cells % x.n, vals)
    return SparseSketch(coo, omega.s, omega.seed, d.kind)


def sparsify(
    x: DenseMatrix, s: int, seed: int, kind=DistributionKind.HYBRID
) -> SparseSketch:
    """End-to-end: build the kind's distribution, draw s cells, assemble.

    A distribution that gives a nonzero entry probability 0 (certificate 0)
    is refused with ZeroProbabilityError: that entry is never drawn, so the
    sketch would be biased.
    """
    d = distribution_for_kind(x, kind)
    _certified_beta(x, d)
    return sampling_operator(x, d, draw_samples(d, s, seed))


def exact_expectation(x: DenseMatrix, d: SamplingDistribution) -> DenseMatrix:
    """Expected sketch: X restricted to the support of d (equals X whenever
    every nonzero cell has positive probability)."""
    _check_shape(x, d)
    return DenseMatrix(np.where(d.grid() > 0.0, x.data, 0.0))
