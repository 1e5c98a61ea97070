"""With-replacement cell sampling and construction of the sparse sketch.

The sketch of X from a sample multiset Omega of s cells is
``(1/s) * sum_t X[i_t, j_t] / p[i_t, j_t]`` placed at cell (i_t, j_t), so it
depends only on how many times each cell was drawn: a ``SampleSet`` holds
those per-cell counts, not the draws. Draws use an alias table (O(1) per
draw after O(mn) setup) fed by a seeded PCG64 stream that is consumed in
blocks and counted per block, so no array of length s is ever held; per
draw, two uniforms are consumed in fixed order (slot, then coin), so a
(distribution, s, seed) triple always regenerates the identical sample.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionKind, SamplingDistribution, distribution_for_kind
from .errors import InvalidSpecError, ShapeMismatchError, ZeroProbabilityError
from .matrix import DenseMatrix, SparseCOO

__all__ = [
    "AliasTable",
    "SampleSet",
    "SparseSketch",
    "build_alias_table",
    "reconstructed_probs",
    "draw_samples",
    "sampling_operator",
    "sparsify",
    "exact_expectation",
]

_SEED_MASK = (1 << 64) - 1

# Least draws per block: 2 * 2**16 uniforms (1 MiB) stay in cache.
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class AliasTable:
    """Walker/Vose table over the mn cells of an m-by-n probability grid."""

    m: int
    n: int
    prob: np.ndarray
    alias: np.ndarray

    @property
    def size(self) -> int:
        return self.m * self.n


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


def _alias_build(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose two-stack construction of the (prob, alias) arrays.

    Cells with scaled probability below 1 start on the small stack, the rest
    on the large one, each in increasing index order. Each step pops one cell
    from each; the small cell ``lo`` keeps ``prob = scaled[lo]`` and aliases
    the large cell ``hi``, whose scaled value becomes
    ``(scaled[hi] + scaled[lo]) - 1.0`` and which is pushed back on the stack
    that value belongs to. Stack layout, pop order and that float expression
    are fixed, so a distribution always builds the same table, bit for bit.
    Cells left on either stack keep prob=1 and alias themselves.

    The loop runs on ``array.array`` buffers: they index to plain Python
    floats and ints, several times cheaper per step than numpy scalars, and
    hold 8 bytes per cell rather than a Python object. A popped small cell
    is never pushed again, so its final scaled value is its prob.
    """
    size = probs.shape[0]
    scaled_np = probs * size
    cells = np.arange(size, dtype=np.int64)
    scaled = array("d", scaled_np.tobytes())
    alias = array("q", cells.tobytes())
    small = array("q", np.flatnonzero(scaled_np < 1.0).tobytes())
    large = array("q", np.flatnonzero(scaled_np >= 1.0).tobytes())
    pop_small, push_small = small.pop, small.append
    pop_large, push_large = large.pop, large.append
    while small and large:
        lo = pop_small()
        hi = pop_large()
        alias[lo] = hi
        scaled[hi] = rest = (scaled[hi] + scaled[lo]) - 1.0
        if rest < 1.0:
            push_small(hi)
        else:
            push_large(hi)
    alias_np = np.frombuffer(alias, dtype=np.int64)
    prob = np.where(alias_np != cells, np.frombuffer(scaled, dtype=np.float64), 1.0)
    return prob, alias_np


def _alias_draw(prob, alias, u_slot, u_coin) -> np.ndarray:
    """Flat cell index per draw: slot k = trunc(u_slot * size), clamped to
    size - 1 in case the product rounds up to size; keep k when
    u_coin < prob[k], else take alias[k]."""
    size = prob.shape[0]
    k = (u_slot * size).astype(np.int64)
    np.minimum(k, size - 1, out=k)
    return np.where(u_coin < prob[k], k, alias[k])


def build_alias_table(d: SamplingDistribution) -> AliasTable:
    prob, alias = _alias_build(d.probs)
    prob.setflags(write=False)
    alias.setflags(write=False)
    return AliasTable(d.m, d.n, prob, alias)


def reconstructed_probs(table: AliasTable) -> np.ndarray:
    """Invert the table back to per-cell probabilities (diagnostic)."""
    moved = np.bincount(table.alias, weights=1.0 - table.prob, minlength=table.size)
    return (table.prob + moved) / table.size


def draw_samples(table: AliasTable, s: int, seed: int) -> SampleSet:
    """s i.i.d. with-replacement draws, counted per cell; a pure function of
    (table, s, seed mod 2^64), the seed the SampleSet records.

    The stream is consumed in blocks; consecutive ``random`` calls continue
    one stream, so the counts equal those of a single ``(s, 2)`` call. Each
    block's ``bincount`` costs O(mn), so a block holds at least mn draws and
    the whole draw stays O(s + mn).
    """
    seed = operator.index(seed) & _SEED_MASK  # index(): a numpy integer & 2^64 - 1 overflows
    rng = np.random.Generator(np.random.PCG64(seed))
    size = table.size
    block = max(_DRAW_BLOCK, size)
    total = np.zeros(size, dtype=np.int64)
    for start in range(0, s, block):
        u = rng.random((min(block, s - start), 2))
        total += np.bincount(_alias_draw(table.prob, table.alias, u[:, 0], u[:, 1]), minlength=size)
    cells = np.flatnonzero(total)
    return SampleSet(table.m, table.n, s, cells, total[cells], seed)


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
    vals = omega.counts * x.flat()[cells] / (omega.s * p)
    coo = SparseCOO(x.m, x.n, cells // x.n, cells % x.n, vals)
    return SparseSketch(coo, omega.s, omega.seed, d.kind)


def sparsify(
    x: DenseMatrix, s: int, seed: int, kind=DistributionKind.HYBRID
) -> SparseSketch:
    """End-to-end: build the kind's distribution, draw s cells, assemble."""
    d = distribution_for_kind(x, kind)
    table = build_alias_table(d)
    omega = draw_samples(table, s, seed)
    return sampling_operator(x, d, omega)


def exact_expectation(x: DenseMatrix, d: SamplingDistribution) -> DenseMatrix:
    """Expected sketch: X restricted to the support of d (equals X whenever
    every nonzero cell has positive probability)."""
    if (x.m, x.n) != (d.m, d.n):
        raise ShapeMismatchError(
            f"distribution shape ({d.m}, {d.n}) does not match matrix shape {x.shape}"
        )
    return DenseMatrix(np.where(d.grid() > 0.0, x.data, 0.0))
