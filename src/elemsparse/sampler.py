"""With-replacement cell sampling and construction of the sparse sketch.

The sketch of X from a sample multiset Omega of s cells is
``(1/s) * sum_t X[i_t, j_t] / p[i_t, j_t]`` placed at cell (i_t, j_t), so it
depends only on how many times each cell was drawn: a ``SampleSet`` holds
those per-cell counts, not the draws. The counts of s i.i.d. draws are
Multinomial(s, p), drawn from a seeded PCG64 stream by one of three paths,
which ``_by_table`` and ``_by_poisson`` pick from s and the cell count mn
alone. Where s <= 2 mn and mn <= 2^15, s uniforms are looked up in the
cumulative table of p through a guide table (inverse-CDF sampling; Chen &
Asau 1974): an O(mn) build, then a few steps per uniform. Where
2 mn < s <= 2^53, one Poisson draw per cell, redrawn while the counts sum
above s, plus an inverse-CDF top-up of the draws still missing, gives the
same law in O(mn) (Poissonization, the ``poisson`` module). Elsewhere one
``multinomial`` call draws them in O(mn) whatever s is. Either way a
(distribution, s, seed) triple always regenerates the identical sample
under one numpy version (numpy promises no stream across versions).

``_draw_rule`` owns that rule and sets up each distribution's draw once;
``draw_samples`` draws once through it, and the Monte-Carlo harness takes
one ``_trial_fill`` per distribution, which draws each trial's counts and
turns them into S - X in the trial worker's buffer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionKind, SamplingDistribution, _certified_beta, _check_shape, distribution_for_kind
from .errors import InvalidSpecError, ShapeMismatchError, ZeroProbabilityError, _integer
from .matrix import DenseMatrix, SparseCOO
from .poisson import _by_poisson, _poisson_counts, _poisson_end

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


_SUM_LIMIT = 1.0 + 1e-12  # numpy's multinomial refuses p whose leading entries sum above this

# The table path draws and looks up this many uniforms at a time, and a
# trial fill turns this many counts at a time into S - X, through scratch
# arrays of this length: memory O(1) in s.
_CHUNK = 1 << 12

# Full-vector steps of the fix-up scan before the draws still short of their
# cell are found by binary search. With G >= mn buckets a quarter of the
# draws are one cell short, and the worst of 4096 draws rarely seven.
_SCAN = 16


def _by_table(s: int, cells: int) -> bool:
    """Whether s draws over cells cells take the inverse-CDF path: s up to
    2 mn for mn up to 2^15, never for more cells. There one table build plus
    one draw measured no slower than one ``multinomial`` call (README, "How
    a sketch is drawn"). Past 2^15 cells each chunk's tally over all mn cells
    and the table's 12 or so bytes a cell outweigh the gain: through the table, a
    one-shot ``sparsify`` of a 500x500 matrix peaked 3.3 MiB higher."""
    return cells <= 1 << 15 and s <= 2 * cells


def _multinomial(probs: np.ndarray, s: int, seed: int) -> np.ndarray:
    try:
        return np.random.Generator(np.random.PCG64(seed)).multinomial(s, probs)
    except ValueError as exc:  # numpy refuses p whose leading sum is above 1 + 1e-12
        raise InvalidSpecError(f"cannot draw from these probabilities: {exc}") from None


def _check_drawable(p: np.ndarray, head: float) -> None:
    """Refuse p, given head, the sum of p[:-1] in order or by np.sum, as
    numpy's ``multinomial`` refuses it: whenever head, within p.size * 2^-53
    of numpy's sum, does not settle numpy's verdict, or an entry is
    negative, NaN or above 1, numpy's own check runs on p and raises its
    refusal."""
    if not (p.min() >= 0.0 and p.max() <= 1.0) or head > _SUM_LIMIT - p.size * 2.0**-52:
        _multinomial(p, 0, 0)  # raises numpy's refusal; returns if numpy draws from p


def _inverse_cdf(p: np.ndarray) -> tuple:
    """(cdf, guide), the table of p, a distribution's probabilities up to its
    last cell of positive probability, in O(mn).

    cdf is the running sum of p, clipped to 1 and ending at exactly 1.0, so
    the last cell takes what the others leave, as numpy's ``multinomial``
    gives it; a cell of probability 0 repeats its predecessor's value and is
    never drawn. With G = guide.size - 1, the power of two at least p.size,
    guide[b] is the first cell with cdf > b / G: a uniform u in bucket
    floor(u G) belongs to the first cell with cdf > u, which lies in
    guide[b] .. guide[b + 1]. It refuses what ``multinomial`` refuses
    (``_check_drawable``)."""
    end = p.size
    cdf = np.cumsum(p)
    head = float(cdf[-2]) if end > 1 else 0.0
    _check_drawable(p, head)
    if head > 1.0:
        np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    buckets = 1 << (end - 1).bit_length()
    guide = np.zeros(buckets + 1, dtype=np.int16 if end < 2**15 else np.int32)  # holds 0 .. end
    edges = np.empty(min(end, _CHUNK))
    for lo in range(0, end, _CHUNK):  # guide[b] counts the cells with ceil(cdf G) <= b
        part = edges[: min(_CHUNK, end - lo)]
        np.ceil(np.multiply(cdf[lo : lo + _CHUNK], buckets, out=part), out=part)  # exact: G is a power of two
        first = int(part[0])
        tally = np.bincount(part.astype(np.intp) - first)  # part is sorted, so this spans its own buckets
        guide[first : first + tally.size] += tally
    return cdf, np.cumsum(guide, out=guide)


def _table_counts(table: tuple, s: int, seed: int, counts: np.ndarray) -> np.ndarray:
    """The counts of np.searchsorted(cdf, u, side="right") over
    u = Generator(PCG64(seed)).random(s), written into counts, an int64
    array as long as probs, _CHUNK uniforms at a time. Each chunk's cells
    are tallied by one bincount over all mn cells, which ``_by_table``
    keeps few."""
    cdf, guide = table
    buckets = guide.size - 1
    counts.fill(0)
    gen = np.random.Generator(np.random.PCG64(seed))
    n = min(s, _CHUNK)
    chunk = np.empty(n), np.empty(n), np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
    for start in range(0, s, n):
        u, at, cell, short = (a[: min(n, s - start)] for a in chunk)
        guess = at.view(guide.dtype)[: u.size]  # the guide's cells, in at until at is needed
        gen.random(out=u)
        np.multiply(u, buckets, out=cell, casting="unsafe")  # the bucket floor(u G), exactly
        np.take(guide, cell, out=guess, mode="clip")  # clip, as every index is in range: "raise" buffers out
        np.copyto(cell, guess)
        for _ in range(_SCAN):  # step each draw whose cell lies below its uniform
            np.take(cdf, cell, out=at, mode="clip")
            if not np.less_equal(at, u, out=short).any():
                break
            np.add(cell, short.view(np.uint8), out=cell)  # as bytes: no bool-to-intp cast
        else:  # draws still short, as in one bucket of many tiny cells
            behind = np.flatnonzero(short)
            cell[behind] = np.searchsorted(cdf, u[behind], side="right")
        np.add(counts, np.bincount(cell, minlength=counts.size), out=counts)
    return counts


def _draw_rule(probs: np.ndarray, s: int):
    """s i.i.d. draws from probs, set up once per distribution: s is checked
    (an integer from 1 to 2^63 - 1, the most int64 counts hold), the support
    found and the path chosen, and, where ``_by_table(s, probs.size)``
    holds, the table built, so no draw repeats any of it. probs numpy will
    not draw from are refused with numpy's message on every path: here on
    the table and Poisson paths, at each draw by ``multinomial``.

    Returns draw(seed, into=None) -> counts: how many of the s draws from
    PCG64(seed mod 2^64) hit each cell, an int64 array as long as probs.
    into, when given, is an int64 array as long as probs that the draw may
    overwrite. On the table path the counts are those of
    ``np.searchsorted(cdf, u, side="right")`` over u = ``random(s)``,
    written into into, or into a new array when into is None, and so are
    those of the Poisson path (``_by_poisson``), ``poisson._poisson_counts``.
    Elsewhere they are one ``multinomial(s, probs)`` draw, a new array
    whatever into is.

    Every path ends the draw at the last cell of positive probability, which
    takes what the others leave, float rounding of the running sum
    included: no count lands on a cell of probability 0. numpy lets the
    running sum of all cells but the last pass 1 by up to 1e-12; then
    ``multinomial`` and the table give every cell after the one where it
    reaches 1 nothing, and the Poisson path ends its draw at that cell.

    The Poisson path stops at s = 2^53, up to which every Poisson count is
    an exact integer in float64. Above it, numpy's ``multinomial`` draws each
    count but the last as a float64 binomial, exact only up to s = 2^53: the
    hybrid of [[3, 4], [0, 0]] at s = 2^63 - 1, seed 0, draws
    3636643833541878272, a multiple of 512, for its first cell, so the
    sketch is unbiased only to about 1e-16 relative. The counts still sum
    to s exactly.
    """
    s = _integer(s, "sample count")
    if s > (1 << 63) - 1:
        raise InvalidSpecError(f"sample count {s} is more than 2**63 - 1, the most int64 counts hold")
    if s < 1:
        raise InvalidSpecError(f"sample count must be >= 1, got {s}")
    cells = probs.size
    end = cells if probs[-1] > 0.0 else int(np.flatnonzero(probs)[-1]) + 1  # one past the last cell of p > 0
    table = _inverse_cdf(probs[:end]) if _by_table(s, cells) else None
    poisson = _by_poisson(s, cells)
    if poisson:  # checked without a table; the draw ends where the running sum reaches 1
        stop, head = _poisson_end(probs[:end])
        _check_drawable(probs[:end], head)
        end = stop
    p = probs[:end]

    def draw(seed: int, into: np.ndarray | None = None) -> np.ndarray:
        seed = _integer(seed, "seed") & _SEED_MASK  # index(): a numpy integer & 2^64 - 1 overflows
        if table is not None:
            return _table_counts(table, s, seed, np.empty(cells, dtype=np.int64) if into is None else into)
        if poisson:
            return _poisson_counts(p, s, seed, np.empty(cells, dtype=np.int64) if into is None else into)
        counts = _multinomial(p, s, seed)
        if end < cells:  # the trailing cells of probability 0, never drawn
            counts = np.concatenate((counts, np.zeros(cells - end, dtype=np.int64)))
        return counts

    return draw


def build_alias_table(d: SamplingDistribution) -> SamplingDistribution:
    """Deprecated identity: returns d, which ``draw_samples`` takes. Kept only
    for callers written against the alias-table sampler; the benchmark
    revision of ROADMAP item 1 deletes it."""
    return d


def draw_samples(d: SamplingDistribution, s: int, seed: int) -> SampleSet:
    """s i.i.d. with-replacement draws from d, counted per cell; a pure
    function of (d, s, seed mod 2^64), the seed the SampleSet records."""
    counts = _draw_rule(d.probs, s)(seed)
    cells = np.flatnonzero(counts)
    return SampleSet(d.m, d.n, s, cells, counts[cells], operator.index(seed) & _SEED_MASK)


def _cell_values(counts, x, sp, out: np.ndarray) -> np.ndarray:
    """The sketch's value counts * x / sp at each cell, sp = s * p, written
    into out. It is computed only where sp > 0, so a cell of probability 0,
    never drawn, keeps counts * x = 0."""
    np.multiply(counts, x, out=out)
    return np.divide(out, sp, out=out, where=sp > 0.0)


def _trial_fill(x: DenseMatrix, d: SamplingDistribution, s: int):
    """A trial's draw and S - X for d at s, set up once by ``_draw_rule``.

    Returns fill(seed, diff) -> nnz, which writes S - X = counts * x /
    (s * p) - x into diff, a float64 array of mn cells, and returns the
    sketch's count of distinct cells. S - X is formed ``_CHUNK`` cells at a
    time through ``_cell_values``, so it is bit for bit the densified
    ``sparsify(x, s, seed, d.kind)`` sketch minus X, with no mn array beside
    diff beyond the counts a ``multinomial`` draw returns. The table and
    Poisson paths count into diff itself, seen as int64: each chunk of
    counts is read before its cells are written.
    """
    draw, xf, probs = _draw_rule(d.probs, s), x.flat(), d.probs

    def fill(seed: int, diff: np.ndarray) -> int:
        counts = draw(seed, diff.view(np.int64))
        nnz = np.count_nonzero(counts)
        n = min(xf.size, _CHUNK)
        chunk = np.empty(n), np.empty(n)
        for lo in range(0, xf.size, n):
            hi = min(lo + n, xf.size)
            c, sp = (a[: hi - lo] for a in chunk)
            np.copyto(c, counts[lo:hi])
            np.multiply(s, probs[lo:hi], out=sp)
            np.subtract(_cell_values(c, xf[lo:hi], sp, diff[lo:hi]), xf[lo:hi], out=diff[lo:hi])
        return nnz

    return fill


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
