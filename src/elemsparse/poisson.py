"""Multinomial(s, p) counts by Poissonization: the draw ``sampler`` takes
for 2 mn < s <= 2^53.

Independent counts N_j ~ Poisson(lam p_j), one vectorized draw per cell,
given their sum t are Multinomial(t, p) (Devroye 1986, *Non-Uniform Random
Variate Generation*, ch. XI; numpy draws each count by Hoermann's PTRS).
With lam a little below s the sum rarely passes s; a stage whose sum does
is drawn again, which conditions on t alone, and the s - t draws still
missing are added as i.i.d. inverse-CDF draws. Each count costs about 60 ns
against about 150 for each binomial of numpy's ``multinomial``.

Every array here holds at most _CHUNK + 1 values: the counts go into the
caller's array, and the running sum of p is formed a chunk at a time, so
the draw holds no array as long as p.
"""

from __future__ import annotations

import math

import numpy as np

# Cells per Poisson call and per chunk of the running sum of p, and draws per
# block of the top-up.
_CHUNK = 1 << 12

# Each Poisson stage aims at lam = s - _MARGIN * sqrt(s) draws, a sum above
# s about one time in 40, so the stage is drawn again that rarely and the
# top-up holds about _MARGIN * sqrt(s) draws.
_MARGIN = 2.0

# The most draws the Poisson path takes: each count is an exact integer draw
# in float64 up to 2^53.
_EXACT = 1 << 53


def _by_poisson(s: int, cells: int) -> bool:
    """Whether s draws over cells cells take the Poisson path: 2 mn < s <=
    2^53, and s > 4, so that each stage aims at lam = s - 2 sqrt(s) > 0
    draws. There one Poisson count per cell costs about 60 ns against 150
    for each binomial of ``multinomial`` (README, "How a sketch is drawn")."""
    return max(2 * cells, 4) < s <= _EXACT


def _running_sums(p: np.ndarray):
    """Yield (first, run), run = np.cumsum(p)[first : first + run.size] for
    first = 0, _CHUNK, 2 _CHUNK, ..., summed in np.cumsum's order in one
    scratch array of _CHUNK values, which each step overwrites."""
    below, scratch = 0.0, np.empty(min(p.size, _CHUNK))
    for first in range(0, p.size, _CHUNK):
        run = scratch[: min(_CHUNK, p.size - first)]
        np.copyto(run, p[first : first + run.size])
        run[0] += below
        below = float(np.cumsum(run, out=run)[-1])
        yield first, run


def _poisson_end(p: np.ndarray) -> tuple:
    """(end, head) for p, a distribution up to its last cell of positive
    probability, with no array as long as p. head is np.sum of p[:-1],
    within p.size * 2^-53 of its in-order running sum, which
    ``sampler._check_drawable`` checks as ``multinomial`` does. end is one
    past the last cell the Poisson path draws: p.size, or, where the
    in-order running sum of p[:-1] reaches 1, one past the first cell where
    it does, which takes the rest, as ``multinomial`` and the inverse-CDF
    table give it. Only a head that close to 1 runs that scan."""
    head = float(p[:-1].sum())
    if head >= 1.0 - p.size * 2.0**-52:
        for first, run in _running_sums(p[:-1]):
            if run[-1] >= 1.0:
                return first + int(np.searchsorted(run, 1.0)) + 1, head
    return p.size, head


def _poisson_stage(p: np.ndarray, lam: float, gen, counts: np.ndarray, op) -> int:
    """Draw N_j ~ Poisson(lam p_j) for every cell j of p, _CHUNK cells at a
    time, apply op (np.add or np.subtract) to counts[j] and N_j in place,
    and return the sum of the N_j."""
    total, means = 0, np.empty(min(p.size, _CHUNK))
    for first in range(0, p.size, _CHUNK):
        last = min(first + _CHUNK, p.size)
        drawn = gen.poisson(np.multiply(p[first:last], lam, out=means[: last - first]))
        total += int(drawn.sum())
        op(counts[first:last], drawn, out=counts[first:last])
    return total


def _poisson_counts(p: np.ndarray, s: int, seed: int, counts: np.ndarray) -> np.ndarray:
    """The counts of s i.i.d. draws from p, where the draw ends by
    ``_poisson_end``, by Poissonization from Generator(PCG64(seed)), written
    into counts, an int64 array at least as long as p (0 past p).

    While the draws left, s at first, pass ``_by_poisson``, a stage adds
    N_j ~ Poisson(lam p_j), lam = left - _MARGIN * sqrt(left), to every
    count. Where the N_j sum above left, the stream is wound back and the
    same stage taken out again, so it is drawn anew from where it ended.
    Independent Poissons given their sum t are Multinomial(t, p), and the
    redraw conditions on t alone. ``_top_up`` adds the at most 2 mn draws
    still left as i.i.d. draws, and Multinomial(t, p) plus
    Multinomial(s - t, p) is Multinomial(s, p)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    counts.fill(0)
    left = s
    while _by_poisson(left, counts.size):
        lam, state = left - _MARGIN * math.sqrt(left), gen.bit_generator.state
        total = _poisson_stage(p, lam, gen, counts, np.add)
        if total > left:
            gen.bit_generator.state = state
            _poisson_stage(p, lam, gen, counts, np.subtract)
        else:
            left -= total
    return _top_up(p, left, gen, counts)


def _top_up(p: np.ndarray, left: int, gen, counts: np.ndarray) -> np.ndarray:
    """Add left i.i.d. draws from p into counts[:p.size] and return counts.

    The draws are increasing uniforms: the k-th is the sum of the first k
    of left + 1 exponentials over the sum of all of them, which is
    distributed as the k-th smallest of left uniforms. The exponentials are
    drawn _CHUNK at a time, twice: once for their sum, then, from the same
    stream state, for the uniforms. The uniforms are merged with
    ``_running_sums(p)``: u goes to the first cell whose running sum passes
    u, and the last cell takes what the others leave."""
    if not left:
        return counts
    spacings = np.empty(min(left, _CHUNK) + 1)
    state, scale = gen.bit_generator.state, 0.0
    for k in range(left + 1, 0, -_CHUNK):
        scale += float(gen.standard_exponential(out=spacings[: min(k, _CHUNK)]).sum())
    gen.bit_generator.state = state
    u, below = spacings[:0], 0.0  # the uniforms not yet placed, and the sum of the exponentials before them
    for first, run in _running_sums(p):
        top = run[-1] if first + run.size < p.size else math.inf
        while True:
            if not u.size:
                if not left:
                    return counts
                u = gen.standard_exponential(out=spacings[: min(left, _CHUNK)])
                u[0] += below
                below = float(np.cumsum(u, out=u)[-1])
                left -= u.size
                u /= scale
            here = int(np.searchsorted(u, top))  # the uniforms below the chunk's last running sum
            if here:
                cells = np.searchsorted(run[:-1], u[:here], side="right")
                np.add(counts[first : first + run.size], np.bincount(cells, minlength=run.size),
                       out=counts[first : first + run.size])
            u = u[here:]
            if u.size:
                break
    return counts
