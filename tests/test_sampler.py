import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemsparse import (
    DenseMatrix,
    DistributionKind,
    ElemsparseError,
    GeneratorSpec,
    InvalidSpecError,
    SampleSet,
    ShapeMismatchError,
    ZeroProbabilityError,
    build_alias_table,
    custom_distribution,
    distribution_for_kind,
    draw_samples,
    generate_matrix,
    hybrid_distribution,
    l1_distribution,
    sampling_operator,
    sketch_error,
    sparsify,
)
from elemsparse.matrix import coo_to_dense
from elemsparse import sampler
from elemsparse.sampler import _by_table, _draw_rule, _inverse_cdf, exact_expectation

# chi-square inverse CDF at 0.999 with df=3 and df=19, frozen from scipy.stats.chi2.ppf
CHI2_DF3_999 = 16.26623619623813
CHI2_DF19_999 = 43.82019596451753

# step-4 values for X=[[3,4],[0,0]] under hybrid p=[69/175, 106/175]:
# 3/(2 p00), 4/(2 p01), and the duplicate case 2*4/(2 p01)
VAL_00 = 525 / 138
VAL_01 = 700 / 212
VAL_01_DUP = 700 / 106


def _omega(pairs, shape=(2, 2), seed=0):
    m, n = shape
    cells, counts = np.unique([i * n + j for i, j in pairs], return_counts=True)
    return SampleSet(m, n, len(pairs), cells, counts, seed)


def _cell_counts(omega):
    """Times drawn for every one of the mn cells, drawn or not."""
    out = np.zeros(omega.m * omega.n, dtype=np.int64)
    out[omega.cells] = omega.counts
    return out


def _same_sample(a, b):
    return (
        (a.m, a.n, a.s, a.seed) == (b.m, b.n, b.s, b.seed)
        and np.array_equal(a.cells, b.cells)
        and np.array_equal(a.counts, b.counts)
    )


def test_point_mass_always_drawn():
    x = DenseMatrix(np.array([[0.0, 7.0], [0.0, 0.0]]))
    d = hybrid_distribution(x)  # all mass on cell (0,1)
    omega = draw_samples(d, 50, seed=123)
    assert omega.cells.tolist() == [1]  # row-major cell (0, 1)
    assert omega.counts.tolist() == [50]


def test_uniform_four_cells_chi_square():
    d = custom_distribution(
        DenseMatrix(np.ones((2, 2))), np.full(4, 0.25)
    )
    counts = _cell_counts(draw_samples(d, 10**6, seed=99))
    expected = 250_000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 <= CHI2_DF3_999


def test_toy_hybrid_draw_frequencies(toy):
    d = hybrid_distribution(toy)
    n_draws = 10**6
    counts = _cell_counts(draw_samples(d, n_draws, seed=7))
    assert counts[2] == 0 and counts[3] == 0  # zero-probability cells never drawn
    for k in (0, 1):
        p = d.probs[k]
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert abs(counts[k] - n_draws * p) <= 3 * sigma


def test_draw_determinism(toy):
    d = hybrid_distribution(toy)
    a = draw_samples(d, 1000, seed=42)
    b = draw_samples(d, 1000, seed=42)
    assert _same_sample(a, b)
    assert a.seed == b.seed == 42
    c = draw_samples(d, 1000, seed=43)
    assert not np.array_equal(a.counts, c.counts)
    # a seed is reduced mod 2^64, and the sample records the reduced seed
    assert _same_sample(draw_samples(d, 1000, seed=42 + 2**64), a)
    assert _same_sample(draw_samples(d, 1000, seed=np.int64(42)), a)


def test_draw_validation(toy):
    d = hybrid_distribution(toy)
    with pytest.raises(ElemsparseError):
        draw_samples(d, 0, seed=1)
    # a fractional s would draw floor(s) cells while the sketch divides by s,
    # so it is refused before the draw, and so is a fractional seed
    with pytest.raises(InvalidSpecError, match=r"^sample count must be an integer, got 10\.5$"):
        _draw_rule(d.probs, 10.5)(0)
    with pytest.raises(InvalidSpecError, match=r"^sample count must be an integer, got 10\.0$"):
        draw_samples(d, 10.0, seed=1)
    with pytest.raises(InvalidSpecError, match=r"^seed must be an integer, got 1\.5$"):
        draw_samples(d, 10, 1.5)
    assert _same_sample(draw_samples(d, np.int64(10), np.uint64(1)), draw_samples(d, 10, 1))
    # counts are int64: a larger s is refused before any draw, not drawn for ages
    for s in (2**63, 10**300):
        with pytest.raises(InvalidSpecError, match=r"more than 2\*\*63 - 1"):
            draw_samples(d, s, seed=1)
    omega = draw_samples(d, 17, seed=1)
    assert (omega.m, omega.n, omega.s) == (2, 2, 17)
    assert omega.cells.shape == omega.counts.shape
    assert omega.cells.min() >= 0 and omega.cells.max() < 4
    assert omega.counts.sum() == 17


def test_largest_s_draws_at_once(toy):
    # one multinomial call costs O(mn) whatever s is; toy's trailing cells
    # have probability 0, and the count left by rounding goes to the last
    # cell of the support, never to them
    assert not _by_table(2**63 - 1, 4)
    omega = draw_samples(hybrid_distribution(toy), 2**63 - 1, seed=0)
    assert omega.cells.tolist() == [0, 1]
    assert int(omega.counts.sum()) == 2**63 - 1


def test_build_alias_table_is_a_deprecated_identity(toy):
    d = hybrid_distribution(toy)
    assert build_alias_table(d) is d


# Sketches of the 4x5 low-rank-plus-noise matrix of seed 2 at seed 11, as
# numpy 2.4 draws them: at s = 60 (s / mn = 3) by multinomial, and at s = 40
# (s / mn = 2, the most the rule sends to the table) through the inverse-CDF
# table from Generator.random. numpy promises no stream across versions
# (NEP 19), so a version that moves either stream fails here.
PINNED = {
    "hybrid": ([0, 1, 2, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 18, 19], [3, 1, 6, 1, 1, 5, 24, 7, 1, 3, 1, 1, 1, 3, 2]),
    "l1": (
        [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19],
        [3, 2, 6, 1, 2, 1, 4, 17, 7, 1, 1, 4, 1, 1, 1, 2, 3, 3],
    ),
    "l2": ([0, 1, 2, 6, 7, 8, 9, 12, 13, 17, 18, 19], [3, 1, 6, 1, 5, 19, 12, 4, 1, 1, 6, 1]),
}
PINNED_TABLE = {
    "hybrid": ([0, 2, 4, 6, 7, 8, 9, 10, 12, 13, 17, 18], [3, 6, 3, 3, 2, 11, 3, 1, 2, 1, 2, 3]),
    "l1": ([0, 2, 4, 6, 7, 8, 9, 12, 13, 16, 17, 18, 19], [3, 8, 2, 2, 2, 9, 5, 1, 2, 1, 1, 3, 1]),
    "l2": ([0, 2, 6, 7, 8, 9, 12, 13, 17, 18], [3, 6, 4, 3, 15, 3, 1, 2, 1, 2]),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_multinomial_sketches(kind):
    x = generate_matrix(GeneratorSpec("low-rank-plus-noise", 4, 5, 2))
    assert not _by_table(60, 20)
    omega = draw_samples(distribution_for_kind(x, kind), 60, seed=11)
    assert (omega.cells.tolist(), omega.counts.tolist()) == PINNED[kind]


@pytest.mark.parametrize("kind", sorted(PINNED_TABLE))
def test_pinned_table_sketches(kind):
    x = generate_matrix(GeneratorSpec("low-rank-plus-noise", 4, 5, 2))
    assert _by_table(40, 20)
    omega = draw_samples(distribution_for_kind(x, kind), 40, seed=11)
    assert (omega.cells.tolist(), omega.counts.tolist()) == PINNED_TABLE[kind]


def test_counts_chi_square_against_s_p():
    x = generate_matrix(GeneratorSpec("gaussian", 4, 5, 6))  # no zero cell: 19 degrees of freedom
    d = hybrid_distribution(x)
    s = 10**6
    counts = _cell_counts(draw_samples(d, s, seed=13))
    expected = s * d.probs
    assert float(((counts - expected) ** 2 / expected).sum()) <= CHI2_DF19_999


def test_table_counts_chi_square_against_s_p():
    # draws of different seeds are independent, so the counts of 25 000
    # table draws of s = 40, through one table as the trial workers draw,
    # are one Multinomial(10^6, p) draw
    x = generate_matrix(GeneratorSpec("gaussian", 4, 5, 6))  # no zero cell: 19 degrees of freedom
    d = hybrid_distribution(x)
    assert _by_table(40, 20)
    draw, into = _draw_rule(d.probs, 40), np.empty(20, dtype=np.int64)
    counts = np.zeros(20, dtype=np.int64)
    for seed in range(25_000):
        counts += draw(seed, into)
    expected = 10**6 * d.probs
    assert float(((counts - expected) ** 2 / expected).sum()) <= CHI2_DF19_999


def test_mean_sketch_matches_exact_expectation():
    # A table that starves two nonzero cells: the sketch is unbiased for X
    # restricted to the support, which is what exact_expectation returns.
    x = generate_matrix(GeneratorSpec("gaussian", 3, 4, 8))
    probs = np.abs(x.flat()).copy()
    probs[[1, 6]] = 0.0
    d = custom_distribution(x, probs / probs.sum())
    n_sketches = 100_000
    # the mean of N single-draw sketches is one N-draw sketch
    mean = coo_to_dense(sampling_operator(x, d, draw_samples(d, n_sketches, seed=31)).matrix).data
    target = exact_expectation(x, d).data
    p = d.grid()
    support = p > 0.0
    half = np.zeros_like(target)
    half[support] = 4.0 * np.sqrt(x.data[support] ** 2 * (1.0 - p[support]) / p[support] / n_sketches)
    assert np.all(np.abs(mean - target)[support] <= half[support])
    assert np.all(mean[~support] == 0.0) and np.all(target[~support] == 0.0)


@pytest.mark.parametrize("excess, refused", [(1.01e-12, True), (0.99e-12, False)], ids=["refused", "drawn"])
def test_numpy_sum_check_is_a_typed_error(excess, refused):
    # numpy refuses p whose leading entries sum above 1 + 1e-12, and so does
    # the table path, at s = 6 = 2 mn; at s = 7 multinomial draws
    probs = np.array([0.5, 0.5 + excess, 0.25])
    assert _by_table(6, 3) and not _by_table(7, 3)
    for s in (6, 7):
        if refused:
            with pytest.raises(InvalidSpecError, match=r"^cannot draw from these probabilities: sum\(pvals\[:-1\]\) > 1\.0$"):
                _draw_rule(probs, s)(0)
        else:  # the leading sum passes 1, so the last cell, left nothing, is never drawn
            counts = _draw_rule(probs, s)(0)
            assert int(counts.sum()) == s and counts[2] == 0


@pytest.mark.parametrize(
    "probs",
    [[0.5, -0.25, 0.75], [np.nan, 1.0], [0.25, 0.75, np.inf], [1.5]],
    ids=["negative", "nan", "inf", "above-one"],
)
def test_table_path_refuses_what_multinomial_refuses(probs):
    probs = np.array(probs)
    for s in (1, 2 * probs.size, 2 * probs.size + 1):
        with pytest.raises(InvalidSpecError, match=r"^cannot draw from these probabilities: pvals < 0, pvals > 1 or pvals contains NaNs$"):
            _draw_rule(probs, s)(0)


def _searched_counts(probs, s, seed):
    """The table path's counts by its definition: the cells that
    np.searchsorted finds for u = random(s) in the running sum of p up to its
    last positive cell, clipped to 1 and ending at exactly 1.0."""
    end = int(np.flatnonzero(probs)[-1]) + 1
    cdf = np.minimum(np.cumsum(probs[:end]), 1.0)
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.PCG64(seed)).random(s)
    return np.bincount(np.searchsorted(cdf, u, side="right"), minlength=probs.size)


def _tiny_cells_in_one_bucket():
    # 10 000 cells of 2^-40 each, 9.1e-9 in all, sit at cdf 0.5, inside one
    # of the 2^14 guide buckets, so draws there outrun the fix-up scan
    probs = np.full(10_002, 2.0**-40)
    probs[0] = 0.5
    probs[-1] = 0.5 - 10_000 * 2.0**-40
    return probs


@pytest.mark.parametrize(
    "probs",
    [
        np.array([0.0, 0.0, 0.0, 0.2, 0.3, 0.5]),
        np.array([0.1, 0.0, 0.0, 0.4, 0.0, 0.5]),
        np.array([0.3, 0.7, 0.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        np.array([1.0]),
        _tiny_cells_in_one_bucket(),
        np.array([5e-324, 1e-310, 0.25, 2e-320, 0.75, 0.0]),
        np.array([0.5, 0.5 + 0.99e-12, 0.25]),
        np.array([0.6, 0.6]),
    ],
    ids=["leading-zeros", "interior-zeros", "trailing-zeros", "all-mass-on-one", "one-cell", "tiny-cells-one-bucket",
         "subnormal-shares", "leading-sum-past-one", "last-takes-the-rest"],
)
def test_table_counts_are_the_searchsorted_counts(monkeypatch, probs):
    s = 2 * probs.size  # the most the rule sends to the table
    assert _by_table(s, probs.size)
    draw, into = _draw_rule(probs, s), np.empty(probs.size, dtype=np.int64)
    for seed in range(50):
        expected = _searched_counts(probs, s, seed)
        assert np.array_equal(_draw_rule(probs, s)(seed), expected)
        # one set-up draw counting into a reused array, as each trial fill
        # draws, and chunks of 7 uniforms, so the stream crosses chunk ends
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_CHUNK", 7)
            assert draw(seed, into) is into and np.array_equal(into, expected)
    assert np.all(expected[probs == 0.0] == 0)


def test_table_guide_is_the_searchsorted_guide():
    for probs in (_tiny_cells_in_one_bucket(), hybrid_distribution(generate_matrix(GeneratorSpec("power-law", 30, 40, 1))).probs):
        cdf, guide = _inverse_cdf(probs)
        buckets = guide.size - 1
        assert buckets >= cdf.size and buckets & (buckets - 1) == 0
        edges = np.arange(buckets + 1) / buckets
        assert np.array_equal(guide, np.searchsorted(cdf, edges, side="right"))


def test_path_flips_at_the_rule():
    # s up to 2 mn takes the table while mn <= 2^15; one more, multinomial
    for cells in (1, 20, 10_000, 1 << 15):
        assert _by_table(1, cells) and _by_table(2 * cells, cells) and not _by_table(2 * cells + 1, cells)
    assert not _by_table(1, (1 << 15) + 1)
    assert not _by_table(2**63 - 1, 1) and not _by_table(2**63 - 1, 1 << 15)
    # on the 4x5 hybrid, s = 40 draws by the table and s = 41 by multinomial
    x = generate_matrix(GeneratorSpec("gaussian", 4, 5, 6))
    probs = hybrid_distribution(x).probs
    for seed in range(5):
        assert np.array_equal(_draw_rule(probs, 40)(seed), _searched_counts(probs, 40, seed))
        multinomial = np.random.Generator(np.random.PCG64(seed)).multinomial(41, probs)
        assert np.array_equal(_draw_rule(probs, 41)(seed), multinomial)


@pytest.mark.parametrize(
    "rows, kind, cell",
    [
        ([[5e-324, 1.0], [1.0, 0.0]], DistributionKind.HYBRID, "x[0, 0] = 5e-324"),
        ([[5e-324, 1.0], [1.0, 0.0]], DistributionKind.PURE_L1, "x[0, 0] = 5e-324"),
        ([[5e-324, 1.0], [1.0, 0.0]], DistributionKind.PURE_L2, "x[0, 0] = 5e-324"),
        ([[1e-200, 2.0], [3.0, 0.0]], DistributionKind.PURE_L2, "x[0, 0] = 1e-200"),
    ],
    ids=["subnormal-hybrid", "subnormal-l1", "subnormal-l2", "tiny-l2"],
)
def test_sparsify_refuses_a_starved_entry(rows, kind, cell):
    # the entry has probability 0, so no sketch could hold it: refused, not biased
    with pytest.raises(ZeroProbabilityError, match=rf"the {kind.value} distribution .*{re.escape(cell)}"):
        sparsify(DenseMatrix(rows), 10, 0, kind)


@pytest.mark.parametrize(
    "cells, counts, s, error",
    [
        ([0, 1], [1, 1], 3, InvalidSpecError),  # counts sum to 2, not s
        ([0, 1], [2, 0], 2, InvalidSpecError),  # a zero count
        ([1, 0], [1, 1], 2, InvalidSpecError),  # decreasing cells
        ([1, 1], [1, 1], 2, InvalidSpecError),  # repeated cell
        ([0, 4], [1, 1], 2, ShapeMismatchError),  # cell past the 2x2 grid
        ([-1, 0], [1, 1], 2, ShapeMismatchError),  # negative cell
        ([0, 1], [2], 2, ShapeMismatchError),  # lengths differ
        ([], [], 0, InvalidSpecError),  # no draws
    ],
    ids=["sum", "zero-count", "decreasing", "repeated", "past-end", "negative", "lengths", "empty"],
)
def test_sample_set_rejects_malformed_multiset(cells, counts, s, error):
    with pytest.raises(error):
        SampleSet(2, 2, s, cells, counts, 0)


def test_uniform_two_cell_binomial():
    d = custom_distribution(DenseMatrix(np.ones((1, 2))), np.array([0.5, 0.5]))
    count0 = int(_cell_counts(draw_samples(d, 10**5, seed=11))[0])
    sigma = np.sqrt(10**5 * 0.25)
    assert abs(count0 - 50_000) <= 3 * sigma


def test_sampling_operator_examples(toy):
    d = hybrid_distribution(toy)
    sk = sampling_operator(toy, d, _omega([(0, 0), (0, 1)]))
    dense = coo_to_dense(sk.matrix).data
    np.testing.assert_allclose(
        dense, [[VAL_00, VAL_01], [0.0, 0.0]], rtol=1e-12, atol=0.0
    )
    dup = sampling_operator(toy, d, _omega([(0, 1), (0, 1)]))
    assert dup.matrix.nnz == 1
    np.testing.assert_allclose(dup.matrix.vals, [VAL_01_DUP], rtol=1e-12)


def test_sampling_operator_single_cell(single_cell):
    d = hybrid_distribution(single_cell)
    sk = sampling_operator(single_cell, d, _omega([(0, 0)] * 5, shape=(1, 1)))
    np.testing.assert_array_equal(coo_to_dense(sk.matrix).data, single_cell.data)
    assert sketch_error(single_cell, sk).value <= 1e-10


def test_sampling_operator_zero_probability(toy):
    d = custom_distribution(toy, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ZeroProbabilityError):
        sampling_operator(toy, d, _omega([(0, 1)]))


def test_sampling_operator_shape_checks(toy):
    d = hybrid_distribution(toy)
    with pytest.raises(ShapeMismatchError):
        sampling_operator(DenseMatrix(np.ones((3, 3))), d, _omega([(0, 0)]))
    with pytest.raises(ShapeMismatchError):
        sampling_operator(toy, d, _omega([(0, 0)], shape=(3, 3)))  # sample from a 3x3 grid
    with pytest.raises(ShapeMismatchError):
        SampleSet(2, 2, 1, [4], [1], 0)  # cell past the end of the 2x2 grid


def test_sparsify_exact_single_cell(single_cell):
    sk = sparsify(single_cell, s=7, seed=5)
    assert sk.matrix.nnz == 1
    assert coo_to_dense(sk.matrix).data[0, 0] == single_cell.data[0, 0]


def test_sparsify_determinism(toy):
    a = sparsify(toy, s=50, seed=9, kind=DistributionKind.PURE_L1)
    b = sparsify(toy, s=50, seed=9, kind=DistributionKind.PURE_L1)
    assert np.array_equal(a.matrix.rows, b.matrix.rows)
    assert np.array_equal(a.matrix.cols, b.matrix.cols)
    assert np.array_equal(a.matrix.vals, b.matrix.vals)
    assert a.distribution_kind is DistributionKind.PURE_L1
    assert a.s == 50 and a.source_seed == 9


def test_sketch_sparsity_bound():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        a = rng.standard_normal((m, n))
        a[rng.random((m, n)) < 0.5] = 0.0
        if not a.any():
            a[0, 0] = 1.0
        x = DenseMatrix(a)
        s = int(rng.integers(1, 200))
        sk = sparsify(x, s, seed=int(rng.integers(0, 2**32)))
        assert sk.matrix.nnz <= min(s, int(np.count_nonzero(a)))
        # every stored cell had positive probability, i.e. a nonzero entry
        assert np.all(a[sk.matrix.rows, sk.matrix.cols] != 0)


def test_s_may_exceed_cell_count(toy):
    sk = sparsify(toy, s=100, seed=3)
    assert sk.matrix.nnz <= 2


def test_exact_expectation_identity(toy):
    d = hybrid_distribution(toy)
    np.testing.assert_array_equal(exact_expectation(toy, d).data, toy.data)
    np.testing.assert_array_equal(
        exact_expectation(toy, l1_distribution(toy)).data, toy.data
    )


def test_exact_expectation_support_restriction(toy):
    d = custom_distribution(toy, np.array([1.0, 0.0, 0.0, 0.0]))
    out = exact_expectation(toy, d)
    np.testing.assert_array_equal(out.data, np.array([[3.0, 0.0], [0.0, 0.0]]))


def test_error_decay_one_over_sqrt_s():
    # median error at 4s should sit near half the median at s (1/sqrt(s) law)
    rng = np.random.default_rng(16)
    x = DenseMatrix(rng.standard_normal((20, 20)))
    medians = []
    for s in (300, 1200):
        errs = [
            sketch_error(x, sparsify(x, s, seed)).value
            for seed in range(200)
        ]
        medians.append(float(np.median(errs)))
    ratio = medians[1] / medians[0]
    assert 0.35 <= ratio <= 0.65


@st.composite
def _sampling_problems(draw):
    """A small nonzero matrix (entries on a quarter grid, zeros common), one
    of the built-in distributions over it."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-8, 8), min_size=m * n, max_size=m * n))
    a = np.array(entries, dtype=np.float64).reshape(m, n) / 4
    if not a.any():
        a[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = 1.0
    x = DenseMatrix(a)
    kind = draw(st.sampled_from([DistributionKind.HYBRID, DistributionKind.PURE_L1, DistributionKind.PURE_L2]))
    return x, distribution_for_kind(x, kind)


@settings(max_examples=60, deadline=None)
@given(problem=_sampling_problems(), s=st.integers(1, 400), seed=st.integers(0, 2**64 - 1))
def test_drawn_multiset_properties(problem, s, seed):
    x, d = problem
    omega = draw_samples(d, s, seed)
    assert (omega.m, omega.n, omega.s, omega.seed) == (x.m, x.n, s, seed)
    assert int(omega.counts.sum()) == s and np.all(omega.counts >= 1)
    assert np.all(np.diff(omega.cells) > 0)
    assert np.all(d.probs[omega.cells] > 0.0)  # only cells in the support of d
    assert _same_sample(omega, draw_samples(d, s, seed))

    sk = sampling_operator(x, d, omega)
    np.testing.assert_array_equal(sk.matrix.rows * x.n + sk.matrix.cols, omega.cells)
    expected = [
        c * v / (s * p)
        for c, v, p in zip(
            omega.counts.tolist(), x.flat()[omega.cells].tolist(), d.probs[omega.cells].tolist()
        )
    ]
    np.testing.assert_array_equal(sk.matrix.vals, expected)
    assert (sk.s, sk.source_seed, sk.distribution_kind) == (s, seed, d.kind)
