import numpy as np
import pytest

from elemsparse import (
    DenseMatrix,
    DistributionKind,
    SampleSet,
    ShapeMismatchError,
    ZeroProbabilityError,
    build_alias_table,
    coo_to_dense,
    custom_distribution,
    draw_samples,
    exact_expectation,
    hybrid_distribution,
    l1_distribution,
    reconstructed_probs,
    sampling_operator,
    sketch_error,
    sparsify,
)

# chi-square inverse CDF at 0.999 with df=3, frozen from scipy.stats.chi2.ppf
CHI2_DF3_999 = 16.26623619623813

# step-4 values for X=[[3,4],[0,0]] under hybrid p=[69/175, 106/175]:
# 3/(2 p00), 4/(2 p01), and the duplicate case 2*4/(2 p01)
VAL_00 = 525 / 138
VAL_01 = 700 / 212
VAL_01_DUP = 700 / 106


def _omega(pairs, seed=0):
    arr = np.array(pairs, dtype=np.int64)
    return SampleSet(len(pairs), arr, seed)


def test_alias_table_reconstructs_probs(toy):
    rng = np.random.default_rng(2)
    dists = [hybrid_distribution(toy)]
    for _ in range(10):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = rng.standard_normal((m, n))
        a[rng.random((m, n)) < 0.4] = 0.0
        if not a.any():
            a[0, 0] = 1.0
        dists.append(hybrid_distribution(DenseMatrix(a)))
    for d in dists:
        table = build_alias_table(d)
        np.testing.assert_allclose(reconstructed_probs(table), d.probs, atol=1e-12)


def test_point_mass_always_drawn():
    x = DenseMatrix(np.array([[0.0, 7.0], [0.0, 0.0]]))
    d = hybrid_distribution(x)  # all mass on cell (0,1)
    table = build_alias_table(d)
    omega = draw_samples(table, 50, seed=123)
    assert np.all(omega.pairs == np.array([0, 1]))


def test_uniform_four_cells_chi_square():
    d = custom_distribution(
        DenseMatrix(np.ones((2, 2))), np.full(4, 0.25)
    )
    table = build_alias_table(d)
    omega = draw_samples(table, 10**6, seed=99)
    flat = omega.pairs[:, 0] * 2 + omega.pairs[:, 1]
    counts = np.bincount(flat, minlength=4)
    expected = 250_000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 <= CHI2_DF3_999


def test_toy_hybrid_draw_frequencies(toy):
    d = hybrid_distribution(toy)
    table = build_alias_table(d)
    n_draws = 10**6
    omega = draw_samples(table, n_draws, seed=7)
    flat = omega.pairs[:, 0] * 2 + omega.pairs[:, 1]
    counts = np.bincount(flat, minlength=4)
    assert counts[2] == 0 and counts[3] == 0  # zero-probability cells never drawn
    for k in (0, 1):
        p = d.probs[k]
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert abs(counts[k] - n_draws * p) <= 3 * sigma


def test_draw_determinism(toy):
    table = build_alias_table(hybrid_distribution(toy))
    a = draw_samples(table, 1000, seed=42)
    b = draw_samples(table, 1000, seed=42)
    assert np.array_equal(a.pairs, b.pairs)
    assert a.seed == b.seed == 42
    c = draw_samples(table, 1000, seed=43)
    assert not np.array_equal(a.pairs, c.pairs)


def test_draw_validation(toy):
    table = build_alias_table(hybrid_distribution(toy))
    with pytest.raises(ValueError):
        draw_samples(table, 0, seed=1)
    omega = draw_samples(table, 17, seed=1)
    assert omega.pairs.shape == (17, 2)
    assert omega.pairs.min() >= 0


def test_uniform_two_cell_binomial():
    d = custom_distribution(DenseMatrix(np.ones((1, 2))), np.array([0.5, 0.5]))
    table = build_alias_table(d)
    omega = draw_samples(table, 10**5, seed=11)
    count0 = int((omega.pairs[:, 1] == 0).sum())
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
    sk = sampling_operator(single_cell, d, _omega([(0, 0)] * 5))
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
        sampling_operator(toy, d, _omega([(0, 2)]))  # col out of range


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
