import math

import numpy as np
import pytest

from elemsparse import (
    DenseMatrix,
    SparseCOO,
    ZeroMatrixError,
    frobenius_norm,
    spectral_norm,
    stable_rank,
)
from elemsparse.generate import GeneratorSpec, generate_matrix
from elemsparse.matrix import coo_to_dense, entry_abs_sum

# full-SVD oracle for the fixed 20x20 gaussian below, computed once with
# numpy.linalg.svd and frozen
SR_ORACLE_20x20_SEED2026 = 6.112264836189646


def test_dense_validation():
    with pytest.raises(ValueError):
        DenseMatrix(np.array([1.0, 2.0]))  # 1-d
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[np.inf]]))


def test_dense_is_immutable():
    x = DenseMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        x.data[0, 0] = 5.0


def test_dense_does_not_alias_caller_array():
    raw = np.ones((2, 2))
    x = DenseMatrix(raw)
    raw[0, 0] = 7.0
    assert x.data[0, 0] == 1.0


def test_dense_shape_props(toy):
    assert (toy.m, toy.n) == (2, 2)
    assert toy.shape == (2, 2)
    assert toy.flat().tolist() == [3.0, 4.0, 0.0, 0.0]
    assert np.array_equal(toy.transpose().data, toy.data.T)


def test_frobenius_examples(toy):
    assert frobenius_norm(DenseMatrix(np.eye(2))) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert frobenius_norm(toy) == 5.0
    assert frobenius_norm(DenseMatrix(np.zeros((3, 3)))) == 0.0


def test_frobenius_matches_numpy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 12), rng.integers(1, 12)))
        assert frobenius_norm(DenseMatrix(a)) == pytest.approx(np.linalg.norm(a), rel=1e-13)


def test_entry_abs_sum_examples(toy):
    assert entry_abs_sum(toy) == 7.0
    assert entry_abs_sum(DenseMatrix(np.eye(6))) == 6.0
    assert entry_abs_sum(DenseMatrix(np.zeros((2, 5)))) == 0.0


def test_stable_rank_identity():
    assert stable_rank(DenseMatrix(np.eye(100))) == pytest.approx(100.0, rel=1e-9)


def test_stable_rank_rank_one(toy):
    assert stable_rank(toy) == pytest.approx(1.0, rel=1e-9)


def test_stable_rank_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        stable_rank(DenseMatrix(np.zeros((2, 2))))


def test_stable_rank_vs_svd_oracle():
    x = generate_matrix(GeneratorSpec("gaussian", 20, 20, 2026))
    assert stable_rank(x) == pytest.approx(SR_ORACLE_20x20_SEED2026, rel=1e-4)


def test_stable_rank_range():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        x = DenseMatrix(rng.standard_normal((m, n)))
        sr = stable_rank(x)
        assert 1.0 - 1e-9 <= sr <= min(m, n) + 1e-9


def test_sparse_coo_validation():
    with pytest.raises(ValueError):
        SparseCOO(2, 2, [2], [0], [1.0])  # row out of range
    with pytest.raises(ValueError):
        SparseCOO(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        SparseCOO(2, 2, [0, 0], [0], [1.0])  # ragged triples


def test_coo_to_dense_examples():
    z = coo_to_dense(SparseCOO(2, 2, [], [], []))
    assert np.array_equal(z.data, np.zeros((2, 2)))
    dup = coo_to_dense(SparseCOO(1, 1, [0, 0], [0, 0], [1.0, 2.0]))
    assert np.array_equal(dup.data, np.array([[3.0]]))
    one = coo_to_dense(SparseCOO(2, 2, [0], [1], [4.0]))
    assert np.array_equal(one.data, np.array([[0.0, 4.0], [0.0, 0.0]]))


def test_canonicalize_preserves_dense_realization():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        k = int(rng.integers(0, 20))
        s = SparseCOO(
            m,
            n,
            rng.integers(0, m, size=k),
            rng.integers(0, n, size=k),
            rng.standard_normal(k),
        )
        c = s.canonicalize()
        assert np.array_equal(coo_to_dense(c).data, coo_to_dense(s).data)
        cells = list(zip(c.rows.tolist(), c.cols.tolist()))
        assert len(cells) == len(set(cells))
        assert c.nnz <= m * n


def test_norm_ordering_invariants():
    # ||X||_2 <= ||X||_F <= sqrt(min(m,n)) ||X||_2 and sum|X| <= sqrt(mn) ||X||_F
    rng = np.random.default_rng(11)
    for _ in range(15):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        x = DenseMatrix(rng.standard_normal((m, n)))
        fro = frobenius_norm(x)
        spec = spectral_norm(x).value
        assert spec <= fro * (1 + 1e-9)
        assert fro <= math.sqrt(min(m, n)) * spec * (1 + 1e-9)
        assert entry_abs_sum(x) <= math.sqrt(m * n) * fro * (1 + 1e-12)
