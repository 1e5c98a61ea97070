import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemsparse import (
    DenseMatrix,
    NonFiniteError,
    ShapeMismatchError,
    SparseCOO,
    ZeroMatrixError,
    frobenius_norm,
    spectral_norm,
    stable_rank,
)
from elemsparse.bounds import gamma_rho_bounds
from elemsparse.generate import GeneratorSpec, generate_matrix
from elemsparse.matrix import _CHUNK, _exact_sum, coo_to_dense, entry_abs_sum

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


@pytest.mark.parametrize(
    "entries", [[[1e-200, 2e-200], [3e-200, 0.0]], [[1e200, 2e200], [3e200, 0.0]]], ids=["tiny", "huge"]
)
@pytest.mark.parametrize(
    "norm", [frobenius_norm, stable_rank, lambda x: gamma_rho_bounds(x, 1.0)], ids=["frobenius", "sr", "gamma-rho"]
)
def test_squares_outside_float_range_are_refused(norm, entries):
    # every command refuses these matrices; before, frobenius_norm read 0.0
    # for the tiny one and stable_rank nan for the huge one
    with pytest.raises(NonFiniteError, match="float range"):
        norm(DenseMatrix(np.array(entries)))


def test_sparse_coo_validation():
    with pytest.raises(ValueError):
        SparseCOO(2, 2, [2], [0], [1.0])  # row out of range
    with pytest.raises(ValueError):
        SparseCOO(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        SparseCOO(2, 2, [0, 0], [0], [1.0])  # ragged triples


@pytest.mark.parametrize(
    "dense, coo, error, message",
    [
        (np.zeros((0, 3)), (0, 3, [], [], []), ShapeMismatchError, "matrix dimensions must be >= 1, got (0, 3)"),
        (np.array([[1.0, np.nan]]), (1, 2, [0], [1], [np.nan]), NonFiniteError,
         "matrix entries must be finite (no NaN/Inf)"),
        (np.array([[np.inf]]), (1, 1, [0], [0], [-np.inf]), NonFiniteError,
         "matrix entries must be finite (no NaN/Inf)"),
    ],
    ids=["no-rows", "nan", "inf"],
)
def test_containers_share_their_rules(dense, coo, error, message):
    for build in (lambda: DenseMatrix(dense), lambda: SparseCOO(*coo)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


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


def _fsum_or_inf(a: np.ndarray) -> float:
    try:
        return math.fsum(a.tolist())
    except OverflowError:
        return math.inf


_LENGTHS = st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])


@settings(max_examples=100, deadline=None)
@given(
    length=_LENGTHS,
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(-320.0, 300.0),
    high=st.floats(-320.0, 300.0),
    signs=st.sampled_from(["+", "-", "+-"]),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    edge=st.lists(st.floats(-1e300, 1e300), max_size=8),
)
def test_exact_sum_equals_fsum(length, seed, low, high, signs, zeros, edge):
    # magnitudes 10^u for u between low and high, subnormals (below 2.2e-308)
    # included, with a share of zeros and hypothesis's own edge floats
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(min(low, high), max(low, high), length)
    a[rng.random(length) < zeros] = 0.0
    if signs == "-":
        a = -a
    elif signs == "+-":
        a[rng.random(length) < 0.5] *= -1.0
    a[: len(edge)] = edge[:length]
    assert _exact_sum(a) == math.fsum(a.tolist())


@settings(max_examples=60, deadline=None)
@given(
    length=_LENGTHS,
    value=st.floats(1e300, np.finfo(np.float64).max),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_exact_sum_overflows_where_fsum_does(length, value, sign):
    # same-signed values: inf exactly where math.fsum raises OverflowError
    a = np.full(length, sign * value)
    a[::2] /= 7.0
    assert _exact_sum(a) == _fsum_or_inf(a)


def test_exact_sum_edges():
    big, tiny = np.finfo(np.float64).max, 5e-324
    for a in (
        [0.0], [0.0] * (_CHUNK + 1), [-0.0, 0.0], [tiny], [-tiny] * 3, [tiny, -tiny],
        [big, 2.0**969],  # below the halfway point to 2^1024: big
        [big, 2.0**970],  # the halfway point rounds to even, 2^1024: overflow
        [big, -big, big], [1e300] * (3 * _CHUNK), [1.0, 1e100, 1.0, -1e100],
    ):
        a = np.array(a)
        assert _exact_sum(a) == _fsum_or_inf(a)
    # non-finite entries sum as math.fsum sums them
    assert _exact_sum(np.array([1.0, np.inf])) == math.inf
    assert math.isnan(_exact_sum(np.array([np.nan, 1.0])))
    with pytest.raises(ValueError):
        _exact_sum(np.array([np.inf, -np.inf]))
    # a running sum that leaves float range where the total does not: math.fsum
    # raises, and the exact total comes back
    assert _exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308


def test_exact_sum_builds_no_list_of_its_input():
    # a list of 200 000 floats takes over 6 MB; the chunked sum's temporaries
    # stay far below the 1.6 MB the array itself holds
    a = np.linspace(0.0, 1.0, 200_000)
    tracemalloc.start()
    try:
        _exact_sum(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
