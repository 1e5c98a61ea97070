import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from elemsparse import (
    DenseMatrix,
    DistributionKind,
    ElemsparseError,
    InvalidSpecError,
    NonFiniteError,
    SamplingDistribution,
    ShapeMismatchError,
    ZeroMatrixError,
    beta_certificate,
    custom_distribution,
    distribution_for_kind,
    hybrid_distribution,
    l1_distribution,
    l2_distribution,
    sparsify,
)
from elemsparse import distributions

# exact rationals for X = [[3,4],[0,0]]
HYBRID_TOY = (69 / 175, 106 / 175, 0.0, 0.0)
L1_CERT_TOY = 50 / 53
L2_CERT_TOY = 21 / 23


def _random_nonzero(rng, max_dim=12):
    m, n = int(rng.integers(1, max_dim)), int(rng.integers(1, max_dim))
    a = rng.standard_normal((m, n))
    a[rng.random((m, n)) < 0.3] = 0.0
    if not a.any():
        a[0, 0] = 1.0
    return DenseMatrix(a)


def test_hybrid_toy(toy):
    d = hybrid_distribution(toy)
    assert d.kind is DistributionKind.HYBRID
    np.testing.assert_allclose(d.probs, HYBRID_TOY, rtol=1e-14, atol=0.0)
    assert d.beta == 1.0


def test_hybrid_all_equal_is_uniform():
    x = DenseMatrix(np.full((3, 5), -2.5))
    d = hybrid_distribution(x)
    np.testing.assert_allclose(d.probs, np.full(15, 1 / 15), rtol=1e-14)


def test_hybrid_single_cell(single_cell):
    assert hybrid_distribution(single_cell).probs.tolist() == [1.0]


def test_l2_examples(toy):
    np.testing.assert_allclose(l2_distribution(toy).probs, [0.36, 0.64, 0, 0], rtol=1e-15)
    diag = DenseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(l2_distribution(diag).probs, [0.2, 0, 0, 0.8], rtol=1e-15)
    uni = l2_distribution(DenseMatrix(np.full((2, 2), 3.0)))
    np.testing.assert_allclose(uni.probs, np.full(4, 0.25), rtol=1e-15)


def test_l1_examples(toy):
    np.testing.assert_allclose(l1_distribution(toy).probs, [3 / 7, 4 / 7, 0, 0], rtol=1e-15)
    diag = DenseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(l1_distribution(diag).probs, [1 / 3, 0, 0, 2 / 3], rtol=1e-15)


def test_builders_reject_zero_matrix():
    z = DenseMatrix(np.zeros((2, 3)))
    for build in (hybrid_distribution, l1_distribution, l2_distribution):
        with pytest.raises(ZeroMatrixError):
            build(z)


def test_zero_mass_only_on_zero_cells():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = _random_nonzero(rng)
        for build in (hybrid_distribution, l1_distribution, l2_distribution):
            d = build(x)
            assert np.all((d.probs == 0) == (x.flat() == 0))


def test_distribution_sums_to_one():
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = _random_nonzero(rng)
        for build in (hybrid_distribution, l1_distribution, l2_distribution):
            d = build(x)
            assert abs(math.fsum(d.probs.tolist()) - 1.0) <= 1e-12
            assert np.all(d.probs >= 0)


def test_hybrid_is_exact_average_of_l1_l2():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = _random_nonzero(rng)
        h = hybrid_distribution(x).probs
        avg = 0.5 * (l2_distribution(x).probs + l1_distribution(x).probs)
        np.testing.assert_allclose(h, avg, rtol=1e-15, atol=0.0)


def test_hybrid_scale_invariance():
    rng = np.random.default_rng(9)
    for c in (3.7, -0.04, 1e6):
        x = _random_nonzero(rng)
        base = hybrid_distribution(x).probs
        scaled = hybrid_distribution(DenseMatrix(c * x.data)).probs
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-300)


def test_certificate_hybrid_is_one():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = _random_nonzero(rng)
        assert beta_certificate(x, hybrid_distribution(x).probs) == 1.0


def test_certificate_toy_values(toy):
    assert beta_certificate(toy, l1_distribution(toy).probs) == pytest.approx(
        L1_CERT_TOY, rel=1e-12
    )
    assert beta_certificate(toy, l2_distribution(toy).probs) == pytest.approx(
        L2_CERT_TOY, rel=1e-12
    )
    # builders store the same certificates they advertise
    assert l1_distribution(toy).beta == beta_certificate(toy, l1_distribution(toy).probs)
    assert l2_distribution(toy).beta == beta_certificate(toy, l2_distribution(toy).probs)


def test_certificate_zero_when_support_missing(toy):
    probs = np.array([1.0, 0.0, 0.0, 0.0])  # nonzero cell (0,1) starved
    assert beta_certificate(toy, probs) == 0.0


def test_certificate_of_a_subnormal_entry_is_zero():
    # both shares of 5e-324 underflow to 0, so no distribution can draw it;
    # no certificate may divide 0 by 0 (a warning, here an error) and say 1
    x = DenseMatrix(np.array([[5e-324, 1.0], [1.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("hybrid", "l1", "l2"):
            d = distribution_for_kind(x, kind)
            assert d.probs[0] == 0.0
            assert d.beta == beta_certificate(x, d.probs) == 0.0
        # given positive probability, the cell bounds nothing: its hybrid share is 0
        assert beta_certificate(x, np.array([0.2, 0.4, 0.4, 0.0])) == 0.8


def test_certificate_errors(toy):
    with pytest.raises(ShapeMismatchError):
        beta_certificate(toy, np.array([1.0]))
    with pytest.raises(ZeroMatrixError):
        beta_certificate(DenseMatrix(np.zeros((1, 2))), np.array([0.5, 0.5]))
    # what custom_distribution refuses: NaN, a negative entry, a sum of 2, inf
    x = DenseMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    for probs in ([np.nan, 0.5, 0.25, 0.25], [-0.5, 0.5, 0.5, 0.5], [0.5] * 4, [np.inf, 1.0, 1.0, 1.0]):
        with pytest.raises(InvalidSpecError):
            beta_certificate(x, np.array(probs))


def test_certificate_scale_invariance():
    rng = np.random.default_rng(12)
    x = _random_nonzero(rng)
    p = l1_distribution(x).probs
    for c in (2.0, -5.5, 1e-3):
        scaled = DenseMatrix(c * x.data)
        assert beta_certificate(scaled, p) == pytest.approx(
            beta_certificate(x, p), rel=1e-12
        )


def test_certificates_equal_one_for_equal_magnitudes():
    x = DenseMatrix(np.array([[2.0, -2.0], [2.0, 2.0]]))
    assert l1_distribution(x).beta == 1.0
    assert l2_distribution(x).beta == 1.0


def test_custom_distribution_allows_mass_on_zero_cells(toy):
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    d = custom_distribution(toy, probs)
    assert d.kind is DistributionKind.CUSTOM
    assert 0.0 < d.beta <= 1.0


def test_custom_distribution_validation(toy):
    with pytest.raises(ElemsparseError):
        custom_distribution(toy, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ElemsparseError):
        custom_distribution(toy, np.array([0.3, 0.3, 0.3, 0.3]))  # sums to 1.2
    with pytest.raises(ShapeMismatchError):
        custom_distribution(toy, np.array([1.0]))
    # the exact sum overflows: refused as a sum of inf, not a bare OverflowError
    with pytest.raises(InvalidSpecError, match="got inf"):
        custom_distribution(DenseMatrix(np.ones((1, 2))), np.array([1e308, 1e308]))


def test_custom_distribution_copies_and_checks_its_table_once(toy, monkeypatch):
    # SamplingDistribution copies and checks the table; its probs are then
    # certified as they stand, so the certificate is beta_certificate's
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    calls = []

    def counted(*args):
        calls.append(None)
        return cell_probs(*args)

    cell_probs = distributions._cell_probs
    monkeypatch.setattr(distributions, "_cell_probs", counted)
    d = custom_distribution(toy, probs)
    assert len(calls) == 1
    assert d.beta == beta_certificate(toy, probs)
    assert not d.probs.flags.writeable and not np.shares_memory(d.probs, probs)


def test_distribution_for_kind(toy):
    for kind, build in (
        (DistributionKind.HYBRID, hybrid_distribution),
        (DistributionKind.PURE_L1, l1_distribution),
        (DistributionKind.PURE_L2, l2_distribution),
    ):
        np.testing.assert_array_equal(
            distribution_for_kind(toy, kind).probs, build(toy).probs
        )
    with pytest.raises(ElemsparseError):
        distribution_for_kind(toy, DistributionKind.CUSTOM)
    for build in (lambda kind: distribution_for_kind(toy, kind), lambda kind: sparsify(toy, 10, 0, kind=kind)):
        with pytest.raises(InvalidSpecError, match="'bogus' is not a valid DistributionKind; use one of hybrid, l2, l1"):
            build("bogus")


def test_grid_support_transpose(toy):
    d = hybrid_distribution(toy)
    assert d.grid().shape == (2, 2)
    np.testing.assert_array_equal(d.grid().ravel(), d.probs)
    dt = d.transpose()
    assert (dt.m, dt.n) == (d.n, d.m)
    np.testing.assert_array_equal(dt.grid(), d.grid().T)
    assert dt.beta == d.beta


def test_sampling_distribution_validation():
    with pytest.raises(ElemsparseError):
        SamplingDistribution(2, 2, np.array([0.5, 0.5, 0.1, 0.1]), DistributionKind.CUSTOM, 1.0)
    with pytest.raises(ElemsparseError):
        SamplingDistribution(2, 2, np.array([1.1, -0.1, 0.0, 0.0]), DistributionKind.CUSTOM, 1.0)
    with pytest.raises(ElemsparseError):
        SamplingDistribution(1, 1, np.array([1.0]), DistributionKind.CUSTOM, 1.5)


# zeros, both signs, ordinary magnitudes, and tiny and subnormal entries
# whose shares underflow (both of them for 5e-324)
_ENTRIES = st.one_of(
    st.sampled_from((0.0, 5e-324, -5e-324, 1e-310, 1e-200, -1e-160)),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=4), elements=_ENTRIES))
def test_certificate_property(a):
    x = DenseMatrix(a)
    flat = x.flat()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dists = [distribution_for_kind(x, kind) for kind in ("hybrid", "l1", "l2")]
        except (ZeroMatrixError, NonFiniteError):
            reject()  # the zero matrix, or one whose squares all underflow: no shares
        for d in dists:
            cert = beta_certificate(x, d.probs)
            assert d.beta == cert and 0.0 <= cert <= 1.0
            starved = bool(np.any((flat != 0.0) & (d.probs == 0.0)))
            assert (cert == 0.0) == starved
            if d.kind is DistributionKind.HYBRID:
                assert cert == (0.0 if starved else 1.0)
