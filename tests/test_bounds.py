import math

import numpy as np
import pytest

from elemsparse import (
    BoundRequest,
    DenseMatrix,
    HypothesisViolatedError,
    ShapeMismatchError,
    ZeroMatrixError,
    ZeroProbabilityError,
    bound_report,
    custom_distribution,
    hybrid_distribution,
    l1_distribution,
    l2_distribution,
)
from elemsparse.bounds import (
    Theorem1Case,
    bernstein_tail,
    exact_second_moment,
    gamma_rho_bounds,
    mt_spectral_norm,
    sample_size_corollary,
    sample_size_theorem1,
    sample_size_unsimplified,
)

# exact values for X=[[3,4],[0,0]] under the hybrid distribution
MT_NORM_01 = 3.9723591078164717  # sqrt(9 + (700/106 - 4)^2)
ESM_00 = 29550 / 1219  # 9/p00 + 16/p01 - 25


def _req(m=100, n=100, eps=1.0, delta=0.1, beta=1.0, fro=10.0, sr=None):
    return BoundRequest(m, n, eps, delta, beta, fro, stable_rank=sr)


def test_request_validation():
    for kwargs in (
        dict(eps=0.0),
        dict(eps=-1.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(beta=0.0),
        dict(beta=1.5),
        dict(fro=0.0),
        dict(m=0),
        dict(n=0),
        dict(sr=0.0),
    ):
        with pytest.raises(ValueError):
            _req(**kwargs)


def test_theorem1_worked_examples():
    s, case = sample_size_theorem1(_req(eps=1.0))
    assert (s, case) == (456055, Theorem1Case.CASE_I)
    s, case = sample_size_theorem1(_req(eps=20.0))
    assert (s, case) == (2281, Theorem1Case.CASE_II)


def test_theorem1_beta_halving_doubles():
    # 1/beta scaling, checked before the ceiling via the raw formula
    raw = 6 * 100 * math.log(2000.0) * 100.0
    assert sample_size_theorem1(_req(beta=0.5))[0] == math.ceil(2 * raw)


def test_theorem1_tie_goes_to_case_i():
    # at eps = ||X||_F both case formulas coincide
    s, case = sample_size_theorem1(_req(eps=10.0, fro=10.0))
    assert case is Theorem1Case.CASE_I
    raw_ii = 6 * 100 * math.log(2000.0) * 10.0 / 10.0
    assert s == math.ceil(raw_ii)


def test_unsimplified_worked_example():
    assert sample_size_unsimplified(_req()) == 319238


def test_unsimplified_symmetric_when_square():
    assert sample_size_unsimplified(_req(m=40, n=40, eps=2.0, fro=7.0)) == (
        sample_size_unsimplified(_req(n=40, m=40, eps=2.0, fro=7.0))
    )


def test_unsimplified_not_above_theorem1():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        req = _req(
            m=int(rng.integers(1, 300)),
            n=int(rng.integers(1, 300)),
            eps=float(rng.lognormal(0.0, 2.0)),
            delta=float(rng.uniform(0.001, 0.999)),
            beta=float(rng.uniform(0.01, 1.0)),
            fro=float(rng.lognormal(1.0, 2.0)),
        )
        assert sample_size_unsimplified(req) <= sample_size_theorem1(req)[0]


def test_corollary_worked_example():
    assert sample_size_corollary(_req(sr=10.0), epsilon_rel=0.5) == 182422


def test_corollary_hypothesis():
    with pytest.raises(HypothesisViolatedError):
        sample_size_corollary(_req(sr=0.2), epsilon_rel=0.5)
    # boundary sr = eps_rel^2 is admissible
    assert sample_size_corollary(_req(sr=0.25), epsilon_rel=0.5) >= 1
    with pytest.raises(ValueError):
        sample_size_corollary(_req(), epsilon_rel=0.5)  # stable_rank unset


def test_corollary_linear_in_sr():
    raw = 6 * 100 * math.log(2000.0) * 10.0 / 0.25
    assert sample_size_corollary(_req(sr=20.0), epsilon_rel=0.5) == math.ceil(2 * raw)


def test_bernstein_tail_example():
    assert bernstein_tail(1, 1, 2, 1.0, 1.0, 0.0) == pytest.approx(
        2 * math.exp(-1), rel=1e-15
    )


def test_bernstein_tail_monotonic():
    base = bernstein_tail(10, 20, 500, 0.7, 4.0, 3.0)
    assert bernstein_tail(10, 20, 501, 0.7, 4.0, 3.0) < base
    assert bernstein_tail(10, 20, 500, 0.7, 4.1, 3.0) > base
    assert bernstein_tail(10, 20, 500, 0.7, 4.0, 3.1) > base


def test_gamma_rho_examples(toy):
    assert gamma_rho_bounds(toy, 1.0) == (30.0, 100.0)
    g2, r2 = gamma_rho_bounds(toy, 0.5)
    assert (g2, r2) == (60.0, 200.0)
    n = 5
    g, r = gamma_rho_bounds(DenseMatrix(np.eye(n)), 1.0)
    assert g == pytest.approx(3 * n * math.sqrt(n), rel=1e-15)
    assert r == pytest.approx(2 * n**2, rel=1e-15)


def test_gamma_rho_errors():
    with pytest.raises(ZeroMatrixError):
        gamma_rho_bounds(DenseMatrix(np.zeros((2, 2))), 1.0)
    with pytest.raises(ValueError):
        gamma_rho_bounds(DenseMatrix(np.ones((2, 2))), 0.0)


def test_mt_norm_examples(toy, single_cell):
    d1 = hybrid_distribution(single_cell)
    assert mt_spectral_norm(single_cell, d1, (0, 0)) <= 1e-10
    d = hybrid_distribution(toy)
    assert mt_spectral_norm(toy, d, (0, 1)) == pytest.approx(MT_NORM_01, rel=1e-6)


def test_mt_norm_within_gamma(toy):
    d = hybrid_distribution(toy)
    gamma, _ = gamma_rho_bounds(toy, 1.0)
    for cell in ((0, 0), (0, 1)):
        assert mt_spectral_norm(toy, d, cell) <= gamma


def test_mt_norm_zero_probability(toy):
    d = custom_distribution(toy, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ZeroProbabilityError):
        mt_spectral_norm(toy, d, (0, 1))


def test_exact_second_moment_toy(toy):
    d = hybrid_distribution(toy)
    esm = exact_second_moment(toy, d)
    np.testing.assert_allclose(
        esm.data, [[ESM_00, 0.0], [0.0, 0.0]], rtol=1e-12, atol=1e-12
    )
    _, rho2 = gamma_rho_bounds(toy, 1.0)
    assert np.linalg.norm(esm.data, 2) <= rho2


def test_exact_second_moment_single_cell(single_cell):
    esm = exact_second_moment(single_cell, hybrid_distribution(single_cell))
    np.testing.assert_allclose(esm.data, [[0.0]], atol=1e-12)


def test_exact_second_moment_errors(toy):
    d = custom_distribution(toy, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ZeroProbabilityError):
        exact_second_moment(toy, d)
    with pytest.raises(ShapeMismatchError):
        exact_second_moment(DenseMatrix(np.ones((3, 2))), hybrid_distribution(toy))


def test_exact_second_moment_symmetric_psd():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.standard_normal((m, n))
        a[rng.random((m, n)) < 0.3] = 0.0
        if not a.any():
            a[0, 0] = 1.0
        x = DenseMatrix(a)
        esm = exact_second_moment(x, hybrid_distribution(x)).data
        assert np.max(np.abs(esm - esm.T)) <= 1e-12
        evals = np.linalg.eigvalsh(esm)
        scale = max(abs(evals[0]), abs(evals[-1]), 1e-30)
        assert evals[0] >= -1e-9 * scale


def test_lemma_bounds_on_small_matrices():
    rng = np.random.default_rng(24)
    for _ in range(8):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.standard_normal((m, n))
        if not a.any():
            a[0, 0] = 1.0
        x = DenseMatrix(a)
        for build in (hybrid_distribution, l1_distribution, l2_distribution):
            d = build(x)
            if d.beta == 0.0:
                continue
            gamma, rho2 = gamma_rho_bounds(x, d.beta)
            esm = exact_second_moment(x, d).data
            assert np.linalg.norm(esm, 2) <= rho2 * (1 + 1e-9)
            grid = d.grid()
            for i in range(m):
                for j in range(n):
                    if grid[i, j] > 0:
                        assert mt_spectral_norm(x, d, (i, j)) <= gamma * (1 + 1e-9)


def test_bound_report_fields():
    rep = bound_report(_req(sr=10.0), epsilon_rel=0.5)
    assert rep.s_theorem1 == 456055
    assert rep.case_used is Theorem1Case.CASE_I
    assert rep.s_unsimplified == 319238
    assert rep.s_corollary == 182422
    assert (rep.gamma, rep.rho2) == (3 * 100 * 10.0, 2 * 100 * 100.0)
    assert rep.tail_at_s <= 0.1 + 1e-9
    assert rep.s_theorem1 >= rep.s_unsimplified


def test_bound_report_without_corollary_inputs():
    assert bound_report(_req()).s_corollary is None
    assert bound_report(_req(sr=10.0)).s_corollary is None
