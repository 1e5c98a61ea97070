import json
from pathlib import Path

import numpy as np
import pytest

from elemsparse import (
    DenseMatrix,
    GeneratorSpec,
    ShapeMismatchError,
    SparseCOO,
    generate_matrix,
    sparsify,
    sketch_error,
    spectral_norm,
)
from elemsparse import spectral
from elemsparse.spectral import _lanczos_norms

FIXTURE = Path(__file__).parent / "fixtures" / "spectral_oracle.json"

SKETCH_ERR_01_DUP = 3.9723591078164717  # ||[[-3, 700/106 - 4], [0, 0]]||_2


def test_identity():
    est = spectral_norm(DenseMatrix(np.eye(4)))
    assert est.converged
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_rank_one(toy):
    assert spectral_norm(toy).value == pytest.approx(5.0, rel=1e-6)


def test_diagonal():
    est = spectral_norm(DenseMatrix(np.diag([1.0, 2.0, 3.0])))
    assert est.value == pytest.approx(3.0, rel=1e-9)


def test_zero_matrix():
    for shape in ((3, 2), (2, 3), (1, 5), (5, 1)):
        zero = DenseMatrix(np.zeros(shape))
        for est in (spectral_norm(zero), sketch_error(zero, SparseCOO(*shape, [], [], []))):
            assert est.value == 0.0
            assert est.converged
            assert est.residual == 0.0


def test_determinism(toy):
    a = spectral_norm(toy)
    b = spectral_norm(toy)
    assert a == b  # bit-identical value, iterations, flag


def test_scale_equivariance():
    rng = np.random.default_rng(31)
    x = DenseMatrix(rng.standard_normal((8, 6)))
    base = spectral_norm(x).value
    for c in (-3.0, 0.5, 100.0):
        scaled = spectral_norm(DenseMatrix(c * x.data)).value
        assert scaled == pytest.approx(abs(c) * base, rel=1e-8)


def test_transpose_agreement():
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = DenseMatrix(rng.standard_normal((7, 4)))
        a = spectral_norm(x).value
        b = spectral_norm(x.transpose()).value
        assert a == pytest.approx(b, rel=1e-6)


def test_max_iters_signals_nonconvergence(toy, monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    for est in (spectral_norm(toy), sketch_error(toy, SparseCOO(2, 2, [], [], []))):
        assert not est.converged
        assert est.iterations == 1
        assert est.value > 0


def test_oracle_fixture_subset():
    cases = json.loads(FIXTURE.read_text())["cases"][:40]
    for c in cases:
        x = generate_matrix(
            GeneratorSpec(c["kind"], c["m"], c["n"], c["seed"],
                          alpha=c["alpha"], rank=c["rank"], noise=c["noise"])
        )
        est = spectral_norm(x)
        assert est.value == pytest.approx(c["sigma_max"], rel=1e-9, abs=1e-12)


def test_sketch_error_exact_single_cell(single_cell):
    sk = sparsify(single_cell, s=3, seed=0)
    assert sketch_error(single_cell, sk).value <= 1e-10


def test_sketch_error_empty_sketch_is_norm(toy):
    empty = SparseCOO(2, 2, [], [], [])
    est = sketch_error(toy, empty)
    assert est.converged
    assert est.value == pytest.approx(5.0, rel=1e-6)


def test_sketch_error_duplicate_example(toy):
    coo = SparseCOO(2, 2, [0], [1], [700 / 106])
    assert sketch_error(toy, coo).value == pytest.approx(SKETCH_ERR_01_DUP, rel=1e-6)


def test_sketch_error_shape_mismatch(toy):
    with pytest.raises(ShapeMismatchError):
        sketch_error(toy, SparseCOO(3, 3, [], [], []))


def test_sketch_error_matches_dense_difference():
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = DenseMatrix(rng.standard_normal((9, 5)))
        sk = sparsify(x, s=30, seed=int(rng.integers(0, 2**32)))
        lazy = sketch_error(x, sk).value
        dense = np.linalg.norm(
            np.asarray(
                np.zeros((9, 5)) + _densify(sk.matrix) - x.data
            ),
            2,
        )
        assert lazy == pytest.approx(dense, rel=1e-6)


def _densify(coo):
    out = np.zeros((coo.m, coo.n))
    np.add.at(out, (coo.rows, coo.cols), coo.vals)
    return out


def _dense_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


_ENSEMBLE = {
    "tall": GeneratorSpec("gaussian", 40, 13, 1),
    "wide": GeneratorSpec("gaussian", 13, 40, 2),
    "row": GeneratorSpec("gaussian", 1, 17, 3),
    "column": GeneratorSpec("gaussian", 17, 1, 4),
    "low-rank-plus-noise": GeneratorSpec("low-rank-plus-noise", 30, 45, 5, rank=3, noise=0.1),
    "rank-deficient": GeneratorSpec("low-rank-plus-noise", 45, 30, 6, rank=3, noise=0.0),
    "binary": GeneratorSpec("binary", 25, 35, 7),
    "power-law": GeneratorSpec("power-law", 35, 25, 8),
}


@pytest.mark.parametrize("spec", _ENSEMBLE.values(), ids=_ENSEMBLE.keys())
def test_solves_agree_with_dense_norm(spec):
    x = generate_matrix(spec)
    est = spectral_norm(x)
    assert est.converged
    assert est.residual <= 1e-9 * est.value
    assert est.value == pytest.approx(_dense_norm(x.data), rel=1e-9)
    for seed in (0, 1):
        sk = sparsify(x, s=2 * x.m * x.n, seed=seed)
        est = sketch_error(x, sk)
        assert est.converged
        assert est.value == pytest.approx(_dense_norm(_densify(sk.matrix) - x.data), rel=1e-9)


def test_second_singular_value_trap():
    # Power iteration stopped on sigma_2 = 13.19256... of this difference and
    # reported it as converged; the residual certificate finds sigma_1.
    x = generate_matrix(GeneratorSpec("gaussian", 100, 100, 44))
    est = sketch_error(x, sparsify(x, 15202, 29))
    assert est.converged
    assert est.value == pytest.approx(13.362398968827721, abs=1e-9)


def test_step_cap_below_min_dimension_is_unconverged_lower_bound(monkeypatch):
    x = generate_matrix(GeneratorSpec("gaussian", 60, 40, 9))
    sk = sparsify(x, s=2400, seed=3)
    monkeypatch.setattr(spectral, "_MAX_STEPS", 5)
    for est, dense in (
        (spectral_norm(x), _dense_norm(x.data)),
        (sketch_error(x, sk), _dense_norm(_densify(sk.matrix) - x.data)),
    ):
        assert not est.converged
        assert est.iterations == 5
        assert est.residual > spectral._TOL * est.value
        assert 0 < est.value <= dense * (1 + 1e-12)


def test_solve_is_exact_by_min_dimension(monkeypatch):
    # with a tolerance no residual test can meet early, the solve still ends
    # certified once the Krylov space fills the smaller dimension
    monkeypatch.setattr(spectral, "_TOL", 1e-300)
    for shape in ((9, 6), (6, 9)):
        x = DenseMatrix(np.random.default_rng(34).standard_normal(shape))
        est = spectral_norm(x)
        assert est.converged and est.iterations == 6
        assert est.value == pytest.approx(_dense_norm(x.data), rel=1e-12)


def _mixed_stack(shape) -> np.ndarray:
    """Members that stop at different steps: a zero matrix (alpha = 0 at step
    1), a single nonzero entry (alpha = 0 at step 2), a rank-one matrix, and
    two gaussian matrices."""
    rng = np.random.default_rng(35)
    single = np.zeros(shape)
    single[3, 5] = 2.5
    return np.array([
        np.zeros(shape),
        single,
        np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1])),
        rng.standard_normal(shape),
        rng.standard_normal(shape),
    ])


@pytest.mark.parametrize("shape", [(30, 20), (20, 30)], ids=["tall", "wide"])
@pytest.mark.parametrize(
    "settings, generic",
    [
        ({}, None),
        ({"_TOL": 1e-300}, (20, True)),  # runs to min(m, n), then exact
        ({"_MAX_STEPS": 5}, (5, False)),  # step cap: an uncertified lower bound
    ],
    ids=["default", "tol-1e-300", "max-iters-5"],
)
def test_stack_members_solve_as_alone(shape, settings, generic, monkeypatch):
    for name, value in settings.items():
        monkeypatch.setattr(spectral, name, value)
    stack = _mixed_stack(shape)
    members = [m.copy() for m in stack]
    ests = _lanczos_norms(stack)
    assert len(ests) == len(members)
    for est, member in zip(ests, members):
        alone = spectral_norm(member)
        assert est.value == pytest.approx(alone.value, rel=1e-12, abs=0.0)
        assert (est.iterations, est.converged) == (alone.iterations, alone.converged)
        dense = _dense_norm(member)
        if est.converged:
            assert est.value == pytest.approx(dense, rel=1e-9, abs=0.0)
        else:
            assert est.value <= dense * (1 + 1e-12)
    zero, single, rank_one = ests[:3]
    assert (zero.value, zero.iterations, zero.converged) == (0.0, 1, True)
    assert (single.iterations, single.converged) == (2, True)
    assert rank_one.converged and rank_one.iterations < ests[3].iterations
    if generic is not None:
        assert [(e.iterations, e.converged) for e in ests[3:]] == [generic] * 2
