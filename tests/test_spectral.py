import json
from pathlib import Path

import numpy as np
import pytest

from elemsparse import (
    DenseMatrix,
    GeneratorSpec,
    ShapeMismatchError,
    SparseCOO,
    SpectralConfig,
    generate_matrix,
    sparsify,
    sketch_error,
    spectral_norm,
)

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
    est = spectral_norm(DenseMatrix(np.zeros((3, 2))))
    assert est.value == 0.0
    assert est.converged


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


def test_max_iters_signals_nonconvergence(toy):
    cfg = SpectralConfig(max_iters=1)
    for est in (spectral_norm(toy, cfg), sketch_error(toy, SparseCOO(2, 2, [], [], []), cfg)):
        assert not est.converged
        assert est.iterations == 1
        assert est.value > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(tol=0.0)
    with pytest.raises(ValueError):
        SpectralConfig(max_iters=0)


def test_oracle_fixture_subset():
    cases = json.loads(FIXTURE.read_text())["cases"][:40]
    for c in cases:
        x = generate_matrix(
            GeneratorSpec(c["kind"], c["m"], c["n"], c["seed"],
                          alpha=c["alpha"], rank=c["rank"], noise=c["noise"])
        )
        est = spectral_norm(x)
        assert est.value == pytest.approx(c["sigma_max"], rel=1e-4, abs=1e-12)


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
