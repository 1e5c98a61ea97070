import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from elemsparse import (
    DenseMatrix,
    GeneratorSpec,
    NonFiniteError,
    SampleSet,
    ShapeMismatchError,
    SparseCOO,
    generate_matrix,
    hybrid_distribution,
    sampling_operator,
    sparsify,
    sketch_error,
    spectral_norm,
)
from elemsparse import spectral
from elemsparse.spectral import _gram_norm, _lanczos_norm

FIXTURE = Path(__file__).parent / "fixtures" / "spectral_oracle.json"
TRAP = Path(__file__).parent / "fixtures" / "sigma2_trap_sketch.json"

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


# _DENSE_MAX_DIM settings that send a small operand down each path
_PATHS = {"dense": spectral._DENSE_MAX_DIM, "lanczos": 0}


def test_power_of_two_scales_bit_for_bit(monkeypatch):
    # both paths scale the operand by a power of two first, so 2^k X gives
    # 2^k times the result for X, even where u . u (or a Gram entry) would
    # underflow or overflow unscaled
    x = np.random.default_rng(36).standard_normal((20, 30))
    for dense_max in _PATHS.values():
        monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", dense_max)
        base = spectral_norm(x)
        for k in (-600, -540, 540, 600):
            est = spectral_norm(2.0**k * x)
            assert (est.value, est.residual) == (2.0**k * base.value, 2.0**k * base.residual)
            assert (est.iterations, est.converged) == (base.iterations, base.converged)


@pytest.mark.parametrize("scale", [1e-165, 1e-160, 1e160])
def test_extreme_scale_is_certified_dense_norm(scale, monkeypatch):
    # unscaled, u . u underflowed or overflowed: 1e-165 read 0.0 after one
    # step and 1e-160 read 2e-6 (relative) low, both as converged, and 1e160
    # raised numpy's LinAlgError after overflow warnings
    x = scale * np.random.default_rng(36).standard_normal((20, 30))
    for dense_max in _PATHS.values():
        monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", dense_max)
        est = spectral_norm(x)
        assert est.converged
        assert est.value == pytest.approx(_dense_norm(x), rel=1e-9, abs=0.0)


def test_subnormal_largest_entry_solves_without_warning():
    # the factor 2^1072 that lifts the largest entry, 1e-323, to 1/2 is above
    # the float range, so only a per-entry ldexp scales it without an
    # overflow warning, which the suite's warning filter makes a failure
    x = np.array([[5e-324, 0.0, 0.0], [0.0, 1e-323, 0.0]])
    for solve in (_gram_norm, _lanczos_norm):
        est = solve(x.copy())
        assert (est.value, est.converged, est.residual) == (1e-323, True, 0.0)


@pytest.mark.parametrize(
    "operand, sketch_shape, error",
    [
        ([[1.0, np.nan], [2.0, 3.0]], (2, 2), NonFiniteError),
        ([[1.0, 2.0], [-np.inf, 3.0]], (2, 2), NonFiniteError),
        (np.zeros((0, 3)), (1, 3), ShapeMismatchError),
        (np.zeros((3, 0)), (3, 1), ShapeMismatchError),
        ([1.0, 2.0, 3.0], (1, 3), ShapeMismatchError),
    ],
    ids=["nan", "inf", "no-rows", "no-columns", "1-d"],
)
def test_bad_operand_is_refused_with_a_typed_error(operand, sketch_shape, error):
    # unchecked, a nan entry read nan as converged on the dense path (and
    # raised LinAlgError on Lanczos), and an empty operand raised IndexError
    sketch = SparseCOO(*sketch_shape, [], [], [])
    with pytest.raises(error):
        spectral_norm(operand)
    with pytest.raises(error):
        sketch_error(operand, sketch)


def test_spectral_norm_leaves_its_argument_unchanged():
    x = 3.0 * np.random.default_rng(37).standard_normal((6, 4))
    before = x.copy()
    for a in (x, DenseMatrix(x)):
        spectral_norm(a)
        np.testing.assert_array_equal(x, before)


def test_transpose_agreement():
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = DenseMatrix(rng.standard_normal((7, 4)))
        a = spectral_norm(x).value
        b = spectral_norm(x.transpose()).value
        assert a == pytest.approx(b, rel=1e-6)


def test_max_iters_signals_nonconvergence(toy, monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)
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


@pytest.mark.parametrize("shape", [(200, 600), (400, 400)])
@pytest.mark.parametrize("solve", ["spectral_norm", "sketch_error"])
def test_plain_array_operand_costs_no_more_memory(solve, shape):
    """A plain ndarray x gives the value a DenseMatrix x gives, and its
    traced peak stays within 5% of x's size of the DenseMatrix peak: the
    copy made to check x is not held beside the solve's working array."""
    x = DenseMatrix(np.random.default_rng(7).standard_normal(shape))
    sketch = SparseCOO(*shape, [0, 1, 1], [2, 0, 0], [1.5, -2.0, 0.25])
    run = {"spectral_norm": spectral_norm, "sketch_error": lambda a: sketch_error(a, sketch)}[solve]
    size = x.data.nbytes
    results, peaks = [], []
    for operand in (x, x.data.copy()):
        tracemalloc.start()
        try:
            results.append(run(operand))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    assert peaks[1] <= peaks[0] + 0.05 * size, [peak / size for peak in peaks]


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
def test_solves_agree_with_dense_norm(spec, monkeypatch):
    # the dense path is exact to roundoff, far inside Lanczos's 1e-9, and
    # sets its steps and residual by construction
    x = generate_matrix(spec)
    sketches = [sparsify(x, s=2 * x.m * x.n, seed=seed) for seed in (0, 1)]
    dense = [_dense_norm(x.data)] + [_dense_norm(_densify(sk.matrix) - x.data) for sk in sketches]
    for path, dense_max in _PATHS.items():
        monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", dense_max)
        rel = 1e-12 if path == "dense" else 1e-9
        for est, norm in zip([spectral_norm(x)] + [sketch_error(x, sk) for sk in sketches], dense):
            assert est.converged
            assert est.residual <= 1e-9 * est.value
            assert est.value == pytest.approx(norm, rel=rel, abs=0.0)
            assert (est.iterations == 0) is (path == "dense")
            if path == "dense":
                assert est.residual == 0.0


def test_paths_meet_at_the_crossover():
    # the dispatch changes path between min(m, n) = _DENSE_MAX_DIM and one
    # more; on both sides the two paths give the same value
    for small in (spectral._DENSE_MAX_DIM, spectral._DENSE_MAX_DIM + 1):
        x = generate_matrix(GeneratorSpec("gaussian", small + 20, small, small))
        sk = sparsify(x, s=x.m * x.n, seed=1)
        diff = _densify(sk.matrix) - x.data
        dense = _gram_norm(diff.copy())
        lanczos = _lanczos_norm(diff.copy())
        assert lanczos.converged
        assert dense.value == pytest.approx(lanczos.value, rel=1e-12, abs=0.0)
        assert sketch_error(x, sk) == (dense if small == spectral._DENSE_MAX_DIM else lanczos)


def test_second_singular_value_trap(monkeypatch):
    # Power iteration stopped on sigma_2 = 13.19256... of this difference and
    # reported it as converged; Lanczos's residual certificate finds sigma_1,
    # and the dense path, which takes this 100 x 100 difference by default,
    # gets every eigenvalue. The sketch is frozen
    # (scripts/make_trap_fixture.py): the sampler's stream draws another one
    # from its seed.
    doc = json.loads(TRAP.read_text(encoding="ascii"))
    x = generate_matrix(GeneratorSpec(**doc["generator"]))
    d = hybrid_distribution(x)
    omega = SampleSet(x.m, x.n, doc["s"], doc["cells"], doc["counts"], doc["seed"])
    sketch = sampling_operator(x, d, omega)
    for path, dense_max in _PATHS.items():
        monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", dense_max)
        est = sketch_error(x, sketch)
        assert est.converged
        assert (est.iterations == 0) is (path == "dense")
        assert est.value == pytest.approx(13.362398968827721, abs=1e-9)


def test_step_cap_below_min_dimension_is_unconverged_lower_bound(monkeypatch):
    x = generate_matrix(GeneratorSpec("gaussian", 60, 40, 9))
    sk = sparsify(x, s=2400, seed=3)
    monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)
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
    monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)
    monkeypatch.setattr(spectral, "_TOL", 1e-300)
    for shape in ((9, 6), (6, 9)):
        x = DenseMatrix(np.random.default_rng(34).standard_normal(shape))
        est = spectral_norm(x)
        assert est.converged and est.iterations == 6
        assert est.value == pytest.approx(_dense_norm(x.data), rel=1e-12)


def _mixed_members(shape) -> dict:
    """Operands that stop at different steps: a zero matrix (alpha = 0 at
    step 1), a single nonzero entry (alpha = 0 at step 2), a rank-one matrix,
    and four gaussian matrices, two of them scaled by 1e-170 and 1e160."""
    rng = np.random.default_rng(35)
    single = np.zeros(shape)
    single[3, 5] = 2.5
    return {
        "zero": np.zeros(shape),
        "single": single,
        "rank-one": np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1])),
        "gaussian-a": rng.standard_normal(shape),
        "gaussian-b": rng.standard_normal(shape),
        "tiny-1e-170": 1e-170 * rng.standard_normal(shape),
        "huge-1e160": 1e160 * rng.standard_normal(shape),
    }


_SHAPES = {"tall": (30, 20), "wide": (20, 30)}
_MEMBERS = list(_mixed_members((30, 20)))


@pytest.mark.parametrize("shape", _SHAPES.values(), ids=_SHAPES.keys())
@pytest.mark.parametrize("member", _MEMBERS)
def test_dense_member_solves(shape, member):
    a = _mixed_members(shape)[member]
    est = _gram_norm(a.copy())
    assert est == spectral_norm(a)  # bit for bit, through the dispatch
    assert est == (pytest.approx(_dense_norm(a), rel=1e-12, abs=0.0), 0, True, 0.0)


# Lanczos settings: module constants, and the (steps, converged) of every
# gaussian member under them
_LANCZOS_SETTINGS = {
    "default": ({}, None),
    "tol-1e-300": ({"_TOL": 1e-300}, (20, True)),  # runs to min(m, n), then exact
    "max-iters-5": ({"_MAX_STEPS": 5}, (5, False)),  # step cap: an uncertified lower bound
}


@pytest.mark.parametrize("shape", _SHAPES.values(), ids=_SHAPES.keys())
@pytest.mark.parametrize("setting", _LANCZOS_SETTINGS.values(), ids=_LANCZOS_SETTINGS.keys())
@pytest.mark.parametrize("member", _MEMBERS)
def test_lanczos_member_solves(shape, setting, member, monkeypatch):
    settings, generic = setting
    monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)  # spectral_norm solves by Lanczos
    for name, value in settings.items():
        monkeypatch.setattr(spectral, name, value)
    members = _mixed_members(shape)
    a = members[member]
    est = _lanczos_norm(a.copy())
    assert est == spectral_norm(a)  # bit for bit, through the dispatch
    dense = _dense_norm(a)
    if est.converged:
        assert est.value == pytest.approx(dense, rel=1e-9, abs=0.0)
    else:
        assert est.value <= dense * (1 + 1e-12)
    if member == "zero":
        assert (est.value, est.iterations, est.converged) == (0.0, 1, True)
    elif member == "single":
        assert (est.iterations, est.converged) == (2, True)
    elif member == "rank-one":  # stops before the gaussian members
        assert est.converged and est.iterations < _lanczos_norm(members["gaussian-a"]).iterations
    elif generic is not None:
        assert (est.iterations, est.converged) == generic
