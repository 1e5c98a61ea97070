import numpy as np
import pytest

from elemsparse import (
    GeneratorSpec,
    InvalidSpecError,
    frobenius_norm,
    generate_matrix,
)
from elemsparse.generate import GENERATOR_KINDS


def test_kinds_listed():
    assert set(GENERATOR_KINDS) == {"gaussian", "power-law", "low-rank-plus-noise", "binary"}


def test_determinism_per_spec():
    for kind in GENERATOR_KINDS:
        a = generate_matrix(GeneratorSpec(kind, 5, 5, 42))
        b = generate_matrix(GeneratorSpec(kind, 5, 5, 42))
        np.testing.assert_array_equal(a.data, b.data)


def test_seed_changes_output():
    a = generate_matrix(GeneratorSpec("gaussian", 6, 4, 1))
    b = generate_matrix(GeneratorSpec("gaussian", 6, 4, 2))
    assert not np.array_equal(a.data, b.data)


def test_binary_entries():
    x = generate_matrix(GeneratorSpec("binary", 13, 9, 3))
    assert set(np.unique(x.data)) <= {-1.0, 1.0}


def test_gaussian_frobenius_concentration():
    # ||X||_F^2 of an mn-cell standard gaussian is chi-square with mn dof:
    # mean mn, sd sqrt(2 mn); 4 sigma window around 2500
    x = generate_matrix(GeneratorSpec("gaussian", 50, 50, 7))
    assert abs(frobenius_norm(x) ** 2 - 2500.0) <= 4 * np.sqrt(2 * 2500.0)


def test_power_law_magnitudes():
    x = generate_matrix(GeneratorSpec("power-law", 20, 20, 5, alpha=2.0))
    mags = np.abs(x.data)
    assert np.all(mags >= 1.0)  # (1-u)^(-1/alpha) >= 1 for u in [0,1)
    assert (x.data > 0).any() and (x.data < 0).any()


def test_power_law_alpha_controls_tail():
    heavy = generate_matrix(GeneratorSpec("power-law", 30, 30, 11, alpha=0.8))
    light = generate_matrix(GeneratorSpec("power-law", 30, 30, 11, alpha=8.0))
    assert np.abs(heavy.data).max() > np.abs(light.data).max()


def test_low_rank_plus_noise_rank():
    noiseless = generate_matrix(
        GeneratorSpec("low-rank-plus-noise", 12, 10, 2, rank=3, noise=0.0)
    )
    assert np.linalg.matrix_rank(noiseless.data) == 3
    default_rank = generate_matrix(GeneratorSpec("low-rank-plus-noise", 12, 10, 2, noise=0.0))
    assert np.linalg.matrix_rank(default_rank.data) == 5  # min(5, m, n)


def test_low_rank_noise_perturbs():
    clean = generate_matrix(GeneratorSpec("low-rank-plus-noise", 8, 8, 4, noise=0.0))
    noisy = generate_matrix(GeneratorSpec("low-rank-plus-noise", 8, 8, 4, noise=0.1))
    assert not np.array_equal(clean.data, noisy.data)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        GeneratorSpec("fourier", 3, 3, 0)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec("gaussian", 0, 3, 0)
    with pytest.raises(InvalidSpecError, match="seed"):
        GeneratorSpec("gaussian", 3, 3, -1)  # numpy's seeding would raise a bare ValueError
    with pytest.raises(InvalidSpecError):
        GeneratorSpec("power-law", 3, 3, 0, alpha=0.0)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec("low-rank-plus-noise", 3, 3, 0, rank=4)
    with pytest.raises(InvalidSpecError):
        GeneratorSpec("low-rank-plus-noise", 3, 3, 0, noise=-0.1)
