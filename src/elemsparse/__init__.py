"""Randomized element-wise matrix sparsification.

Build a sparse, unbiased sketch of a dense matrix by sampling entries from a
hybrid L1/L2 importance distribution, with matrix-Bernstein sample-size
calculators, spectral-norm diagnostics, and a Monte-Carlo experiment harness.

The top level exports the documented API; ``stable_rank`` is spectral's. The
individual sample-size forms, the tail and the second-moment diagnostics stay
importable from their modules (``elemsparse.bounds``, ``elemsparse.sampler``,
``elemsparse.matrix``, ``elemsparse.spectral``, ``elemsparse.experiment``,
``elemsparse.io`` and ``elemsparse.generate``).

Each name loads its module on first use (PEP 562), so ``import elemsparse``
imports no submodule, and loading or generating a matrix does not import the
experiment harness, the bounds or the solver.
"""

import importlib

__version__ = "0.1.0"

# The home module of every top-level name, in the order of the documented API.
_EXPORTS = {
    "matrix": ("DenseMatrix", "SparseCOO", "frobenius_norm"),
    "distributions": (
        "DistributionKind",
        "SamplingDistribution",
        "hybrid_distribution",
        "l1_distribution",
        "l2_distribution",
        "custom_distribution",
        "distribution_for_kind",
        "beta_certificate",
    ),
    "sampler": ("SampleSet", "SparseSketch", "build_alias_table", "draw_samples", "sampling_operator", "sparsify"),
    "bounds": ("BoundRequest", "BoundReport", "bound_report"),
    "spectral": ("SpectralEstimate", "spectral_norm", "sketch_error", "stable_rank"),
    "experiment": (
        "BoundForm",
        "FileSource",
        "ExperimentConfig",
        "ExperimentResult",
        "run_experiment",
        "compare_distributions",
    ),
    "generate": ("GeneratorSpec", "generate_matrix"),
    "io": ("load_matrix", "write_matrix_market", "write_csv"),
    "errors": (
        "ElemsparseError",
        "ZeroMatrixError",
        "NonFiniteError",
        "ShapeMismatchError",
        "ZeroProbabilityError",
        "HypothesisViolatedError",
        "ParseError",
        "DimensionError",
        "InvalidSpecError",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import the module behind a top-level name or submodule on first use,
    and bind the value here so later lookups skip this function."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
