"""Randomized element-wise matrix sparsification.

Build a sparse, unbiased sketch of a dense matrix by sampling entries from a
hybrid L1/L2 importance distribution, with matrix-Bernstein sample-size
calculators, spectral-norm diagnostics, and a Monte-Carlo experiment harness.

The top level exports the documented API; ``stable_rank`` is spectral's. The
individual sample-size forms, the tail and the second-moment diagnostics stay
importable from their modules (``elemsparse.bounds``, ``elemsparse.sampler``,
``elemsparse.matrix``, ``elemsparse.spectral``, ``elemsparse.experiment``,
``elemsparse.io`` and ``elemsparse.generate``).
"""

from .bounds import BoundReport, BoundRequest, bound_report
from .distributions import (
    DistributionKind,
    SamplingDistribution,
    beta_certificate,
    custom_distribution,
    distribution_for_kind,
    hybrid_distribution,
    l1_distribution,
    l2_distribution,
)
from .errors import (
    DimensionError,
    ElemsparseError,
    HypothesisViolatedError,
    InvalidSpecError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    ZeroMatrixError,
    ZeroProbabilityError,
)
from .experiment import (
    BoundForm,
    CompareResult,
    ExperimentConfig,
    ExperimentResult,
    FileSource,
    compare_distributions,
    run_experiment,
)
from .generate import GeneratorSpec, generate_matrix
from .io import load_matrix, write_csv, write_matrix_market
from .matrix import DenseMatrix, SparseCOO, frobenius_norm
from .sampler import (
    SampleSet,
    SparseSketch,
    build_alias_table,
    draw_samples,
    sampling_operator,
    sparsify,
)
from .spectral import SpectralEstimate, sketch_error, spectral_norm, stable_rank

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrix-core
    "DenseMatrix",
    "SparseCOO",
    "frobenius_norm",
    # distributions
    "DistributionKind",
    "SamplingDistribution",
    "hybrid_distribution",
    "l1_distribution",
    "l2_distribution",
    "custom_distribution",
    "distribution_for_kind",
    "beta_certificate",
    # sampler
    "SampleSet",
    "SparseSketch",
    "build_alias_table",
    "draw_samples",
    "sampling_operator",
    "sparsify",
    # bounds
    "BoundRequest",
    "BoundReport",
    "bound_report",
    # spectral
    "SpectralEstimate",
    "spectral_norm",
    "sketch_error",
    "stable_rank",
    # experiment harness
    "BoundForm",
    "FileSource",
    "ExperimentConfig",
    "ExperimentResult",
    "CompareResult",
    "run_experiment",
    "compare_distributions",
    # generation and I/O
    "GeneratorSpec",
    "generate_matrix",
    "load_matrix",
    "write_matrix_market",
    "write_csv",
    # errors
    "ElemsparseError",
    "ZeroMatrixError",
    "NonFiniteError",
    "ShapeMismatchError",
    "ZeroProbabilityError",
    "HypothesisViolatedError",
    "ParseError",
    "DimensionError",
    "InvalidSpecError",
]
