"""Randomized element-wise matrix sparsification.

Build a sparse, unbiased sketch of a dense matrix by sampling entries from a
hybrid L1/L2 importance distribution, with matrix-Bernstein sample-size
calculators, spectral-norm diagnostics, and a Monte-Carlo experiment harness.
"""

from .bounds import (
    BoundReport,
    BoundRequest,
    Theorem1Case,
    bernstein_tail,
    bound_report,
    exact_second_moment,
    gamma_rho_bounds,
    mt_spectral_norm,
    sample_size_corollary,
    sample_size_theorem1,
    sample_size_unsimplified,
)
from .distributions import (
    DistributionKind,
    SamplingDistribution,
    beta_certificate,
    custom_distribution,
    distribution_for_kind,
    hybrid_distribution,
    l1_distribution,
    l2_distribution,
    support_mask,
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
    KindSummary,
    SCHEMA_VERSION,
    compare_distributions,
    run_experiment,
)
from .generate import GENERATOR_KINDS, GeneratorSpec, generate_matrix
from .io import FORMATS, load_matrix, write_csv, write_dense, write_matrix_market
from .matrix import (
    DenseMatrix,
    SparseCOO,
    coo_to_dense,
    entry_abs_sum,
    frobenius_norm,
    stable_rank,
)
from .sampler import (
    AliasTable,
    SampleSet,
    SparseSketch,
    build_alias_table,
    draw_samples,
    exact_expectation,
    reconstructed_probs,
    sampling_operator,
    sparsify,
)
from .spectral import (
    DEFAULT_CONFIG,
    SpectralConfig,
    SpectralEstimate,
    sketch_error,
    spectral_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrix-core
    "DenseMatrix",
    "SparseCOO",
    "coo_to_dense",
    "frobenius_norm",
    "entry_abs_sum",
    "stable_rank",
    # distributions
    "DistributionKind",
    "SamplingDistribution",
    "hybrid_distribution",
    "l1_distribution",
    "l2_distribution",
    "custom_distribution",
    "distribution_for_kind",
    "beta_certificate",
    "support_mask",
    # sampler
    "AliasTable",
    "SampleSet",
    "SparseSketch",
    "build_alias_table",
    "reconstructed_probs",
    "draw_samples",
    "sampling_operator",
    "sparsify",
    "exact_expectation",
    # bounds and diagnostics
    "Theorem1Case",
    "BoundRequest",
    "BoundReport",
    "sample_size_theorem1",
    "sample_size_unsimplified",
    "sample_size_corollary",
    "bernstein_tail",
    "gamma_rho_bounds",
    "mt_spectral_norm",
    "exact_second_moment",
    "bound_report",
    # spectral
    "SpectralConfig",
    "SpectralEstimate",
    "DEFAULT_CONFIG",
    "spectral_norm",
    "sketch_error",
    # experiment harness
    "SCHEMA_VERSION",
    "BoundForm",
    "FileSource",
    "ExperimentConfig",
    "ExperimentResult",
    "KindSummary",
    "CompareResult",
    "run_experiment",
    "compare_distributions",
    # generation and I/O
    "GENERATOR_KINDS",
    "GeneratorSpec",
    "generate_matrix",
    "FORMATS",
    "load_matrix",
    "write_matrix_market",
    "write_csv",
    "write_dense",
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
