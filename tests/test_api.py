"""The public surface: the README's Python examples run as written, the top
level exports exactly the documented API, and every name the benchmark
imports from the top level resolves."""

import re
from pathlib import Path

import elemsparse

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = (
    "__version__",
    "DenseMatrix", "SparseCOO", "frobenius_norm", "stable_rank",
    "DistributionKind", "SamplingDistribution", "hybrid_distribution", "l1_distribution", "l2_distribution",
    "custom_distribution", "distribution_for_kind", "beta_certificate",
    "SampleSet", "SparseSketch", "build_alias_table", "draw_samples", "sampling_operator", "sparsify",
    "BoundRequest", "BoundReport", "bound_report",
    "SpectralEstimate", "spectral_norm", "sketch_error",
    "BoundForm", "FileSource", "ExperimentConfig", "ExperimentResult", "CompareResult", "run_experiment",
    "compare_distributions",
    "GeneratorSpec", "generate_matrix", "load_matrix", "write_matrix_market", "write_csv",
    "ElemsparseError", "ZeroMatrixError", "NonFiniteError", "ShapeMismatchError", "ZeroProbabilityError",
    "HypothesisViolatedError", "ParseError", "DimensionError", "InvalidSpecError",
)

# The names perfbench/workloads.py imports from the top level or names in the
# set-up code it runs (``elemsparse.load_matrix(...)`` and the like).
BENCHMARK_NAMES = (
    "DenseMatrix", "DistributionKind", "build_alias_table", "distribution_for_kind", "draw_samples",
    "sampling_operator", "load_matrix", "generate_matrix", "GeneratorSpec",
)


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}  # later blocks reuse what earlier ones define, as a reader would
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_top_level_exports_the_documented_api():
    assert len(elemsparse.__all__) == len(set(elemsparse.__all__)) == 46
    assert sorted(elemsparse.__all__) == sorted(DOCUMENTED)
    for name in elemsparse.__all__:
        assert hasattr(elemsparse, name), name


def test_benchmark_names_resolve():
    for name in BENCHMARK_NAMES:
        assert name in elemsparse.__all__ and hasattr(elemsparse, name), name
