"""The public surface: the README's Python examples run as written, the top
level exports exactly the documented API, loading each module only when one
of its names is first used, and every name the benchmark imports from the
top level resolves."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    "BoundForm", "FileSource", "ExperimentConfig", "ExperimentResult", "run_experiment",
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

# The set-up expression of the benchmark's generated-input workloads.
GENERATE_SETUP = "elemsparse.generate_matrix(elemsparse.GeneratorSpec('gaussian', 100, 100, 1))"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}  # later blocks reuse what earlier ones define, as a reader would
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_top_level_exports_the_documented_api():
    assert len(elemsparse.__all__) == len(set(elemsparse.__all__)) == 45
    assert sorted(elemsparse.__all__) == sorted(DOCUMENTED)
    assert set(DOCUMENTED) <= set(dir(elemsparse))
    for name in set(elemsparse.__all__) - {"__version__"}:
        value = getattr(elemsparse, name)
        assert value.__module__.startswith("elemsparse."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from elemsparse import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(DOCUMENTED)
    assert all(namespace[name] is getattr(elemsparse, name) for name in DOCUMENTED)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        elemsparse.no_such_name


def test_names_load_their_module_on_first_use():
    """In a fresh interpreter, ``import elemsparse`` loads no submodule and
    not ``concurrent.futures``; the generated-input set-up loads only the
    generator and what it needs; a submodule resolves after a bare import."""
    loaded = "sorted(m for m in sys.modules if m.startswith('elemsparse.') or m == 'concurrent.futures')"
    code = (
        "import json, sys\n"
        "import elemsparse\n"
        f"bare = {loaded}\n"
        f"x = {GENERATE_SETUP}\n"
        f"generated = {loaded}\n"
        "json.dump([bare, generated, elemsparse.bounds.sample_size_theorem1.__module__], sys.stdout)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    bare, generated, bounds = json.loads(res.stdout)
    assert bare == []
    assert generated == ["elemsparse.errors", "elemsparse.generate", "elemsparse.matrix"]
    assert bounds == "elemsparse.bounds"


def test_monte_carlo_runs_load_no_masked_arrays_and_no_executor(tmp_path):
    """In a fresh interpreter, ``run_experiment`` and ``compare_distributions``
    on two forked workers, and ``python -m elemsparse compare``, leave
    neither ``numpy.ma`` (which numpy's median and percentile import) nor
    ``concurrent.futures`` nor ``multiprocessing`` in ``sys.modules``; the
    same runs on one worker, at --jobs 1 and at --jobs 2 where fork is
    unsafe, load no ``mmap`` either, which only the stop byte shared by two
    or more workers uses."""
    unused = "('numpy.ma', 'concurrent.futures', 'multiprocessing')"
    spec = "elemsparse.GeneratorSpec('gaussian', 20, 20, 1)"
    cfg = f"elemsparse.ExperimentConfig({spec}, epsilon_rel=0.5, trials=2, jobs={{jobs}})"
    code = (
        "import json, sys\n"
        "import elemsparse\n"
        "from elemsparse import experiment\n"
        "experiment.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "for forked, jobs in ((True, 1), (False, 2)):\n"
        "    experiment._fork_safe = lambda: forked\n"
        f"    elemsparse.run_experiment({cfg.format(jobs='jobs')})\n"
        f"    elemsparse.compare_distributions({cfg.format(jobs='jobs')})\n"
        "one_worker = [m for m in ('mmap', *" + unused + ") if m in sys.modules]\n"
        "experiment._fork_safe = lambda: True\n"
        f"elemsparse.run_experiment({cfg.format(jobs=2)})\n"
        f"elemsparse.compare_distributions({cfg.format(jobs=2)})\n"
        f"json.dump([one_worker, [m for m in {unused} if m in sys.modules]], sys.stdout)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[], []]
    code = (
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('elemsparse', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"json.dump([m for m in {unused} if m in sys.modules], sys.stdout)\n"
    )
    argv = ["compare", "--generate", "gaussian,20,20,1", "--epsilon-rel", "0.5", "--trials", "2", "--jobs", "2"]
    res = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "compare.json")], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "compare.json").read_text())["command"] == "compare"


def test_benchmark_names_resolve():
    for name in BENCHMARK_NAMES:
        assert name in elemsparse.__all__ and hasattr(elemsparse, name), name
