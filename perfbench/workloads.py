"""The workloads: how each makes its input, the one command it repeats,
how set-up time is taken, and the checks its output must pass.

A check returns a list of problems; an empty list means the output is right.
Every check compares against ``reference`` (numpy, written apart from the
program), never against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

EPSILON_REL = 0.5
DELTA = 0.1

# The error solve may only under-estimate ||S - X||_2: it may read up to
# 1e-6 relative below the dense value and at most 1e-9 above it.
BELOW_TOL = 1e-6
ABOVE_TOL = 1e-9


@dataclass
class Inputs:
    """What one run of a workload works on, made from the workload seed."""

    x: np.ndarray
    argv: list  # arguments after `python -m elemsparse`
    output: str  # the file the command writes, relative to the work dir
    load_expr: str  # Python expression that brings the input into memory


@dataclass(frozen=True)
class Workload:
    make: Callable  # (work_dir: Path, seed: int) -> Inputs
    check: Callable  # (inputs, stdout: str, output: str) -> list of problems


def normalized(text: str) -> str:
    """Output with the value of its timing block cut out: the part that must
    repeat byte for byte."""
    key = text.find('"wall_times":')
    if key < 0:
        return text
    start = key + len('"wall_times":')
    start += len(text[start:]) - len(text[start:].lstrip())
    _, end = json.JSONDecoder().raw_decode(text, start)
    return text[:start] + text[end:]


def _trials(inputs: Inputs) -> int:
    return int(inputs.argv[inputs.argv.index("--trials") + 1])


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _dense_error_problems(x: np.ndarray, s: int, seeds, reported, label: str) -> list:
    """Rebuild each trial's sketch with the public functions that ``sparsify``
    composes, the hybrid distribution and its alias table built once, and
    compare the reported error with a dense SVD of the difference."""
    from elemsparse import (DenseMatrix, DistributionKind, build_alias_table, distribution_for_kind, draw_samples,
                            sampling_operator)

    matrix = DenseMatrix(x)
    dist = distribution_for_kind(matrix, DistributionKind.HYBRID)
    table = build_alias_table(dist)
    problems = []
    for t, (seed, error) in enumerate(zip(seeds, reported)):
        coo = sampling_operator(matrix, dist, draw_samples(table, s, seed)).matrix
        dense = ref.spectral_norm(ref.densify(x.shape[0], x.shape[1], coo.rows, coo.cols, coo.vals) - x)
        if not dense * (1.0 - BELOW_TOL) <= error <= dense * (1.0 + ABOVE_TOL):
            problems.append(f"{label} trial {t} (seed {seed}): reported error {error!r}, dense ||S - X||_2 = {dense!r}")
    return problems


# ---------------------------------------------------------------------------
# sparsify-mtx

SPARSIFY_SHAPE = (500, 500)
_WROTE = re.compile(r"wrote (\S+): (\d+)x(\d+), s=(\d+), nnz=(\d+)")


def _make_sparsify(work: Path, seed: int, shape=SPARSIFY_SHAPE) -> Inputs:
    x = ref.power_law(*shape, seed)
    ref.write_mtx(work / "X.mtx", x)
    argv = ["sparsify", "--input", "X.mtx", "--epsilon-rel", str(EPSILON_REL), "--delta", str(DELTA),
            "--seed", str(seed), "--out", "sketch.mtx"]
    return Inputs(x, argv, "sketch.mtx", f"elemsparse.load_matrix({str(work / 'X.mtx')!r})")


def check_sparsify(inputs: Inputs, stdout: str, output: str) -> list:
    x = inputs.x
    m, n = x.shape
    found = _WROTE.search(stdout)
    if found is None:
        return [f"sparsify: no 'wrote' line in {stdout!r}"]
    s, nnz = int(found.group(4)), int(found.group(5))
    problems = []
    frob = ref.frobenius(x)
    s_ref = ref.s_unsimplified(m, n, EPSILON_REL * frob, DELTA, 1.0, frob)
    if not abs(s - s_ref) <= 1.0:
        problems.append(f"sparsify: s={s}, reference unsimplified bound {s_ref!r}")
    sm, sn, rows, cols, vals = ref.parse_mtx(output)
    if (sm, sn) != (m, n) or rows.size != nnz:
        return problems + [f"sparsify: sketch is {sm}x{sn} with {rows.size} entries, expected {m}x{n} with {nnz}"]
    if np.unique(rows * n + cols).size != rows.size:
        problems.append("sparsify: sketch repeats a cell")
    xv = x[rows, cols]
    if np.any(xv == 0.0):
        return problems + ["sparsify: sketch has a cell off the support of X"]
    counts = vals * s * ref.probabilities(x)["hybrid"][rows, cols] / xv
    whole = np.rint(counts)
    if np.any(whole < 1) or np.max(np.abs(counts - whole)) > 1e-9:
        problems.append(f"sparsify: implied counts are not positive integers (worst {float(np.max(np.abs(counts - whole)))!r})")
    elif int(whole.sum()) != s:
        problems.append(f"sparsify: implied counts sum to {int(whole.sum())}, not s={s}")
    return problems


# ---------------------------------------------------------------------------
# compare-corollary

COMPARE_SHAPE = (100, 100)
COMPARE_TRIALS = 16
_KINDS = ("hybrid", "l1", "l2")


def _make_compare(work: Path, seed: int, shape=COMPARE_SHAPE, trials=COMPARE_TRIALS) -> Inputs:
    m, n = shape
    spec = f"gaussian,{m},{n},{seed}"
    argv = ["compare", "--generate", spec, "--epsilon-rel", str(EPSILON_REL), "--delta", str(DELTA),
            "--bound-form", "corollary", "--trials", str(trials), "--jobs", "1", "--out", "table.json"]
    load = f"elemsparse.generate_matrix(elemsparse.GeneratorSpec('gaussian', {m}, {n}, {seed}))"
    return Inputs(ref.gaussian(m, n, seed), argv, "table.json", load)


def check_compare(inputs: Inputs, stdout: str, output: str) -> list:
    x = inputs.x
    m, n = x.shape
    res = json.loads(output)["result"]
    kinds = res["kinds"]
    if [k["kind"] for k in kinds] != list(_KINDS) or any(len(k["errors"]) != _trials(inputs) for k in kinds):
        return [f"compare: kinds {[k['kind'] for k in kinds]} or their error counts are not as asked"]
    problems = []
    probs = ref.probabilities(x)
    for k in kinds:
        beta = k["beta_certificate"]
        if k["kind"] == "hybrid":
            if beta != 1.0:
                problems.append(f"compare: hybrid certificate {beta!r}, expected exactly 1")
        elif not _within(beta, expected := ref.beta_certificate(x, probs[k["kind"]]), 1e-9):
            problems.append(f"compare: {k['kind']} certificate {beta!r}, reference {expected!r}")
        if not _within(k["median_error"], float(np.median(k["errors"])), 1e-12):
            problems.append(f"compare: {k['kind']} median_error disagrees with its errors")
        if not _within(k["p90_error"], float(np.percentile(k["errors"], 90.0)), 1e-12):
            problems.append(f"compare: {k['kind']} p90_error disagrees with its errors")
    sigma1 = ref.spectral_norm(x)
    eps = res["epsilon_used"]
    if not _within(eps, EPSILON_REL * sigma1, 1e-6):
        problems.append(f"compare: epsilon_used {eps!r}, reference {EPSILON_REL * sigma1!r}")
    s = res["s_used"]
    s_ref = ref.s_corollary(m, n, EPSILON_REL, DELTA, 1.0, ref.frobenius(x) ** 2 / sigma1**2)
    if not abs(s - s_ref) <= 1e-6 * s_ref + 1.0:
        problems.append(f"compare: s_used={s}, reference corollary bound {s_ref!r}")
    problems += _dense_error_problems(x, s, res["seeds"][:1], kinds[0]["errors"][:1], "compare hybrid")
    return problems


# ---------------------------------------------------------------------------
# experiment-mc

EXPERIMENT_SHAPE = (100, 100)
EXPERIMENT_TRIALS = 256
EXPERIMENT_JOBS = 2


def _make_experiment(work: Path, seed: int, shape=EXPERIMENT_SHAPE, trials=EXPERIMENT_TRIALS) -> Inputs:
    m, n = shape
    argv = ["experiment", "--generate", f"gaussian,{m},{n},{seed}", "--epsilon-rel", str(EPSILON_REL),
            "--delta", str(DELTA), "--trials", str(trials), "--jobs", str(EXPERIMENT_JOBS), "--out", "result.json"]
    load = f"elemsparse.generate_matrix(elemsparse.GeneratorSpec('gaussian', {m}, {n}, {seed}))"
    return Inputs(ref.gaussian(m, n, seed), argv, "result.json", load)


def check_experiment(inputs: Inputs, stdout: str, output: str) -> list:
    x = inputs.x
    m, n = x.shape
    res = json.loads(output)["result"]
    errors, seeds = res["errors"], res["seeds"]
    if len(errors) != _trials(inputs) or len(seeds) != len(errors):
        return [f"experiment: {len(errors)} errors and {len(seeds)} seeds for {_trials(inputs)} trials"]
    problems = []
    frob = ref.frobenius(x)
    eps = res["epsilon_used"]
    if not _within(eps, EPSILON_REL * frob, 1e-12):
        problems.append(f"experiment: epsilon_used {eps!r}, reference {EPSILON_REL * frob!r}")
    rate = sum(e > eps for e in errors) / len(errors)
    if rate > DELTA or res["empirical_failure_rate"] != rate:
        problems.append(f"experiment: failure rate {rate!r} against epsilon_used (reported "
                        f"{res['empirical_failure_rate']!r}), delta {DELTA}")
    if res["passed"] is not True:
        problems.append(f"experiment: passed is {res['passed']!r}")
    s = res["s_used"]
    s_ref = ref.s_unsimplified(m, n, EPSILON_REL * frob, DELTA, 1.0, frob)
    if not abs(s - s_ref) <= 1.0:
        problems.append(f"experiment: s_used={s}, reference unsimplified bound {s_ref!r}")
    problems += _dense_error_problems(x, s, seeds, errors, "experiment")
    return problems


# Why each workload was chosen is in BENCHMARK.json and the README.
WORKLOADS = {
    "sparsify-mtx": Workload(_make_sparsify, check_sparsify),
    "experiment-mc": Workload(_make_experiment, check_experiment),
    "compare-corollary": Workload(_make_compare, check_compare),
}
