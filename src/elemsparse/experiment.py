"""Run planning and the experiment harness: Monte-Carlo validation of the
sparsification guarantee plus a three-way distribution comparison.

``make_plan`` is the one path from a matrix to its distributions and sample
size that every command shares; with ``BoundRequest`` it owns the rules on
s, epsilon, epsilon_rel, delta and the bound form. ``run_experiment`` and
``compare_distributions`` return results and write nothing; the CLI does.
``experiment_payload`` and ``compare_payload`` build each JSON document with
``dataclasses.asdict`` from the config and the result, so a field added to a
result dataclass reaches the JSON with no other change.

Reproducibility contract: trial t of every distribution draws with seed
(base_seed + t) mod 2^64. A trial draws only its cell counts and builds its
S - X from them, never a sketch; that array is the densified
``sparsify(x, s, seed, kind)`` sketch minus X, bit for bit, and its error is
one ``spectral._spectral_norm`` solve (an exact Gram eigensolve where
min(m, n) <= 300, Lanczos above). Both entry points run every (distribution,
seed) trial of their plan in one ``_run_trials`` call: --jobs bounds its
workers, the calling thread is worker 0 and each other worker is a thread of
its own (so --jobs 1 starts none), each runs an interleaved share of the
trials one at a time, and each trial stores one record at its distribution
and seed, so no result depends on which worker ran it. ``_trials``
aggregates each distribution's records for both callers, and
``_median_and_p90`` gives compare's two summary figures without numpy's
median and percentile, which import ``numpy.ma``. Serialized output is
deterministic (sorted keys) apart from the wall_times block, which is
environment noise by nature.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import BoundReport, BoundRequest, bound_report, sample_size_corollary
from .distributions import _BUILTIN_KINDS, DistributionKind, _certified_beta, _distributions, _Named
from .errors import InvalidSpecError
from .generate import GeneratorSpec, generate_matrix
from .io import load_matrix
from .matrix import DenseMatrix
from .sampler import _SEED_MASK, _cell_values, _draw_counts
from .spectral import _spectral_norm, _stable_rank

__all__ = [
    "SCHEMA_VERSION",
    "BoundForm",
    "FileSource",
    "ExperimentConfig",
    "ExperimentResult",
    "CompareResult",
    "KindSummary",
    "Plan",
    "resolve_matrix",
    "make_plan",
    "run_experiment",
    "compare_distributions",
    "experiment_payload",
    "compare_payload",
    "payload_text",
]

SCHEMA_VERSION = 3

class BoundForm(_Named):
    THEOREM1 = "theorem1"
    UNSIMPLIFIED = "unsimplified"
    COROLLARY = "corollary"


@dataclass(frozen=True)
class FileSource:
    """A matrix on disk; fmt None means infer from the suffix."""

    path: str
    fmt: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    source: "GeneratorSpec | FileSource"
    dist_kind: DistributionKind = DistributionKind.HYBRID
    epsilon: float | None = None
    epsilon_rel: float | None = None
    delta: float = 0.1
    s_override: int | None = None
    bound_form: BoundForm = BoundForm.UNSIMPLIFIED
    trials: int = 1
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dist_kind", DistributionKind(self.dist_kind))
        object.__setattr__(self, "bound_form", BoundForm(self.bound_form))
        if self.epsilon is None and self.epsilon_rel is None:  # a run reports its error against one, even at a given s
            raise InvalidSpecError("one of epsilon and epsilon_rel is required")
        if self.trials < 1:
            raise InvalidSpecError("trials must be >= 1")
        if self.base_seed < 0:
            raise InvalidSpecError("base_seed must be a nonnegative integer")
        if self.jobs < 1:
            raise InvalidSpecError("jobs must be >= 1")


@dataclass(frozen=True)
class ExperimentResult:
    errors: tuple
    seeds: tuple
    s_used: int
    epsilon_used: float
    delta: float
    beta: float
    dist_kind: DistributionKind
    empirical_failure_rate: float
    unconverged_trials: int  # trials whose error solve stopped uncertified at the step cap
    nnz_ratio: float
    wall_times: tuple
    bound_report: BoundReport

    @property
    def passed(self) -> bool:
        """The failure rate is within delta and every trial's error is
        certified; an unconverged solve may under-report, so it never passes."""
        return self.empirical_failure_rate <= self.delta and self.unconverged_trials == 0


@dataclass(frozen=True)
class KindSummary:
    kind: DistributionKind
    beta_certificate: float
    median_error: float
    p90_error: float
    errors: tuple
    unconverged_trials: int


@dataclass(frozen=True)
class CompareResult:
    s_used: int
    epsilon_used: float
    seeds: tuple
    summaries: tuple  # one KindSummary per kind, hybrid/l1/l2 order
    wall_times: dict  # kind value -> tuple of per-trial durations


@dataclass(frozen=True, eq=False)
class Plan:
    """What a sampling run derives from its matrix before any draw.

    request (epsilon, beta, ||X||_F and the stable rank, with m, n and delta)
    and report are None when s was given without an error target.
    """

    x: DenseMatrix
    dists: tuple  # one SamplingDistribution per requested kind, in order
    request: BoundRequest | None
    report: BoundReport | None
    s: int


def resolve_matrix(source) -> DenseMatrix:
    if isinstance(source, FileSource):
        return load_matrix(source.path, source.fmt)
    if isinstance(source, GeneratorSpec):
        return generate_matrix(source)
    raise InvalidSpecError(f"unsupported matrix source {type(source).__name__}")


def _sizing(m, n, frobenius, stable_rank, bound_form, epsilon, epsilon_rel, delta, beta):
    """The bound request and report for one error target. epsilon_rel scales
    ||X||_2 = ||X||_F / sqrt(sr) under the corollary form and ||X||_F
    otherwise (bound_form None, the bounds command, included), matching which
    norm each statement is phrased against."""
    if epsilon is not None and epsilon_rel is not None:
        raise InvalidSpecError("give one of epsilon and epsilon_rel, not both")
    if epsilon is None and epsilon_rel is None:
        unless = "" if bound_form is None else ", unless s is given"  # bounds takes no s
        raise InvalidSpecError(f"one of epsilon and epsilon_rel is required{unless}")
    if epsilon_rel is not None and not 0 < epsilon_rel < math.inf:  # epsilon's own rule is BoundRequest's
        raise InvalidSpecError(f"epsilon_rel must be positive and finite, got {epsilon_rel!r}")
    if epsilon is None and bound_form is BoundForm.COROLLARY:
        epsilon = epsilon_rel * frobenius / math.sqrt(stable_rank)
    elif epsilon is None:
        epsilon = epsilon_rel * frobenius
    req = BoundRequest(m, n, epsilon, delta, beta, frobenius, stable_rank=stable_rank)
    return req, bound_report(req, epsilon_rel=epsilon_rel)


def make_plan(
    x: DenseMatrix, kinds, *, bound_form: BoundForm = BoundForm.UNSIMPLIFIED, epsilon: float | None = None,
    epsilon_rel: float | None = None, delta: float = 0.1, s_override: int | None = None,
) -> Plan:
    """Plan a sampling run on x: one exact sum of x^2 and one of |x|, the
    distribution of each kind built from them, and the bound that sizes s.

    With one kind, s is sized at that distribution's certificate, and a
    certificate of 0 (a nonzero cell whose share underflows to probability 0,
    so it is never drawn) raises ZeroProbabilityError even when s is given.
    With several kinds s is sized at beta = 1, the hybrid's certificate, so
    one s serves every kind. sigma_1 is solved once, and only for the
    corollary form, whose unmet hypothesis sr >= epsilon_rel^2 raises
    HypothesisViolatedError.
    """
    if s_override is not None and s_override < 1:
        raise InvalidSpecError("s must be a positive integer")
    bound_form = BoundForm(bound_form)
    if bound_form is BoundForm.COROLLARY and epsilon is not None and epsilon_rel is None:
        raise InvalidSpecError("bound_form=corollary needs epsilon_rel, not an absolute epsilon")
    sum_sq, dists = _distributions(x, kinds)
    beta = _certified_beta(x, dists[0]) if len(dists) == 1 else 1.0
    request = report = None
    if s_override is None or epsilon is not None or epsilon_rel is not None:
        fro = math.sqrt(sum_sq)
        sr = _stable_rank(x, fro) if bound_form is BoundForm.COROLLARY else None
        request, report = _sizing(x.m, x.n, fro, sr, bound_form, epsilon, epsilon_rel, delta, beta)
        if bound_form is BoundForm.COROLLARY and report.s_corollary is None:
            sample_size_corollary(request, epsilon_rel)  # raises the unmet hypothesis that the report leaves out
    s = s_override if s_override is not None else getattr(report, f"s_{bound_form.value}")
    return Plan(x, dists, request, report, s)


def _run_trials(x: DenseMatrix, dists: tuple, s: int, seeds: tuple, jobs: int) -> list:
    """Every (distribution, seed) trial, run by one set of workers. Per
    distribution, in order, one (estimate, nnz, seconds) record per seed in
    seed order: the SpectralEstimate of ||S - X||_2, the sketch's count of
    distinct cells, and the trial's wall time (draw, assembly and solve).

    Trial k runs distribution k // len(seeds) at seed k % len(seeds). Of
    w = min(jobs, trial count, CPU count) workers, worker i runs trials i,
    i + w, ... one at a time; worker 0 is the calling thread and workers
    1 .. w-1 are threads started here. A trial draws its cell counts, writes
    S - X = counts * x / (s * p) - x into the worker's one mn buffer (the
    densified ``sparsify`` sketch minus X, bit for bit) and solves it. Once a
    trial raises, no worker starts another; every thread is joined, and the
    exception of the lowest-numbered worker that raised is raised here.
    """
    xf, sps = x.flat(), [s * dist.probs for dist in dists]
    records = [[None] * len(seeds) for _ in dists]
    total = len(dists) * len(seeds)
    workers = min(jobs, total, os.cpu_count() or 1)
    failed = threading.Event()  # once a trial raises, no worker starts another
    raised = [None] * workers  # each worker's exception, if it raised one

    def run(first: int) -> None:
        diff = np.empty(x.m * x.n)
        try:
            for k in range(first, total, workers):
                if failed.is_set():
                    return
                d, t = divmod(k, len(seeds))
                t0 = time.perf_counter()
                counts = _draw_counts(dists[d].probs, s, seeds[t])
                np.subtract(_cell_values(counts, xf, sps[d], diff), xf, out=diff)
                est = _spectral_norm(diff.reshape(x.m, x.n))
                records[d][t] = (est, np.count_nonzero(counts), time.perf_counter() - t0)
        except BaseException as exc:
            raised[first] = exc
            failed.set()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in raised:
        if exc is not None:
            raise exc
    return records


def _median_and_p90(values) -> tuple:
    """float(np.median(values)) and float(np.percentile(values, 90.0)), bit
    for bit, for nonempty finite values, from one sorted copy. The median
    halves the sum of the middle pair, as np.mean does; the p90 takes
    numpy's linear rule at index (n - 1) * 0.9 and interpolates its
    neighbours a <= b in the two-sided form of numpy's _lerp."""
    v = sorted(values)
    n = len(v)
    half = n // 2
    median = v[half] if n % 2 else (v[half - 1] + v[half]) / 2
    if n == 1:
        return median, median
    index = (n - 1) * 0.9
    i = math.floor(index)  # below n - 1, so v[i + 1] exists
    a, b, t = v[i], v[i + 1], index - i
    return median, (b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _trials(cfg: ExperimentConfig, kinds) -> tuple:
    """The plan of cfg for kinds, its seeds, and per distribution the
    (errors, unconverged count, mean nnz / mn, wall times) of its trials."""
    plan = make_plan(
        resolve_matrix(cfg.source), kinds, bound_form=cfg.bound_form, epsilon=cfg.epsilon,
        epsilon_rel=cfg.epsilon_rel, delta=cfg.delta, s_override=cfg.s_override,
    )
    seeds = tuple((cfg.base_seed + t) & _SEED_MASK for t in range(cfg.trials))
    runs = []
    for records in _run_trials(plan.x, plan.dists, plan.s, seeds, cfg.jobs):
        ests, nnzs, walls = zip(*records)
        nnz_ratio = float(np.mean([nnz / (plan.x.m * plan.x.n) for nnz in nnzs]))
        runs.append((tuple(est.value for est in ests), sum(not est.converged for est in ests), nnz_ratio, walls))
    return plan, seeds, runs


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    plan, seeds, [(errors, unconverged, nnz_ratio, walls)] = _trials(cfg, (cfg.dist_kind,))
    epsilon = plan.request.epsilon
    return ExperimentResult(
        errors=errors,
        seeds=seeds,
        s_used=plan.s,
        epsilon_used=epsilon,
        delta=cfg.delta,
        beta=plan.request.beta,
        dist_kind=cfg.dist_kind,
        empirical_failure_rate=sum(e > epsilon for e in errors) / cfg.trials,
        unconverged_trials=unconverged,
        nnz_ratio=nnz_ratio,
        wall_times=walls,
        bound_report=plan.report,
    )


def compare_distributions(cfg: ExperimentConfig) -> CompareResult:
    """Hybrid, l1 and l2 head to head at one shared sample size and identical
    per-trial seeds. s comes from the configured bound form at beta = 1, the
    hybrid's certificate, or from s_override; per-kind certificates are reported
    but deliberately do not change s, so the error columns stay comparable."""
    plan, seeds, runs = _trials(cfg, _BUILTIN_KINDS)
    summaries = tuple(
        KindSummary(dist.kind, dist.beta, *_median_and_p90(errors), errors, unconverged)
        for dist, (errors, unconverged, _, _) in zip(plan.dists, runs)
    )
    return CompareResult(
        s_used=plan.s,
        epsilon_used=plan.request.epsilon,
        seeds=seeds,
        summaries=summaries,
        wall_times={dist.kind.value: walls for dist, (*_, walls) in zip(plan.dists, runs)},
    )


def _source_payload(source) -> dict:
    if isinstance(source, FileSource):
        return {"kind": "file", "path": str(source.path), "format": source.fmt}
    return {**asdict(source), "kind": "generator", "generator": source.kind}


def _payload(command: str, result, cfg: ExperimentConfig) -> dict:
    """A run's document: config is asdict(cfg) with source in _source_payload's
    form, dist_kind renamed dist and no jobs (how trials were scheduled is not
    the experiment; without it two runs stay byte-identical), and result is
    asdict(result) with wall_times lifted to the top level. Sequences stay
    tuples; an enum member equals its string, which is what json writes."""
    config = asdict(cfg)
    del config["jobs"]
    config["source"] = _source_payload(cfg.source)
    config["dist"] = config.pop("dist_kind")
    doc = asdict(result)
    walls = doc.pop("wall_times")
    return dict(schema_version=SCHEMA_VERSION, command=command, config=config, result=doc, wall_times=walls)


def experiment_payload(result: ExperimentResult, cfg: ExperimentConfig) -> dict:
    doc = _payload("experiment", result, cfg)
    del doc["result"]["dist_kind"]  # the config's dist
    doc["result"]["passed"] = result.passed
    return doc


def compare_payload(result: CompareResult, cfg: ExperimentConfig) -> dict:
    doc = _payload("compare", result, cfg)
    del doc["config"]["dist"]  # every kind runs
    doc["result"]["kinds"] = doc["result"].pop("summaries")
    return doc


def payload_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
