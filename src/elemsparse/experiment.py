"""Run planning and the experiment harness: Monte-Carlo validation of the
sparsification guarantee plus a three-way distribution comparison.

``make_plan`` is the one path from a matrix to its distributions and sample
size that every command shares; with ``BoundRequest`` it owns the rules on
s, epsilon, epsilon_rel, delta and the bound form. ``run_experiment`` and
``compare_distributions`` return one ``ExperimentResult`` per distribution
and write nothing; the CLI does. Each JSON document holds
``dataclasses.asdict`` of the config; ``experiment_payload`` adds that of
the result, so a field added to ``ExperimentResult`` reaches the experiment
JSON with no other change, and ``compare_payload`` writes the shared s,
epsilon and seeds once and each kind's own figures beside them.

Reproducibility contract: trial t of every distribution draws with seed
(base_seed + t) mod 2^64. The sampler owns each trial's draw and S - X:
``_results`` sets up one ``sampler._trial_fill`` per distribution, whose
S - X is the densified ``sparsify(x, s, seed, kind)`` sketch minus X, bit
for bit, and the error is one ``spectral._spectral_norm`` solve of it (an
exact Gram eigensolve on the shapes where that is cheaper, else Lanczos).
This module schedules: every (distribution, seed) trial of the plan runs in one
``_run_trials`` call, whose workers --jobs bounds: the calling thread and
forked children, or the calling thread alone where ``_fork_safe`` fails.
Each trial stores one record at its distribution and seed, so no result
depends on which worker ran it.
``_median_and_p90`` gives a result's median and p90 error without numpy's
median and percentile, which import ``numpy.ma``. Serialized output is
deterministic (sorted keys) apart from the wall_times block, which is
environment noise by nature.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import BoundReport, BoundRequest, bound_report, sample_size_corollary
from .distributions import _BUILTIN_KINDS, DistributionKind, _certified_beta, _distributions, _Named
from .errors import InvalidSpecError, _integer
from .generate import GeneratorSpec, generate_matrix
from .io import load_matrix
from .matrix import DenseMatrix
from .sampler import _SEED_MASK, _trial_fill
from .spectral import _spectral_norm, _stable_rank

__all__ = [
    "SCHEMA_VERSION",
    "BoundForm",
    "FileSource",
    "ExperimentConfig",
    "ExperimentResult",
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
        for name in ("trials", "base_seed", "jobs"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        try:  # an integer s, such as True or np.int64(60), as the int the run uses
            object.__setattr__(self, "s_override", _integer(self.s_override, "s"))
        except InvalidSpecError:  # None, or an s that make_plan refuses with this message, as for every command
            pass
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

    @property
    def median_error(self) -> float:
        return _median_and_p90(self.errors)[0]

    @property
    def p90_error(self) -> float:
        return _median_and_p90(self.errors)[1]


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
    if s_override is not None:
        s_override = _integer(s_override, "s")  # a fractional s would scale every sketch by floor(s) / s
        if s_override < 1:
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


def _fork_safe() -> bool:
    """Fork only on Linux from one OS thread (the count CPython 3.12 checks to
    warn about fork): a child would keep any lock another thread, say a BLAS
    pool's, held. macOS's libraries are not fork-safe; Windows has no fork."""
    try:
        return sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc to count threads in, as in a bare chroot
        return False


def _run_trials(shape: tuple, fills: tuple, seeds: tuple, jobs: int) -> list:
    """Every (distribution, seed) trial, run by one set of workers from one
    ``sampler._trial_fill`` per distribution, set up before this call. Per
    distribution, in order, one (estimate, nnz, seconds) record per seed in
    seed order: the SpectralEstimate of ||S - X||_2, the sketch's count of
    distinct cells, and the trial's wall time (draw, assembly and solve).

    Trial k runs distribution k // len(seeds) at seed k % len(seeds). Of
    w = min(jobs, trial count, usable CPUs) workers, or 1 where _fork_safe
    fails (threads calling LAPACK at once contend, so none is started),
    worker i runs trials i, i + w, ... one at a time, each filling and
    solving the worker's one buffer of the given shape. Worker 0 is the
    calling thread; workers 1 .. w-1 are forked children, each pickling (its
    records, its exception or None) to a pipe that is read to EOF before it
    is reaped. Once a trial raises, it sets the stop byte and no worker
    starts another; every worker ends before this returns, and the
    exception of the lowest-numbered worker that raised is raised here.
    """
    records = [None] * (len(fills) * len(seeds))  # by trial k
    workers = min(jobs, len(records), len(os.sched_getaffinity(0))) if jobs > 1 and _fork_safe() else 1
    stop = bytearray(1)  # nonzero once a trial has raised
    if workers > 1:
        import mmap
        stop = mmap.mmap(-1, 1)  # anonymous and shared, so every forked worker reads one byte
    raised = [None] * workers  # each worker's exception, if it raised one

    def run(first: int) -> None:
        diff = np.empty(shape)
        try:
            for k in range(first, len(records), workers):
                if stop[0]:
                    return
                d, t = divmod(k, len(seeds))
                t0 = time.perf_counter()
                drawn = fills[d](seeds[t], diff.reshape(-1))
                records[k] = (_spectral_norm(diff), drawn, time.perf_counter() - t0)
        except BaseException as exc:
            raised[first] = exc
            stop[0] = 1

    children, replies = [], []  # (pid, pipe read end) and the pickled reply of each child
    try:
        for i in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: os._exit runs no atexit handler, flushes no inherited buffer
                try:
                    run(i)
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps((records[i::workers], raised[i])))
                finally:
                    os._exit(0)
            os.close(write)  # before the next fork, or that child would hold it and EOF never come
            children.append((pid, read))
        run(0)
    except BaseException:  # a failed fork or an interrupt: stop the children already started
        stop[0] = 1
        raise
    finally:
        for pid, read in children:
            with open(read, "rb") as pipe:
                replies.append(pipe.read())
            os.waitpid(pid, 0)
    for i, reply in enumerate(replies, 1):
        if reply:
            records[i::workers], raised[i] = pickle.loads(reply)
        else:  # killed, or its exception would not pickle
            raised[i] = ChildProcessError(f"trial worker {i} ended without a result")
    for exc in raised:
        if exc is not None:
            raise exc
    return [records[d * len(seeds) : (d + 1) * len(seeds)] for d in range(len(fills))]


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


def _results(cfg: ExperimentConfig, kinds) -> tuple:
    """One ExperimentResult per distribution of cfg's plan for kinds, in plan
    order, from one _run_trials call. Each result's beta is its
    distribution's certificate; s, epsilon, the seeds and bound_report are
    the plan's, shared by every result."""
    plan = make_plan(
        resolve_matrix(cfg.source), kinds, bound_form=cfg.bound_form, epsilon=cfg.epsilon,
        epsilon_rel=cfg.epsilon_rel, delta=cfg.delta, s_override=cfg.s_override,
    )
    seeds = tuple((cfg.base_seed + t) & _SEED_MASK for t in range(cfg.trials))
    epsilon, cells = plan.request.epsilon, plan.x.m * plan.x.n
    fills = tuple(_trial_fill(plan.x, d, plan.s) for d in plan.dists)
    results = []
    for dist, records in zip(plan.dists, _run_trials(plan.x.shape, fills, seeds, cfg.jobs)):
        ests, nnzs, walls = zip(*records)
        errors = tuple(est.value for est in ests)
        results.append(ExperimentResult(
            errors=errors, seeds=seeds, s_used=plan.s, epsilon_used=epsilon, delta=cfg.delta, beta=dist.beta,
            dist_kind=dist.kind, empirical_failure_rate=sum(e > epsilon for e in errors) / cfg.trials,
            unconverged_trials=sum(not est.converged for est in ests),
            nnz_ratio=float(np.mean([nnz / cells for nnz in nnzs])), wall_times=walls, bound_report=plan.report,
        ))
    return tuple(results)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return _results(cfg, (cfg.dist_kind,))[0]


def compare_distributions(cfg: ExperimentConfig) -> tuple:
    """Hybrid, l1 and l2 head to head at one shared sample size and identical
    per-trial seeds: one ExperimentResult per kind, in that order. s comes
    from the configured bound form at beta = 1, the hybrid's certificate, or
    from s_override; each result's beta is its kind's certificate, which
    deliberately does not change s, so the error columns stay comparable.
    Every result carries the shared plan's bound_report, sized at beta = 1."""
    return _results(cfg, _BUILTIN_KINDS)


def _source_payload(source) -> dict:
    if isinstance(source, FileSource):
        return {"kind": "file", "path": str(source.path), "format": source.fmt}
    return {**asdict(source), "kind": "generator", "generator": source.kind}


def _payload(command: str, cfg: ExperimentConfig, result: dict, wall_times) -> dict:
    """A run's document: config is asdict(cfg) with source in _source_payload's
    form, dist_kind renamed dist and no jobs (how trials were scheduled is not
    the experiment; without it two runs stay byte-identical), and wall_times
    sits at the top level beside result. Sequences stay tuples; an enum
    member equals its string, which is what json writes."""
    config = asdict(cfg)
    del config["jobs"]
    config["source"] = _source_payload(cfg.source)
    config["dist"] = config.pop("dist_kind")
    return dict(schema_version=SCHEMA_VERSION, command=command, config=config, result=result, wall_times=wall_times)


def experiment_payload(result: ExperimentResult, cfg: ExperimentConfig) -> dict:
    """result is asdict(result) without wall_times and dist_kind (the
    config's dist), plus passed."""
    doc = asdict(result)
    walls = doc.pop("wall_times")
    del doc["dist_kind"]
    doc["passed"] = result.passed
    return _payload("experiment", cfg, doc, walls)


def compare_payload(results: tuple, cfg: ExperimentConfig) -> dict:
    """result holds the shared s_used, epsilon_used and seeds once and, per
    kind, its certificate, errors, median, p90 and unconverged count; the
    top-level wall_times maps each kind to its trials' wall times."""
    kinds = tuple(
        dict(kind=r.dist_kind, beta_certificate=r.beta, median_error=r.median_error, p90_error=r.p90_error,
             errors=r.errors, unconverged_trials=r.unconverged_trials)
        for r in results
    )
    shared = dict(s_used=results[0].s_used, epsilon_used=results[0].epsilon_used, seeds=results[0].seeds)
    doc = _payload("compare", cfg, {**shared, "kinds": kinds}, {r.dist_kind.value: r.wall_times for r in results})
    del doc["config"]["dist"]  # every kind runs
    return doc


def payload_text(payload: dict) -> str:
    """payload as JSON; a numpy scalar a config holds, such as s_override=np.int64(10), is its Python number."""
    return json.dumps(payload, sort_keys=True, indent=2, default=np.generic.item) + "\n"
