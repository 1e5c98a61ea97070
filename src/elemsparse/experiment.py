"""Run planning and the experiment harness: Monte-Carlo validation of the
sparsification guarantee plus a three-way distribution comparison.

``make_plan`` is the one path from a matrix to its distributions and sample
size that every command shares. ``run_experiment`` and
``compare_distributions`` return results and write nothing; the CLI does.
``experiment_payload`` and ``compare_payload`` build each JSON document with
``dataclasses.asdict`` from the config and the result, so a field added to a
result dataclass reaches the JSON with no other change.

Reproducibility contract: trial t draws with seed (base_seed + t) mod 2^64,
so results are independent of --jobs scheduling; aggregation sorts by trial
index before reporting. Trials run in fixed batches of consecutive indices
whose size depends only on the matrix shape; a batch's error solves run as
one Lanczos solve over the stack of its S - X arrays, in which every trial
takes the steps it would take alone, and --jobs is the number of workers
that take batches. Serialized output is deterministic (sorted keys)
apart from the wall_times block, which is environment noise by nature.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .bounds import BoundReport, BoundRequest, bound_report
from .distributions import DistributionKind, _distributions, _shares
from .errors import InvalidSpecError, ZeroProbabilityError
from .generate import GeneratorSpec, generate_matrix
from .io import load_matrix
from .matrix import DenseMatrix, _stable_rank
from .sampler import _SEED_MASK, build_alias_table, draw_samples, sampling_operator
from .spectral import _difference, _lanczos_norms

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

SCHEMA_VERSION = 2

# Bytes of S - X that one batched error solve stacks: eight trials of a
# 100 x 100 matrix. A matrix larger than half of it runs one trial per
# batch. Each pool worker holds one stack.
_BATCH_BYTES = 640_000

_HARNESS_KINDS = (
    DistributionKind.HYBRID,
    DistributionKind.PURE_L1,
    DistributionKind.PURE_L2,
)


class BoundForm(str, Enum):
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
    beta: float | None = None
    s_override: int | None = None
    bound_form: BoundForm = BoundForm.UNSIMPLIFIED
    trials: int = 1
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if isinstance(self.dist_kind, str) and not isinstance(self.dist_kind, DistributionKind):
            object.__setattr__(self, "dist_kind", DistributionKind(self.dist_kind))
        if isinstance(self.bound_form, str) and not isinstance(self.bound_form, BoundForm):
            object.__setattr__(self, "bound_form", BoundForm(self.bound_form))
        if self.dist_kind not in _HARNESS_KINDS:
            raise InvalidSpecError("dist_kind must be one of hybrid, l1, l2")
        if (self.epsilon is None) == (self.epsilon_rel is None):
            raise InvalidSpecError("exactly one of epsilon and epsilon_rel must be set")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise InvalidSpecError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.epsilon_rel is not None and not 0 < self.epsilon_rel < math.inf:
            raise InvalidSpecError(f"epsilon_rel must be positive and finite, got {self.epsilon_rel!r}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidSpecError("delta must lie in (0, 1)")
        if self.beta is not None and not 0.0 < self.beta <= 1.0:
            raise InvalidSpecError("beta must lie in (0, 1]")
        if self.s_override is not None and self.s_override < 1:
            raise InvalidSpecError("s_override must be a positive integer")
        if self.bound_form is BoundForm.COROLLARY and self.epsilon_rel is None:
            raise InvalidSpecError("bound_form=corollary needs epsilon_rel, not an absolute epsilon")
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
    """What a run derives from its matrix before any draw.

    request (epsilon, beta, ||X||_F and the stable rank, with m, n and delta)
    and report are None when s was given without an error target; s is None
    for the bounds command, which lists every form.
    """

    x: DenseMatrix
    sum_sq: float  # sum of x^2, exactly rounded
    abs_sum: float  # sum of |x|, exactly rounded
    dists: tuple  # one SamplingDistribution per requested kind, in order
    request: BoundRequest | None
    report: BoundReport | None
    s: int | None


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
    norm each statement is phrased against. beta None means 1."""
    if epsilon is not None and epsilon_rel is not None:
        raise InvalidSpecError("give one of epsilon and epsilon_rel, not both")
    if epsilon is None and epsilon_rel is None:
        unless = "" if bound_form is None else ", unless s is given"  # bounds takes no s
        raise InvalidSpecError(f"one of epsilon and epsilon_rel is required{unless}")
    if bound_form is BoundForm.COROLLARY and epsilon_rel is None:
        raise InvalidSpecError("bound_form=corollary needs epsilon_rel, not an absolute epsilon")
    if epsilon is None and bound_form is BoundForm.COROLLARY:
        epsilon = epsilon_rel * frobenius / math.sqrt(stable_rank)
    elif epsilon is None:
        epsilon = epsilon_rel * frobenius
    beta = 1.0 if beta is None else beta
    req = BoundRequest(m, n, epsilon, delta, beta, frobenius, stable_rank=stable_rank)
    return req, bound_report(req, epsilon_rel=epsilon_rel)


def make_plan(
    x: DenseMatrix, kinds=(), *, bound_form: BoundForm | None = BoundForm.UNSIMPLIFIED,
    epsilon: float | None = None, epsilon_rel: float | None = None, delta: float = 0.1,
    beta: float | None = None, s_override: int | None = None,
) -> Plan:
    """Plan a run on x: one exact sum of x^2 and one of |x|, the distribution
    of each kind built from them, and the bound that sizes s.

    With one kind, a certificate of 0 (a nonzero cell whose share underflows
    to probability 0, so it is never drawn) raises ZeroProbabilityError even
    when s is given. beta is that certificate or a requested value no larger:
    a larger one would shrink s below what the distribution supports.
    With none or several kinds beta is the requested value or 1, so one s
    serves every kind. sigma_1 is solved once, and only for the corollary form
    or for bound_form None: the bounds command, which reports the stable rank
    beside every form and picks no s.
    """
    if s_override is not None and s_override < 1:
        raise InvalidSpecError("s must be a positive integer")
    sum_sq, abs_sum, l2, l1 = _shares(x)
    dists = _distributions(x, kinds, l2, l1)
    sized = s_override is None or epsilon is not None or epsilon_rel is not None
    if len(dists) == 1:  # beta is checked against the certificate only when it sizes s
        beta = _single_beta(x, dists[0], beta if sized else None)
    request = report = None
    if sized:
        fro = math.sqrt(sum_sq)
        sr = None
        if bound_form in (None, BoundForm.COROLLARY):
            sr = _stable_rank(x, fro)
        request, report = _sizing(x.m, x.n, fro, sr, bound_form, epsilon, epsilon_rel, delta, beta)
    s = s_override
    if s is None and bound_form is not None:
        s = getattr(report, f"s_{bound_form.value}")  # s_theorem1, s_unsimplified or s_corollary
    return Plan(x, sum_sq, abs_sum, dists, request, report, s)


def _single_beta(x: DenseMatrix, d, beta: float | None) -> float:
    """The beta that sizes s for a run on the one distribution d."""
    if d.beta == 0.0:
        cell = int(np.flatnonzero((x.flat() != 0.0) & (d.probs == 0.0))[0])
        i, j = divmod(cell, x.n)
        other = " or l1" if d.kind is DistributionKind.PURE_L2 else ""
        raise ZeroProbabilityError(
            f"the {d.kind.value} distribution gives the nonzero entry x[{i}, {j}] = {float(x.flat()[cell])!r} "
            f"probability 0 (its share underflows), so no beta certifies it; use the hybrid{other} distribution"
        )
    if beta is None:
        return d.beta
    if beta > d.beta:
        raise InvalidSpecError(f"beta {beta!r} exceeds the {d.kind.value} distribution's certificate {d.beta!r}")
    return beta


def _config_plan(cfg: ExperimentConfig, kinds) -> Plan:
    return make_plan(
        resolve_matrix(cfg.source), kinds, bound_form=cfg.bound_form, epsilon=cfg.epsilon,
        epsilon_rel=cfg.epsilon_rel, delta=cfg.delta, beta=cfg.beta, s_override=cfg.s_override,
    )


def _run_trials(cfg: ExperimentConfig, x: DenseMatrix, dist, s_used: int) -> tuple:
    """One distribution's trials, aggregated in trial order: the seeds, the
    errors, the count of solves that stopped uncertified, the mean sketch nnz
    over mn, and the wall times.

    Trials run in fixed batches of consecutive trial indices, sized by
    _BATCH_BYTES alone. A batch draws and assembles each sketch in turn,
    scatters its S - X into the batch's stack and solves the stack at once;
    the pool maps over batches. Each trial's wall time is its batch's over
    the batch size.
    """
    seeds = tuple((cfg.base_seed + t) & _SEED_MASK for t in range(cfg.trials))
    table = build_alias_table(dist)
    size = max(1, _BATCH_BYTES // (8 * x.m * x.n))
    batches = [seeds[lo : lo + size] for lo in range(0, len(seeds), size)]

    def batch(batch_seeds: tuple):
        t0 = time.perf_counter()
        stack = np.empty((len(batch_seeds), x.m, x.n))
        ratios = []
        for slot, seed in zip(stack, batch_seeds):
            coo = sampling_operator(x, dist, draw_samples(table, s_used, seed)).matrix
            _difference(x.data, coo, out=slot)
            ratios.append(coo.nnz / (x.m * x.n))
        ests = _lanczos_norms(stack)
        wall = (time.perf_counter() - t0) / len(batch_seeds)
        return [(est, ratio, wall) for est, ratio in zip(ests, ratios)]

    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        ests, ratios, walls = zip(*(trial for done in pool.map(batch, batches) for trial in done))
    errors = tuple(est.value for est in ests)
    return seeds, errors, sum(not est.converged for est in ests), float(np.mean(ratios)), walls


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    plan = _config_plan(cfg, (cfg.dist_kind,))
    seeds, errors, unconverged, nnz_ratio, walls = _run_trials(cfg, plan.x, plan.dists[0], plan.s)
    epsilon = plan.request.epsilon
    failures = sum(1 for e in errors if e > epsilon)
    return ExperimentResult(
        errors=errors,
        seeds=seeds,
        s_used=plan.s,
        epsilon_used=epsilon,
        delta=cfg.delta,
        beta=plan.request.beta,
        dist_kind=cfg.dist_kind,
        empirical_failure_rate=failures / cfg.trials,
        unconverged_trials=unconverged,
        nnz_ratio=nnz_ratio,
        wall_times=walls,
        bound_report=plan.report,
    )


def compare_distributions(cfg: ExperimentConfig) -> CompareResult:
    """Hybrid, l1 and l2 head to head at one shared sample size and identical
    per-trial seeds. s comes from the configured bound form at beta = 1 (or
    cfg.beta / s_override when given); per-kind certificates are reported but
    deliberately do not change s, so the error columns stay comparable."""
    plan = _config_plan(cfg, _HARNESS_KINDS)
    summaries = []
    walls = {}
    for dist in plan.dists:
        seeds, errors, unconverged, _, walls[dist.kind.value] = _run_trials(cfg, plan.x, dist, plan.s)
        summaries.append(
            KindSummary(
                kind=dist.kind,
                beta_certificate=dist.beta,
                median_error=float(np.median(errors)),
                p90_error=float(np.percentile(errors, 90.0)),
                errors=errors,
                unconverged_trials=unconverged,
            )
        )
    return CompareResult(
        s_used=plan.s,
        epsilon_used=plan.request.epsilon,
        seeds=seeds,  # every kind ran the same seeds
        summaries=tuple(summaries),
        wall_times=walls,
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
