"""Run planning and the experiment harness: Monte-Carlo validation of the
sparsification guarantee plus a three-way distribution comparison.

``make_plan`` is the one path from a matrix to its distributions and sample
size that every command shares. ``run_experiment`` and
``compare_distributions`` return results and write nothing; the CLI does.

Reproducibility contract: trial t draws with seed (base_seed + t) mod 2^64,
so results are independent of --jobs scheduling; aggregation sorts by trial
index before reporting. Serialized output is deterministic (sorted keys)
apart from the wall_times block, which is environment noise by nature.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .bounds import BoundReport, BoundRequest, bound_report
from .distributions import DistributionKind, _distributions, _shares
from .errors import InvalidSpecError
from .generate import GeneratorSpec, generate_matrix
from .io import load_matrix
from .matrix import DenseMatrix, _stable_rank
from .sampler import _SEED_MASK, build_alias_table, draw_samples, sampling_operator
from .spectral import DEFAULT_CONFIG, SpectralConfig, sketch_error

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

SCHEMA_VERSION = 1

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
    spectral: SpectralConfig = field(default=DEFAULT_CONFIG)

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
    unconverged_trials: int  # trials whose error solve stopped uncertified at max_iters
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
    if (epsilon is None) == (epsilon_rel is None):
        raise InvalidSpecError("exactly one of epsilon and epsilon_rel is required, unless s is given")
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
    beta: float | None = None, s_override: int | None = None, spectral_tol: float = DEFAULT_CONFIG.tol,
) -> Plan:
    """Plan a run on x: one exact sum of x^2 and one of |x|, the distribution
    of each kind built from them, and the bound that sizes s.

    With one kind, beta is that distribution's certificate or a requested
    value no larger: a larger one would shrink s below what the distribution
    supports. With none or several it is the requested value or 1, so one s
    serves every kind. sigma_1 is solved once, and only for the corollary form
    or for bound_form None: the bounds command, which reports the stable rank
    beside every form and picks no s.
    """
    if s_override is not None and s_override < 1:
        raise InvalidSpecError("s must be a positive integer")
    sum_sq, abs_sum, l2, l1 = _shares(x)
    dists = _distributions(x, kinds, l2, l1)
    request = report = None
    if s_override is None or epsilon is not None or epsilon_rel is not None:
        fro = math.sqrt(sum_sq)
        sr = None
        if bound_form in (None, BoundForm.COROLLARY):
            sr = _stable_rank(x, fro, spectral_tol)
        if len(dists) == 1 and beta is None:
            beta = dists[0].beta
        elif len(dists) == 1 and beta > dists[0].beta:
            d = dists[0]
            raise InvalidSpecError(f"beta {beta!r} exceeds the {d.kind.value} distribution's certificate {d.beta!r}")
        request, report = _sizing(x.m, x.n, fro, sr, bound_form, epsilon, epsilon_rel, delta, beta)
    s = s_override
    if s is None and bound_form is not None:
        s = getattr(report, f"s_{bound_form.value}")  # s_theorem1, s_unsimplified or s_corollary
    return Plan(x, sum_sq, abs_sum, dists, request, report, s)


def _config_plan(cfg: ExperimentConfig, kinds) -> Plan:
    return make_plan(
        resolve_matrix(cfg.source), kinds, bound_form=cfg.bound_form, epsilon=cfg.epsilon,
        epsilon_rel=cfg.epsilon_rel, delta=cfg.delta, beta=cfg.beta, s_override=cfg.s_override,
        spectral_tol=cfg.spectral.tol,
    )


def _trial_seeds(base_seed: int, trials: int) -> tuple:
    return tuple((base_seed + t) & _SEED_MASK for t in range(trials))


def _run_trials(cfg, x, dist, table, s_used, seeds):
    """One (SpectralEstimate, nnz, wall_time) triple per trial, in trial order."""

    def one(seed: int):
        t0 = time.perf_counter()
        omega = draw_samples(table, s_used, seed)
        sketch = sampling_operator(x, dist, omega)
        est = sketch_error(x, sketch, cfg.spectral)
        return est, sketch.matrix.nnz, time.perf_counter() - t0

    if cfg.jobs == 1:
        return [one(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(one, seeds))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    plan = _config_plan(cfg, (cfg.dist_kind,))
    dist = plan.dists[0]
    table = build_alias_table(dist)
    seeds = _trial_seeds(cfg.base_seed, cfg.trials)
    triples = _run_trials(cfg, plan.x, dist, table, plan.s, seeds)
    errors = tuple(t[0].value for t in triples)
    epsilon = plan.request.epsilon
    failures = sum(1 for e in errors if e > epsilon)
    cells = plan.x.m * plan.x.n
    return ExperimentResult(
        errors=errors,
        seeds=seeds,
        s_used=plan.s,
        epsilon_used=epsilon,
        delta=cfg.delta,
        beta=plan.request.beta,
        dist_kind=cfg.dist_kind,
        empirical_failure_rate=failures / cfg.trials,
        unconverged_trials=sum(1 for t in triples if not t[0].converged),
        nnz_ratio=float(np.mean([t[1] / cells for t in triples])),
        wall_times=tuple(t[2] for t in triples),
        bound_report=plan.report,
    )


def compare_distributions(cfg: ExperimentConfig) -> CompareResult:
    """Hybrid, l1 and l2 head to head at one shared sample size and identical
    per-trial seeds. s comes from the configured bound form at beta = 1 (or
    cfg.beta / s_override when given); per-kind certificates are reported but
    deliberately do not change s, so the error columns stay comparable."""
    plan = _config_plan(cfg, _HARNESS_KINDS)
    seeds = _trial_seeds(cfg.base_seed, cfg.trials)
    summaries = []
    walls = {}
    for dist in plan.dists:
        table = build_alias_table(dist)
        triples = _run_trials(cfg, plan.x, dist, table, plan.s, seeds)
        errors = tuple(t[0].value for t in triples)
        summaries.append(
            KindSummary(
                kind=dist.kind,
                beta_certificate=dist.beta,
                median_error=float(np.median(errors)),
                p90_error=float(np.percentile(errors, 90.0)),
                errors=errors,
                unconverged_trials=sum(1 for t in triples if not t[0].converged),
            )
        )
        walls[dist.kind.value] = tuple(t[2] for t in triples)
    return CompareResult(
        s_used=plan.s,
        epsilon_used=plan.request.epsilon,
        seeds=seeds,
        summaries=tuple(summaries),
        wall_times=walls,
    )


def _source_payload(source) -> dict:
    if isinstance(source, FileSource):
        return {"kind": "file", "path": str(source.path), "format": source.fmt}
    return {**asdict(source), "kind": "generator", "generator": source.kind}


def _config_payload(cfg: ExperimentConfig, include_dist: bool) -> dict:
    # jobs says how the trials were scheduled, not what the experiment is;
    # leaving it out keeps two runs of one experiment byte-identical.
    doc = {
        "source": _source_payload(cfg.source),
        "epsilon": cfg.epsilon,
        "epsilon_rel": cfg.epsilon_rel,
        "delta": cfg.delta,
        "beta": cfg.beta,
        "s_override": cfg.s_override,
        "bound_form": cfg.bound_form.value,
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "spectral": asdict(cfg.spectral),
    }
    if include_dist:
        doc["dist"] = cfg.dist_kind.value
    return doc


def experiment_payload(result: ExperimentResult, cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "experiment",
        "config": _config_payload(cfg, include_dist=True),
        "result": {
            "errors": list(result.errors),
            "seeds": list(result.seeds),
            "s_used": result.s_used,
            "epsilon_used": result.epsilon_used,
            "delta": result.delta,
            "beta": result.beta,
            "empirical_failure_rate": result.empirical_failure_rate,
            "unconverged_trials": result.unconverged_trials,
            "nnz_ratio": result.nnz_ratio,
            "passed": result.passed,
            "bound_report": asdict(result.bound_report),
        },
        "wall_times": list(result.wall_times),
    }


def compare_payload(result: CompareResult, cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "config": _config_payload(cfg, include_dist=False),
        "result": {
            "s_used": result.s_used,
            "epsilon_used": result.epsilon_used,
            "seeds": list(result.seeds),
            "kinds": [
                {
                    "kind": summ.kind.value,
                    "beta_certificate": summ.beta_certificate,
                    "median_error": summ.median_error,
                    "p90_error": summ.p90_error,
                    "errors": list(summ.errors),
                    "unconverged_trials": summ.unconverged_trials,
                }
                for summ in result.summaries
            ],
        },
        "wall_times": {k: list(v) for k, v in result.wall_times.items()},
    }


def payload_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
