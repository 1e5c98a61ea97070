"""Experiment orchestration: Monte-Carlo validation of the sparsification
guarantee plus a three-way distribution comparison.

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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bounds import BoundReport, BoundRequest, bound_report
from .distributions import DistributionKind, distribution_for_kind
from .errors import InvalidSpecError
from .generate import GeneratorSpec, generate_matrix
from .io import load_matrix
from .matrix import DenseMatrix, frobenius_norm, stable_rank
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
    "resolve_matrix",
    "resolve_beta",
    "bound_inputs",
    "run_experiment",
    "compare_distributions",
    "experiment_payload",
    "compare_payload",
    "payload_text",
    "write_experiment_output",
    "write_compare_output",
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
    out_path: str | None = None
    out_format: str = "json"

    def __post_init__(self):
        if isinstance(self.dist_kind, str) and not isinstance(self.dist_kind, DistributionKind):
            object.__setattr__(self, "dist_kind", DistributionKind(self.dist_kind))
        if isinstance(self.bound_form, str) and not isinstance(self.bound_form, BoundForm):
            object.__setattr__(self, "bound_form", BoundForm(self.bound_form))
        if self.dist_kind not in _HARNESS_KINDS:
            raise InvalidSpecError("dist_kind must be one of hybrid, l1, l2")
        if (self.epsilon is None) == (self.epsilon_rel is None):
            raise InvalidSpecError("exactly one of epsilon and epsilon_rel must be set")
        if self.epsilon is not None and not self.epsilon > 0:
            raise InvalidSpecError("epsilon must be positive")
        if self.epsilon_rel is not None and not self.epsilon_rel > 0:
            raise InvalidSpecError("epsilon_rel must be positive")
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
        if self.out_format not in ("json", "csv"):
            raise InvalidSpecError(f"unknown output format {self.out_format!r}")


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


def resolve_matrix(source) -> DenseMatrix:
    if isinstance(source, FileSource):
        return load_matrix(source.path, source.fmt)
    if isinstance(source, GeneratorSpec):
        return generate_matrix(source)
    raise InvalidSpecError(f"unsupported matrix source {type(source).__name__}")


def resolve_beta(beta: float | None, dist) -> float:
    """The beta that sizes s: dist's certificate, or a requested value no
    larger than it. A larger beta would shrink s below what the distribution
    supports, so it is refused rather than trusted."""
    if beta is None:
        return dist.beta
    if beta > dist.beta:
        raise InvalidSpecError(
            f"beta {beta!r} exceeds the {dist.kind.value} distribution's certificate {dist.beta!r}"
        )
    return beta


def bound_inputs(cfg: ExperimentConfig, x: DenseMatrix, beta: float):
    """Absolute epsilon, the bound report, and the sample size the configured
    form prescribes. epsilon_rel scales ||X||_2 under the corollary form and
    ||X||_F otherwise, matching which norm each statement is phrased against."""
    fro = frobenius_norm(x)
    if cfg.bound_form is BoundForm.COROLLARY:
        sr = stable_rank(x, cfg.spectral.tol)
        epsilon = cfg.epsilon_rel * fro / math.sqrt(sr)
        req = BoundRequest(x.m, x.n, epsilon, cfg.delta, beta, fro, stable_rank=sr)
        report = bound_report(req, epsilon_rel=cfg.epsilon_rel)
    else:
        epsilon = cfg.epsilon if cfg.epsilon is not None else cfg.epsilon_rel * fro
        req = BoundRequest(x.m, x.n, epsilon, cfg.delta, beta, fro)
        report = bound_report(req)
    if cfg.s_override is not None:
        s_used = cfg.s_override
    elif cfg.bound_form is BoundForm.THEOREM1:
        s_used = report.s_theorem1
    elif cfg.bound_form is BoundForm.UNSIMPLIFIED:
        s_used = report.s_unsimplified
    else:
        s_used = report.s_corollary
    return epsilon, report, s_used


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
    x = resolve_matrix(cfg.source)
    dist = distribution_for_kind(x, cfg.dist_kind)
    beta = resolve_beta(cfg.beta, dist)
    epsilon, report, s_used = bound_inputs(cfg, x, beta)
    table = build_alias_table(dist)
    seeds = _trial_seeds(cfg.base_seed, cfg.trials)
    triples = _run_trials(cfg, x, dist, table, s_used, seeds)
    errors = tuple(t[0].value for t in triples)
    failures = sum(1 for e in errors if e > epsilon)
    cells = x.m * x.n
    result = ExperimentResult(
        errors=errors,
        seeds=seeds,
        s_used=s_used,
        epsilon_used=epsilon,
        delta=cfg.delta,
        beta=beta,
        dist_kind=cfg.dist_kind,
        empirical_failure_rate=failures / cfg.trials,
        unconverged_trials=sum(1 for t in triples if not t[0].converged),
        nnz_ratio=float(np.mean([t[1] / cells for t in triples])),
        wall_times=tuple(t[2] for t in triples),
        bound_report=report,
    )
    if cfg.out_path is not None:
        write_experiment_output(result, cfg)
    return result


def compare_distributions(cfg: ExperimentConfig) -> CompareResult:
    """Hybrid, l1 and l2 head to head at one shared sample size and identical
    per-trial seeds. s comes from the configured bound form at beta = 1 (or
    cfg.beta / s_override when given); per-kind certificates are reported but
    deliberately do not change s, so the error columns stay comparable."""
    x = resolve_matrix(cfg.source)
    beta = cfg.beta if cfg.beta is not None else 1.0
    epsilon, _, s_used = bound_inputs(cfg, x, beta)
    seeds = _trial_seeds(cfg.base_seed, cfg.trials)
    summaries = []
    walls = {}
    for kind in _HARNESS_KINDS:
        dist = distribution_for_kind(x, kind)
        table = build_alias_table(dist)
        triples = _run_trials(cfg, x, dist, table, s_used, seeds)
        errors = tuple(t[0].value for t in triples)
        summaries.append(
            KindSummary(
                kind=kind,
                beta_certificate=dist.beta,
                median_error=float(np.median(errors)),
                p90_error=float(np.percentile(errors, 90.0)),
                errors=errors,
                unconverged_trials=sum(1 for t in triples if not t[0].converged),
            )
        )
        walls[kind.value] = tuple(t[2] for t in triples)
    result = CompareResult(
        s_used=s_used,
        epsilon_used=epsilon,
        seeds=seeds,
        summaries=tuple(summaries),
        wall_times=walls,
    )
    if cfg.out_path is not None:
        write_compare_output(result, cfg)
    return result


def _source_payload(source) -> dict:
    if isinstance(source, FileSource):
        return {"kind": "file", "path": str(source.path), "format": source.fmt}
    return {
        "kind": "generator",
        "generator": source.kind,
        "m": source.m,
        "n": source.n,
        "seed": source.seed,
        "alpha": source.alpha,
        "rank": source.rank,
        "noise": source.noise,
    }


def _config_payload(cfg: ExperimentConfig, include_dist: bool) -> dict:
    # out_path/out_format/jobs describe where the artifact lands and how it
    # was scheduled, not the experiment itself; leaving them out keeps two
    # runs of one experiment byte-identical.
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
        "spectral": {
            "tol": cfg.spectral.tol,
            "max_iters": cfg.spectral.max_iters,
            "seed": cfg.spectral.seed,
        },
    }
    if include_dist:
        doc["dist"] = cfg.dist_kind.value
    return doc


def _report_payload(rep: BoundReport) -> dict:
    return {
        "s_theorem1": rep.s_theorem1,
        "case_used": rep.case_used.value,
        "s_unsimplified": rep.s_unsimplified,
        "s_corollary": rep.s_corollary,
        "gamma": rep.gamma,
        "rho2": rep.rho2,
        "tail_at_s": rep.tail_at_s,
    }


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
            "bound_report": _report_payload(result.bound_report),
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


def _experiment_csv(result: ExperimentResult) -> str:
    lines = ["trial,seed,error,wall_time"]
    for t, (seed, err, wall) in enumerate(zip(result.seeds, result.errors, result.wall_times)):
        lines.append(f"{t},{seed},{err!r},{wall!r}")
    return "\n".join(lines) + "\n"


def _compare_csv(result: CompareResult) -> str:
    # per-kind summary columns repeat on each row so the table stays flat:
    # exactly 3 * trials data rows below one header.
    lines = ["kind,trial,seed,error,beta_certificate,median_error,p90_error"]
    for summ in result.summaries:
        for t, (seed, err) in enumerate(zip(result.seeds, summ.errors)):
            lines.append(
                f"{summ.kind.value},{t},{seed},{err!r},"
                f"{summ.beta_certificate!r},{summ.median_error!r},{summ.p90_error!r}"
            )
    return "\n".join(lines) + "\n"


def write_experiment_output(result: ExperimentResult, cfg: ExperimentConfig) -> None:
    if cfg.out_format == "json":
        text = payload_text(experiment_payload(result, cfg))
    else:
        text = _experiment_csv(result)
    with open(cfg.out_path, "w", encoding="ascii") as fh:
        fh.write(text)


def write_compare_output(result: CompareResult, cfg: ExperimentConfig) -> None:
    if cfg.out_format == "json":
        text = payload_text(compare_payload(result, cfg))
    else:
        text = _compare_csv(result)
    with open(cfg.out_path, "w", encoding="ascii") as fh:
        fh.write(text)
