"""Command-line front end.

Subcommands: sparsify (one-shot sketch), bounds (sample-size calculator),
experiment (Monte-Carlo guarantee check), compare (hybrid vs l1 vs l2).

Every sampling command sizes s through ``experiment.make_plan`` at its
distribution's certificate; bounds runs the same sizing step at --beta, from a
matrix or from numbers. bounds, experiment and compare hand their JSON payload
or CSV text to one writer, which sends it to --out or, without --out, to stdout.

Exit codes: 0 success, 1 config or I/O error, 2 guarantee not shown
(experiment only: empirical failure rate above delta, or a trial whose error
solve stopped uncertified).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from . import __version__
from .distributions import _BUILTIN_KINDS
from .errors import ElemsparseError, InvalidSpecError
from .experiment import (
    BoundForm,
    ExperimentConfig,
    FileSource,
    SCHEMA_VERSION,
    _sizing,
    compare_distributions,
    compare_payload,
    experiment_payload,
    make_plan,
    payload_text,
    resolve_matrix,
    run_experiment,
)
from .generate import GENERATOR_KINDS, GeneratorSpec
from .io import FORMATS, write_csv, write_matrix_market
from .matrix import _nonzero_squares, coo_to_dense
from .sampler import draw_samples, sampling_operator
from .spectral import _stable_rank

__all__ = ["main", "build_parser"]

_DIST_CHOICES = tuple(kind.value for kind in _BUILTIN_KINDS)
_FORM_CHOICES = tuple(f.value for f in BoundForm)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for "guarantee
    # violated" here, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _generator_spec(text: str) -> GeneratorSpec:
    """The GeneratorSpec of a --generate value; a bad spec is an
    InvalidSpecError that names what is wrong with it."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidSpecError(f"--generate wants KIND,M,N,SEED, got {text!r}")
    kind, m, n, seed = parts
    try:
        return GeneratorSpec(kind=kind, m=int(m), n=int(n), seed=int(seed))
    except ValueError as exc:  # int() or the spec's own checks (InvalidSpecError)
        raise InvalidSpecError(f"--generate {text!r}: {exc}") from None


def _add_source_flags(p) -> None:
    p.add_argument("--input", help="matrix file to load")
    p.add_argument("--format", choices=FORMATS, help="input format (default: by suffix)")
    p.add_argument(
        "--generate",
        metavar="KIND,M,N,SEED",
        help=f"generate the input instead; kinds: {', '.join(GENERATOR_KINDS)}",
    )


def _add_bound_flags(p, sized: bool) -> None:
    """Error-target flags; sized adds --s and --bound-form, which choose the
    s a sampling command uses (bounds reports every form instead, at --beta)."""
    p.add_argument("--epsilon", type=float, help="absolute spectral error target")
    p.add_argument(
        "--epsilon-rel",
        type=float,
        help="relative error target: scales ||X||_2 under --bound-form corollary, ||X||_F otherwise",
    )
    p.add_argument("--delta", type=float, default=0.1, help="failure probability (default 0.1)")
    if sized:
        p.add_argument("--s", type=int, help="sample-count override, skips the bound")
        p.add_argument("--bound-form", choices=_FORM_CHOICES, default="unsimplified")
    else:
        p.add_argument("--beta", type=float, default=1.0, help="distribution quality in (0, 1] (default 1, the hybrid's)")


def build_parser() -> _Parser:
    parser = _Parser(prog="elemsparse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sparsify", help="sample one sparse sketch and write it out")
    _add_source_flags(p)
    _add_bound_flags(p, sized=True)
    p.add_argument("--dist", choices=_DIST_CHOICES, default="hybrid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", choices=("matrix-market", "csv"), default="matrix-market")
    p.set_defaults(func=_cmd_sparsify)

    # bounds takes no --s; with abbreviations argparse would read it as --stable-rank
    p = sub.add_parser("bounds", help="print the sample-size report for given parameters", allow_abbrev=False)
    _add_source_flags(p)
    _add_bound_flags(p, sized=False)
    p.add_argument("--m", type=int, help="rows, when no --input is given")
    p.add_argument("--n", type=int, help="columns, when no --input is given")
    p.add_argument("--frobenius", type=float, help="||X||_F, when no --input is given")
    p.add_argument("--stable-rank", type=float, help="sr(X) with --m/--n/--frobenius; enables the corollary row")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="Monte-Carlo check of the sparsification guarantee")
    _add_source_flags(p)
    _add_bound_flags(p, sized=True)
    p.add_argument("--dist", choices=_DIST_CHOICES, default="hybrid")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base seed; trial t uses seed+t")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--out-format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("compare", help="hybrid vs l1 vs l2 at one shared sample size")
    _add_source_flags(p)
    _add_bound_flags(p, sized=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--out-format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_compare)

    return parser


def _source(args):
    if (args.input is None) == (args.generate is None):
        raise InvalidSpecError("exactly one of --input and --generate is required")
    if args.input is not None:
        return FileSource(args.input, args.format)
    return _generator_spec(args.generate)


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        source=_source(args),
        dist_kind=getattr(args, "dist", "hybrid"),  # compare runs every kind
        epsilon=args.epsilon,
        epsilon_rel=args.epsilon_rel,
        delta=args.delta,
        s_override=args.s,
        bound_form=args.bound_form,
        trials=args.trials,
        base_seed=args.seed,
        jobs=args.jobs,
    )


def _write(text: str, out: str | None) -> None:
    """The one output path of bounds, experiment and compare."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="ascii") as fh:
        fh.write(text)


def _experiment_csv(result) -> str:
    lines = ["trial,seed,error,wall_time"]
    for t, (seed, err, wall) in enumerate(zip(result.seeds, result.errors, result.wall_times)):
        lines.append(f"{t},{seed},{err!r},{wall!r}")
    return "\n".join(lines) + "\n"


def _compare_csv(results) -> str:
    # per-kind summary columns repeat on each row so the table stays flat:
    # exactly 3 * trials data rows below one header.
    lines = ["kind,trial,seed,error,beta_certificate,median_error,p90_error"]
    for r in results:
        summary = f"{r.beta!r},{r.median_error!r},{r.p90_error!r}"
        for t, (seed, err) in enumerate(zip(r.seeds, r.errors)):
            lines.append(f"{r.dist_kind.value},{t},{seed},{err!r},{summary}")
    return "\n".join(lines) + "\n"


def _cmd_sparsify(args) -> int:
    if args.seed < 0:
        raise InvalidSpecError("--seed must be a nonnegative integer")
    plan = make_plan(
        resolve_matrix(_source(args)), (args.dist,), bound_form=args.bound_form, epsilon=args.epsilon,
        epsilon_rel=args.epsilon_rel, delta=args.delta, s_override=args.s,
    )
    x, dist = plan.x, plan.dists[0]
    sketch = sampling_operator(x, dist, draw_samples(dist, plan.s, args.seed))
    if args.out_format == "matrix-market":
        write_matrix_market(args.out, sketch.matrix)
    else:
        write_csv(args.out, coo_to_dense(sketch.matrix))
    print(f"wrote {args.out}: {x.m}x{x.n}, s={plan.s}, nnz={sketch.matrix.nnz}")
    return 0


def _cmd_bounds(args) -> int:
    if args.input is not None or args.generate is not None:
        given = [f for f in ("m", "n", "frobenius", "stable_rank") if getattr(args, f) is not None]
        if given:
            flags = "/".join("--" + f.replace("_", "-") for f in given)
            raise InvalidSpecError(f"{flags} apply only without --input/--generate, which give the matrix itself")
        x = resolve_matrix(_source(args))
        fro = math.sqrt(_nonzero_squares(x.flat())[1])  # refuses the zero matrix, as stable_rank does
        m, n, sr = x.m, x.n, _stable_rank(x, fro)
    elif args.m is None or args.n is None or args.frobenius is None:
        raise InvalidSpecError("bounds needs --input, --generate or all of --m/--n/--frobenius")
    else:
        m, n, fro, sr = args.m, args.n, args.frobenius, args.stable_rank
    req, report = _sizing(m, n, fro, sr, None, args.epsilon, args.epsilon_rel, args.delta, args.beta)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "bounds",
        "request": {**asdict(req), "epsilon_rel": args.epsilon_rel},
        "report": asdict(report),
    }
    _write(payload_text(payload), args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    result = run_experiment(cfg)
    text = payload_text(experiment_payload(result, cfg)) if args.out_format == "json" else _experiment_csv(result)
    _write(text, args.out)
    if args.out is not None:
        print(
            f"s={result.s_used} epsilon={result.epsilon_used:.6g} "
            f"failure_rate={result.empirical_failure_rate:.4f} delta={cfg.delta:g} "
            f"unconverged={result.unconverged_trials} "
            f"-> {'pass' if result.passed else 'FAIL'} ({args.out})"
        )
    return 0 if result.passed else 2


def _cmd_compare(args) -> int:
    cfg = _experiment_config(args)
    results = compare_distributions(cfg)
    text = payload_text(compare_payload(results, cfg)) if args.out_format == "json" else _compare_csv(results)
    _write(text, args.out)
    if args.out is not None:
        for r in results:
            print(f"{r.dist_kind.value}: beta={r.beta:.6g} median={r.median_error:.6g} p90={r.p90_error:.6g}")
        print(f"wrote {args.out} (s={results[0].s_used})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ElemsparseError, OSError) as exc:
        print(f"elemsparse: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a matrix too large to hold, e.g. from a .mtx header or --generate
        print(f"elemsparse: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
