"""Regenerate tests/fixtures/sigma2_trap_sketch.json.

The fixture freezes the sample multiset of one sketch: the hybrid sketch of
the gaussian 100x100 matrix of seed 44 at s = 15 202 and seed 29, as the
Walker/Vose alias-table sampler drew it. The difference S - X of that sketch
has its two largest singular values 13.3624 and 13.1926, close enough that
power iteration once stopped on the second and called it converged;
``test_spectral::test_second_singular_value_trap`` keeps that case.

The multinomial sampler that replaced the alias table draws another
multiset from the same seed, so this script refuses to run on it. Run it
with an alias-table package (any commit up to 8313b72) on the path, from the
repository root:

    mkdir /tmp/alias && git archive 8313b72 src | tar -x -C /tmp/alias
    PYTHONPATH=/tmp/alias/src python3 scripts/make_trap_fixture.py
"""

import json
import sys
from pathlib import Path

import numpy as np

import elemsparse
from elemsparse import GeneratorSpec, build_alias_table, draw_samples, generate_matrix, hybrid_distribution

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "sigma2_trap_sketch.json"
SPEC = GeneratorSpec("gaussian", 100, 100, 44)
S, SEED = 15202, 29


def main() -> None:
    if not hasattr(elemsparse.sampler, "AliasTable"):
        sys.exit(f"{elemsparse.__file__} draws by multinomial; put an alias-table package on the path")
    x = generate_matrix(SPEC)
    d = hybrid_distribution(x)
    omega = draw_samples(build_alias_table(d), S, SEED)
    diff = -x.data.reshape(-1).copy()
    diff[omega.cells] += omega.counts * x.flat()[omega.cells] / (S * d.probs[omega.cells])
    top = np.linalg.svd(diff.reshape(x.shape), compute_uv=False)[:2]
    doc = {
        "schema_version": 1,
        "generator": {"kind": SPEC.kind, "m": SPEC.m, "n": SPEC.n, "seed": SPEC.seed},
        "dist": "hybrid",
        "s": S,
        "seed": SEED,
        "cells": omega.cells.tolist(),
        "counts": omega.counts.tolist(),
    }
    with open(OUT, "w", encoding="ascii") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}: {omega.cells.size} cells; top singular values of S - X {float(top[0])!r}, {float(top[1])!r}")


if __name__ == "__main__":
    main()
