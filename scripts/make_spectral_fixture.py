"""Regenerate tests/fixtures/spectral_oracle.json.

200 seeded matrices up to 30x30 drawn from the package generators, each with
its largest singular value computed by a full SVD (numpy.linalg.svd). The
fixture stores generator parameters rather than entries, so tests rebuild
each matrix through the library and compare spectral_norm against the stored
oracle. Run from the repository root:

    python3 scripts/make_spectral_fixture.py
"""

import json
from pathlib import Path

import numpy as np

from elemsparse.generate import GENERATOR_KINDS, GeneratorSpec, generate_matrix

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "spectral_oracle.json"
COUNT = 200


def main() -> None:
    rng = np.random.default_rng(20260814)
    cases = []
    for idx in range(COUNT):
        kind = GENERATOR_KINDS[idx % len(GENERATOR_KINDS)]
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, 31))
        spec = GeneratorSpec(kind=kind, m=m, n=n, seed=1000 + idx)
        x = generate_matrix(spec)
        sigma_max = float(np.linalg.svd(x.data, compute_uv=False)[0])
        cases.append(
            {
                "kind": kind,
                "m": m,
                "n": n,
                "seed": spec.seed,
                "alpha": spec.alpha,
                "rank": spec.rank,
                "noise": spec.noise,
                "sigma_max": sigma_max,
            }
        )
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", encoding="ascii") as fh:
        json.dump({"schema_version": 1, "cases": cases}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} ({len(cases)} cases)")


if __name__ == "__main__":
    main()
