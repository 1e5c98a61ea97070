"""Deterministic test-ensemble matrix generators.

Every generator is a pure function of its spec: a PCG64 stream seeded with
the spec's seed is consumed in a fixed, documented order per kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, _integer
from .matrix import DenseMatrix, check_cell_count

__all__ = ["GENERATOR_KINDS", "GeneratorSpec", "generate_matrix"]

GENERATOR_KINDS = ("gaussian", "power-law", "low-rank-plus-noise", "binary")


@dataclass(frozen=True)
class GeneratorSpec:
    """Matrix ensemble spec.

    alpha is the power-law tail exponent; rank and noise parameterize the
    low-rank-plus-noise kind and are ignored by the others. rank defaults to
    min(5, m, n) when unset.
    """

    kind: str
    m: int
    n: int
    seed: int
    alpha: float = 2.0
    rank: int | None = None
    noise: float = 0.1

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InvalidSpecError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        for name in ("m", "n", "seed") if self.rank is None else ("m", "n", "seed", "rank"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 1 or self.n < 1:
            raise InvalidSpecError("matrix dimensions must be >= 1")
        check_cell_count(self.m, self.n, InvalidSpecError)
        if self.seed < 0:
            raise InvalidSpecError("seed must be a nonnegative integer")
        if not self.alpha > 0:
            raise InvalidSpecError("alpha must be positive")
        if self.rank is not None and not 1 <= self.rank <= min(self.m, self.n):
            raise InvalidSpecError("rank must lie in [1, min(m, n)] when given")
        if self.noise < 0:
            raise InvalidSpecError("noise must be nonnegative")


def generate_matrix(spec: GeneratorSpec) -> DenseMatrix:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    m, n = spec.m, spec.n
    if spec.kind == "gaussian":
        data = rng.standard_normal((m, n))
    elif spec.kind == "power-law":
        # sign * U^(-1/alpha); the magnitude uses 1-U in (0, 1] so a drawn 0
        # cannot produce Inf. Draw order: magnitudes, then signs.
        u = rng.random((m, n))
        magnitude = np.power(1.0 - u, -1.0 / spec.alpha)
        sign = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
        data = sign * magnitude
    elif spec.kind == "low-rank-plus-noise":
        # sum of rank outer products plus noise * gaussian; draw order: left
        # factors, right factors, noise.
        k = min(5, m, n) if spec.rank is None else spec.rank
        left = rng.standard_normal((m, k))
        right = rng.standard_normal((n, k))
        data = left @ right.T
        if spec.noise > 0:
            data = data + spec.noise * rng.standard_normal((m, n))
    else:  # binary
        data = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
    return DenseMatrix(data)
