"""Independent references for the benchmark's output checks.

Everything here is plain numpy written from the paper's formulas, not from
the program: the Matrix Market reader and writer, the generator recipes, the
three cell distributions, the beta certificate, the two sample-size bounds
the workloads use, and dense spectral norms. The checks compare the
program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def power_law(m: int, n: int, seed: int, alpha: float = 2.0) -> np.ndarray:
    """sign * (1 - U)^(-1/alpha) from one PCG64 stream: magnitudes, then signs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    magnitude = np.power(1.0 - rng.random((m, n)), -1.0 / alpha)
    sign = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
    return sign * magnitude


def gaussian(m: int, n: int, seed: int) -> np.ndarray:
    """The documented recipe of ``generate_matrix`` for kind gaussian."""
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((m, n))


def write_mtx(path, x: np.ndarray) -> None:
    """Every nonzero of x, row-major, 1-indexed, full float precision."""
    rows, cols = np.nonzero(x)
    body = "\n".join(
        f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), x[rows, cols].tolist())
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MM_HEADER}\n{x.shape[0]} {x.shape[1]} {rows.size}\n{body}\n")


def parse_mtx(text: str):
    """(m, n, rows, cols, vals) of a coordinate real general file, 0-indexed."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")]
    m, n, nnz = (int(w) for w in lines[0].split())
    body = np.array(" ".join(lines[1:]).split(), dtype=np.float64).reshape(-1, 3)
    if body.shape[0] != nnz:
        raise ValueError(f"header declares {nnz} entries, body has {body.shape[0]}")
    return m, n, body[:, 0].astype(np.int64) - 1, body[:, 1].astype(np.int64) - 1, body[:, 2]


def frobenius(x: np.ndarray) -> float:
    return math.sqrt(math.fsum((x * x).ravel().tolist()))


def probabilities(x: np.ndarray) -> dict:
    """The l2, l1 and hybrid cell distributions of x, as (m, n) grids."""
    sq = x * x
    ab = np.abs(x)
    l2 = sq / math.fsum(sq.ravel().tolist())
    l1 = ab / math.fsum(ab.ravel().tolist())
    return {"l2": l2, "l1": l1, "hybrid": 0.5 * (l2 + l1)}


def beta_certificate(x: np.ndarray, p: np.ndarray) -> float:
    """Largest beta <= 1 with p >= beta * hybrid on every nonzero cell."""
    hybrid = probabilities(x)["hybrid"]
    nz = x != 0.0
    return float(min(1.0, (p[nz] / hybrid[nz]).min()))


def s_unsimplified(m: int, n: int, epsilon: float, delta: float, beta: float, frob: float) -> float:
    """Unrounded (4 n F^2 + 2 eps sqrt(mn) F) log((m+n)/delta) / (beta eps^2)."""
    numer = 4.0 * n * frob**2 + 2.0 * epsilon * math.sqrt(m * n) * frob
    return numer * math.log((m + n) / delta) / (beta * epsilon**2)


def s_corollary(m: int, n: int, epsilon_rel: float, delta: float, beta: float, stable_rank: float) -> float:
    """Unrounded 6 max(m, n) log((m+n)/delta) sr / (beta eps_rel^2)."""
    return 6.0 * max(m, n) * math.log((m + n) / delta) * stable_rank / (beta * epsilon_rel**2)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def densify(m: int, n: int, rows, cols, vals) -> np.ndarray:
    out = np.zeros((m, n))
    np.add.at(out, (np.asarray(rows), np.asarray(cols)), np.asarray(vals))
    return out
