"""Matrix file I/O: Matrix Market (coordinate real general, 1-indexed) and CSV.

CSV files are one matrix row per line, comma-separated decimals. Matrix
Market entries not listed are zero; duplicate coordinates accumulate.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DimensionError, ParseError
from .matrix import DenseMatrix, SparseCOO, coo_to_dense

__all__ = [
    "FORMATS",
    "detect_format",
    "load_matrix",
    "write_matrix_market",
    "write_csv",
]

FORMATS = ("matrix-market", "csv")

_MM_HEADER = "%%MatrixMarket"


def detect_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return "matrix-market"
    if suffix == ".csv":
        return "csv"
    raise ParseError(f"cannot infer format from suffix {suffix!r}; pass it explicitly", path=path)


def load_matrix(path, fmt: str | None = None) -> DenseMatrix:
    fmt = detect_format(path) if fmt is None else fmt
    if fmt == "matrix-market":
        return _load_matrix_market(path)
    if fmt == "csv":
        return _load_csv(path)
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}", path=path)


def _load_matrix_market(path) -> DenseMatrix:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith(_MM_HEADER):
        raise ParseError("missing MatrixMarket header line", path=path, line=1)
    header = lines[0].split()
    if [w.lower() for w in header[1:]] != ["matrix", "coordinate", "real", "general"]:
        raise ParseError(
            f"unsupported MatrixMarket type {' '.join(header[1:])!r}; "
            "only 'matrix coordinate real general' is supported",
            path=path,
            line=1,
        )
    size_line = None
    body_start = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = (lineno, stripped)
        body_start = lineno
        break
    if size_line is None:
        raise ParseError("missing size line", path=path, line=len(lines))
    try:
        m, n, nnz = (int(w) for w in size_line[1].split())
    except ValueError:
        raise ParseError(
            f"size line must be 'rows cols nnz', got {size_line[1]!r}",
            path=path,
            line=size_line[0],
        ) from None
    rows, cols, vals = [], [], []
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        words = stripped.split()
        if len(words) != 3:
            raise ParseError(f"expected 'i j value', got {stripped!r}", path=path, line=lineno)
        try:
            i, j, v = int(words[0]), int(words[1]), float(words[2])
        except ValueError:
            raise ParseError(f"malformed entry {stripped!r}", path=path, line=lineno) from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(
                f"index ({i}, {j}) outside declared size ({m}, {n})", path=path, line=lineno
            )
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if len(vals) != nnz:
        raise ParseError(
            f"size line declared {nnz} entries but file has {len(vals)}",
            path=path,
            line=len(lines),
        )
    return coo_to_dense(SparseCOO(m, n, rows, cols, vals))


def _load_csv(path) -> DenseMatrix:
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            words = stripped.split(",")
            try:
                row = [float(w) for w in words]
            except ValueError:
                raise ParseError(f"malformed number in {stripped!r}", path=path, line=lineno) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionError(f"row has {len(row)} columns, expected {width}", path=path, line=lineno)
            rows.append(row)
    if not rows:
        raise ParseError("file holds no matrix rows", path=path, line=1)
    return DenseMatrix(np.array(rows))


def write_matrix_market(path, matrix) -> None:
    """Write a SparseCOO (canonicalized first) or DenseMatrix as coordinate
    real general, 1-indexed, full float precision."""
    if isinstance(matrix, DenseMatrix):
        nz = np.nonzero(matrix.data)
        coo = SparseCOO(matrix.m, matrix.n, nz[0], nz[1], matrix.data[nz])
    else:
        coo = matrix.canonicalize()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.m} {coo.n} {coo.nnz}\n")
        fh.write("".join(
            f"{i + 1} {j + 1} {v!r}\n"
            for i, j, v in zip(coo.rows.tolist(), coo.cols.tolist(), coo.vals.tolist())
        ))


def write_csv(path, matrix: DenseMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix.data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
