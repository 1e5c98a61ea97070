"""Matrix file I/O: Matrix Market (coordinate real general, 1-indexed) and CSV.

CSV files are one matrix row per line, comma-separated decimals with no
digit separators. Matrix Market entries not listed are zero; duplicate
coordinates accumulate.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import DimensionError, ParseError
from .matrix import DenseMatrix, SparseCOO, check_cell_count, coo_to_dense

__all__ = [
    "FORMATS",
    "detect_format",
    "load_matrix",
    "write_matrix_market",
    "write_csv",
]

FORMATS = ("matrix-market", "csv")

_MM_HEADER = "%%MatrixMarket"
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])

# Entries formatted and written per write call: the body is never held whole.
_WRITE_CHUNK = 1 << 16


def detect_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return "matrix-market"
    if suffix == ".csv":
        return "csv"
    raise ParseError(f"cannot infer format from suffix {suffix!r}; pass it explicitly", path=path)


def load_matrix(path, fmt: str | None = None) -> DenseMatrix:
    fmt = detect_format(path) if fmt is None else fmt
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}", path=path)
    try:
        return _load_matrix_market(path) if fmt == "matrix-market" else _load_csv(path)
    except UnicodeDecodeError:
        raise ParseError("file is not ASCII text", path=path) from None


def _load_matrix_market(path) -> DenseMatrix:
    """Read a coordinate real general Matrix Market file (grammar in the README).

    The header and the size line are read line by line. The body is parsed by
    one ``np.loadtxt`` call into ``(int64 i, int64 j, float64 v)`` records read
    from the open file, and the index range and the entry count are checked on
    whole arrays. When the parse or a check refuses the file,
    ``_refuse_matrix_market_body`` reads it again line by line to name the
    offending line.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith(_MM_HEADER):
            raise ParseError("missing MatrixMarket header line", path=path, line=1)
        words = header.split()
        if [w.lower() for w in words[1:]] != ["matrix", "coordinate", "real", "general"]:
            raise ParseError(
                f"unsupported MatrixMarket type {' '.join(words[1:])!r}; "
                "only 'matrix coordinate real general' is supported",
                path=path,
                line=1,
            )
        lineno, size_raw = 1, None
        while size_raw is None:
            raw = fh.readline()
            if not raw:
                raise ParseError("missing size line", path=path, line=lineno)
            lineno += 1
            if _mm_content(raw):
                size_raw = raw
        size_lineno = lineno
        m, n, nnz = _parse_size_line(path, size_lineno, size_raw)
        with warnings.catch_warnings():
            # numpy 1.23-1.26 read an int64 field such as "1.0" or "2.9" as a
            # float, truncate it and only warn; as an error the field refuses
            # the file under any caller's filters, as later numpy does.
            warnings.simplefilter("error", DeprecationWarning)
            # a body with no entries is valid when nnz is 0
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                entries = np.loadtxt(fh, dtype=_MM_ENTRY, comments="%", ndmin=1)
            except (ValueError, DeprecationWarning) as exc:
                _refuse_matrix_market_body(path, size_lineno, m, n, nnz, str(exc))
    i, j = entries["i"], entries["j"]
    if entries.shape[0] != nnz or (
        nnz > 0 and (i.min() < 1 or i.max() > m or j.min() < 1 or j.max() > n)
    ):
        _refuse_matrix_market_body(path, size_lineno, m, n, nnz)
    return coo_to_dense(SparseCOO(m, n, i - 1, j - 1, entries["v"]))


def _mm_content(raw: str) -> str:
    """A Matrix Market line without its comment (from the first '%') and
    without surrounding whitespace; empty for blank and comment lines."""
    return raw.split("%", 1)[0].strip()


def _unseparated(text: str) -> str:
    """text, or ValueError if it holds '_': int and float read '1_0' as 10, but
    neither file grammar has digit separators, nor has np.loadtxt."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return text


def _parse_size_line(path, lineno: int, raw: str) -> tuple[int, int, int]:
    text = _mm_content(raw)
    try:
        m, n, nnz = (int(w) for w in _unseparated(text).split())
    except ValueError:
        raise ParseError(
            f"size line must be 'rows cols nnz', got {raw.strip()!r}", path=path, line=lineno
        ) from None
    if m < 1 or n < 1:
        raise ParseError(f"matrix dimensions must be >= 1, got ({m}, {n})", path=path, line=lineno)
    if nnz < 0:
        raise ParseError(f"entry count must be >= 0, got {nnz}", path=path, line=lineno)
    check_cell_count(m, n, ParseError, path=path, line=lineno)
    return m, n, nnz


def _refuse_matrix_market_body(path, size_lineno: int, m: int, n: int, nnz: int, reason: str = "") -> NoReturn:
    """Raise the ParseError naming the first body line that breaks the grammar
    or the index range, or the entry count's mismatch at the last line.

    This is the line-by-line form of what ``_load_matrix_market`` checks on
    whole arrays; it runs only on a file already refused. ``reason`` is
    loadtxt's message, reported if no line breaks the documented grammar.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    count = 0
    for lineno, raw in enumerate(lines[size_lineno:], start=size_lineno + 1):
        text = _mm_content(raw)
        if not text:
            continue
        words = text.split()
        if len(words) != 3:
            raise ParseError(f"expected 'i j value', got {raw.strip()!r}", path=path, line=lineno)
        try:
            _unseparated(text)
            i, j, _ = int(words[0]), int(words[1]), float(words[2])
        except ValueError:
            raise ParseError(f"malformed entry {raw.strip()!r}", path=path, line=lineno) from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(
                f"index ({i}, {j}) outside declared size ({m}, {n})", path=path, line=lineno
            )
        count += 1
    if count != nnz:
        raise ParseError(
            f"size line declared {nnz} entries but file has {count}", path=path, line=len(lines)
        )
    raise ParseError(f"malformed entries: {reason}", path=path)


def _load_csv(path) -> DenseMatrix:
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                row = [float(w) for w in _unseparated(stripped).split(",")]
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
    """Write a SparseCOO (canonicalized first, which leaves a sketch's sorted
    unique cells as they are) or DenseMatrix as coordinate real general,
    1-indexed, full float precision."""
    if isinstance(matrix, DenseMatrix):
        nz = np.nonzero(matrix.data)
        coo = SparseCOO(matrix.m, matrix.n, nz[0], nz[1], matrix.data[nz])
    else:
        coo = matrix.canonicalize()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.m} {coo.n} {coo.nnz}\n")
        for lo in range(0, coo.nnz, _WRITE_CHUNK):
            hi = lo + _WRITE_CHUNK
            fh.write("".join(
                f"{i + 1} {j + 1} {v!r}\n"
                for i, j, v in zip(coo.rows[lo:hi].tolist(), coo.cols[lo:hi].tolist(), coo.vals[lo:hi].tolist())
            ))


def write_csv(path, matrix: DenseMatrix) -> None:
    """One line per row, each entry as repr of its Python float: the
    shortest decimal that reads back to the same double."""
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix.data:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
