import numpy as np
import pytest

from elemsparse import (
    DenseMatrix,
    DimensionError,
    ParseError,
    SparseCOO,
    load_matrix,
    write_csv,
    write_matrix_market,
)
from elemsparse.io import detect_format

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_matrix_market_spec_example(tmp_path):
    path = _write(tmp_path, "a.mtx", f"{MM_HEADER}\n2 2 1\n1 2 4.0\n")
    x = load_matrix(path)
    np.testing.assert_array_equal(x.data, [[0.0, 4.0], [0.0, 0.0]])


def test_matrix_market_comments_blanks_duplicates(tmp_path):
    text = f"{MM_HEADER}\n% a comment\n\n2 2 3\n1 1 1.0\n% more\n1 1 2.0\n2 2 -1.5\n"
    x = load_matrix(_write(tmp_path, "b.mtx", text))
    np.testing.assert_array_equal(x.data, [[3.0, 0.0], [0.0, -1.5]])


def test_matrix_market_errors(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "h.mtx", "1 1 1\n1 1 2.0\n"))
    assert exc.value.line == 1  # header missing

    with pytest.raises(ParseError):
        load_matrix(_write(tmp_path, "t.mtx", "%%MatrixMarket matrix array real general\n1 1\n2.0\n"))

    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "s.mtx", f"{MM_HEADER}\nnot a size line\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "r.mtx", f"{MM_HEADER}\n2 2 1\n3 1 5.0\n"))
    assert exc.value.line == 3  # 1-indexed coordinate out of range

    with pytest.raises(ParseError):
        load_matrix(_write(tmp_path, "c.mtx", f"{MM_HEADER}\n2 2 2\n1 1 5.0\n"))  # nnz mismatch

    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "m.mtx", f"{MM_HEADER}\n2 2 1\n1 1 abc\n"))
    assert exc.value.line == 3


def test_csv_spec_examples(tmp_path):
    x = load_matrix(_write(tmp_path, "a.csv", "3,4\n0,0\n"))
    np.testing.assert_array_equal(x.data, [[3.0, 4.0], [0.0, 0.0]])
    ragged = _write(tmp_path, "ragged.csv", "1,2\n3\n")
    with pytest.raises(DimensionError) as exc:
        load_matrix(ragged)
    assert isinstance(exc.value, ParseError) and (exc.value.path, exc.value.line) == (ragged, 2)
    assert str(exc.value) == f"{ragged}:2: row has 1 columns, expected 2"


def test_csv_errors(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "bad.csv", "1,2\n3,oops\n"))
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        load_matrix(_write(tmp_path, "empty.csv", ""))


def test_csv_blank_lines_skipped(tmp_path):
    x = load_matrix(_write(tmp_path, "b.csv", "1,2\n\n3,4\n"))
    np.testing.assert_array_equal(x.data, [[1.0, 2.0], [3.0, 4.0]])


def test_detect_format(tmp_path):
    assert detect_format("x.mtx") == "matrix-market"
    assert detect_format("x.mm") == "matrix-market"
    assert detect_format("x.csv") == "csv"
    with pytest.raises(ParseError):
        detect_format("x.dat")


def test_format_override(tmp_path):
    path = _write(tmp_path, "data.txt", "5,6\n7,8\n")
    x = load_matrix(path, fmt="csv")
    np.testing.assert_array_equal(x.data, [[5.0, 6.0], [7.0, 8.0]])
    with pytest.raises(ParseError):
        load_matrix(path, fmt="hdf5")


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    x = DenseMatrix(np.round(rng.standard_normal((4, 6)), 12) * (rng.random((4, 6)) < 0.5))
    path = tmp_path / "rt.mtx"
    write_matrix_market(path, x)
    back = load_matrix(path)
    np.testing.assert_array_equal(back.data, x.data)  # repr round-trips exactly


def test_matrix_market_writes_coo_canonicalized(tmp_path):
    coo = SparseCOO(2, 2, [0, 0], [1, 1], [1.25, 2.25])
    path = tmp_path / "coo.mtx"
    write_matrix_market(path, coo)
    back = load_matrix(path)
    np.testing.assert_array_equal(back.data, [[0.0, 3.5], [0.0, 0.0]])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    x = DenseMatrix(rng.standard_normal((3, 5)))
    path = tmp_path / "rt.csv"
    write_csv(path, x)
    back = load_matrix(path)
    np.testing.assert_array_equal(back.data, x.data)
