import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import elemsparse.io
from elemsparse import (
    DenseMatrix,
    DimensionError,
    NonFiniteError,
    ParseError,
    SparseCOO,
    load_matrix,
    write_csv,
    write_matrix_market,
)
from elemsparse.io import detect_format
from elemsparse.matrix import _scatter, coo_to_dense

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


# One row per grammar edge: the body after a 2x3 size line, and either the
# loaded matrix or the line number of the ParseError.
_EDGES = [
    ("1 1 1.5\n\n% note\n   \n2 3 -2\n", 2, [[1.5, 0, 0], [0, 0, -2]], "comment-and-blank-lines-mid-body"),
    ("1 1 1.5\r\n% note\r\n2 3 -2\r\n", 2, [[1.5, 0, 0], [0, 0, -2]], "crlf"),
    ("1 1 1.5\r% note\r2 3 -2\r", 2, [[1.5, 0, 0], [0, 0, -2]], "cr"),
    ("1 1 1.5\r\n2 4 -2\r\n", 2, 5, "crlf-line-numbers"),
    ("1\t1\t1.5\n 2 \t3\t-2 \n", 2, [[1.5, 0, 0], [0, 0, -2]], "tabs-and-spaces"),
    ("", 0, [[0, 0, 0], [0, 0, 0]], "nnz-0-no-body"),
    ("% only a comment\n\n", 0, [[0, 0, 0], [0, 0, 0]], "nnz-0-comment-body"),
    ("1 1 1.5\n", 0, 4, "nnz-0-with-entry"),
    ("1 1 1.5\n", 2, 4, "too-few-entries"),
    ("1 1 1.5\n2 2 2\n2 3 3\n", 2, 6, "too-many-entries"),
    ("1.0 1 1.5\n", 1, 4, "float-index"),
    ("1 1 1.5\n12345678901234567890 1 2\n", 2, 5, "20-digit-index"),
    ("1 1 1.5\n1 1\n", 2, 5, "two-fields"),
    ("1 1 1.5 7\n", 1, 4, "four-fields"),
    ("1 1 1.5\n0 1 2\n", 2, 5, "index-0"),
    ("1 1 1.5\n\n% c\n2 4 2\n", 2, 7, "column-past-n-after-comments"),
    ("1 2 1.5 % trailing comment\n", 1, [[0, 1.5, 0], [0, 0, 0]], "trailing-comment-accepted"),
    ("1 1 % the value is missing\n", 1, 4, "comment-cuts-a-field"),
    ("0_1 1 1.5\n", 1, 4, "underscore-in-index-refused"),
    ("1 1 1_0\n", 1, 4, "underscore-in-value-refused"),
    ("1 1 +1.5e0\n-0 1 2\n", 2, 5, "signed-fields"),
    ("1 1 abc\n", 1, 4, "word-value"),
]


@pytest.mark.parametrize("body, nnz, expect", [pytest.param(*row[:3], id=row[3]) for row in _EDGES])
def test_matrix_market_grammar_edges(tmp_path, body, nnz, expect):
    path = _write(tmp_path, "e.mtx", f"{MM_HEADER}\n% header comment\n2 3 {nnz}\n{body}")
    if isinstance(expect, int):
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert (exc.value.path, exc.value.line) == (path, expect), str(exc.value)
    else:
        np.testing.assert_array_equal(load_matrix(path).data, expect)


@pytest.mark.parametrize("newline", ["\r", "\n"])
def test_count_mismatch_names_the_last_line(tmp_path, newline):
    # a CR-only file, and one with no final newline, whose last line is 5
    text = newline.join([MM_HEADER, "% c", "2 2 3", "1 1 1.5", "2 2 -1"])
    path = tmp_path / "n.mtx"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ParseError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"{path}:5: size line declared 3 entries but file has 2"


def test_duplicate_cells_add_in_file_order(tmp_path):
    # (1e16 + 1) - 1e16 is 0.0 in file order, 1.0 in any order that adds 1 last
    x = load_matrix(_write(tmp_path, "d.mtx", f"{MM_HEADER}\n2 2 3\n1 2 1e16\n1 2 1\n1 2 -1e16\n"))
    expected = _scatter(SparseCOO(2, 2, [0, 0, 0], [1, 1, 1], [1e16, 1.0, -1e16]))
    assert x.data.tobytes() == expected.tobytes()
    assert x.data[0, 1] == 0.0


def test_loader_reads_the_body_by_name_and_builds_no_coo(tmp_path, monkeypatch):
    sources, coos = [], []
    loadtxt, post_init = np.loadtxt, SparseCOO.__post_init__

    def recording_loadtxt(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    def recording_post_init(self):
        coos.append(self)
        post_init(self)

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    monkeypatch.setattr(SparseCOO, "__post_init__", recording_post_init)
    path = _write(tmp_path, "a.mtx", f"{MM_HEADER}\n% c\n2 2 2\n1 1 1.5\n2 1 -2\n")
    np.testing.assert_array_equal(load_matrix(path).data, [[1.5, 0.0], [-2.0, 0.0]])
    assert sources == [str(path)] and coos == []


def test_compressed_suffix_is_read_as_plain_text(tmp_path):
    # numpy's reader would open a name ending in .gz with gzip
    path = _write(tmp_path, "x.gz", f"{MM_HEADER}\n2 2 1\n2 2 3.5\n")
    np.testing.assert_array_equal(load_matrix(path, fmt="matrix-market").data, [[0.0, 0.0], [0.0, 3.5]])


def test_url_shaped_relative_name_is_read_from_disk(tmp_path, monkeypatch):
    # numpy's reader fetches a name of the form scheme://host/... as a URL;
    # should the loader ever hand it one, the fetch fails here, offline
    def no_fetch(url, *args, **kwargs):
        raise AssertionError(f"fetched {url!r}")

    monkeypatch.setattr("urllib.request.urlopen", no_fetch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "a.mtx").write_text(f"{MM_HEADER}\n1 2 1\n1 2 -4\n")
    np.testing.assert_array_equal(load_matrix("http://host/a.mtx").data, [[0.0, -4.0]])


def test_dot_dot_after_a_symbolic_link_names_the_linked_file(tmp_path, monkeypatch):
    # link/../x.mtx is real/x.mtx, not the x.mtx beside link, which a
    # normalized name would read the body from
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real" / "sub").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
    (tmp_path / "real" / "x.mtx").write_text(f"{MM_HEADER}\n1 2 1\n1 1 7\n")
    (tmp_path / "x.mtx").write_text(f"{MM_HEADER}\n1 2 1\n1 2 9\n")
    np.testing.assert_array_equal(load_matrix("link/../x.mtx").data, [[7.0, 0.0]])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_read_through_its_open_file():
    # a pipe cannot be read again from its start by name
    r, w = os.pipe()
    try:
        os.write(w, f"{MM_HEADER}\n2 2 2\n1 1 1.5\n2 2 -1\n".encode("ascii"))
        os.close(w)
        x = load_matrix(f"/dev/fd/{r}", fmt="matrix-market")
    finally:
        os.close(r)
    np.testing.assert_array_equal(x.data, [[1.5, 0.0], [0.0, -1.0]])


_JUNK = st.lists(st.sampled_from(["", "%", "% note", "  \t", "%%x 1 2"]), max_size=2)


@st.composite
def _mm_texts(draw):
    """A Matrix Market file of up to 12 entries, duplicates included, with its
    triples: LF, CRLF or CR endings, fields split by spaces and tabs, comment
    and blank lines before and after the size line and between entries, and
    trailing comments."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    vals = draw(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([5e-324, -0.0, 1e16, -1e16]), min_size=k, max_size=k))
    sep = st.sampled_from([" ", "\t", " \t ", "  "])
    tail = st.sampled_from(["", " ", "\t", " % c"])
    lines = [MM_HEADER, *draw(_JUNK), f"{m}{draw(sep)}{n}{draw(sep)}{k}{draw(tail)}", *draw(_JUNK)]
    for i, j, v in zip(rows, cols, vals):
        lines += [f"{draw(sep)}{i + 1}{draw(sep)}{j + 1}{draw(sep)}{v!r}{draw(tail)}", *draw(_JUNK)]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, SparseCOO(m, n, rows, cols, vals)


@settings(max_examples=150, deadline=None)
@given(case=_mm_texts())
def test_matrix_market_loads_as_the_coo_of_its_triples(tmp_path_factory, case):
    text, coo = case
    path = tmp_path_factory.mktemp("mm") / "h.mtx"
    path.write_bytes(text.encode("ascii"))
    assert load_matrix(path).data.tobytes() == coo_to_dense(coo).data.tobytes()


def test_float_index_refused_under_any_warning_filters(tmp_path, monkeypatch):
    # numpy 1.23-1.26 read "1.0" in an int64 field as 1 and only warn; the
    # loader must refuse it even where the caller ignores every warning
    def truncating_loadtxt(fh, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([(1, 1, 1.5)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = _write(tmp_path, "f.mtx", f"{MM_HEADER}\n2 3 1\n1.0 1 1.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
    assert exc.value.line == 3

def test_matrix_market_size_line_edges(tmp_path):
    # the size line follows the body's rules: trailing comment yes, '_' no
    x = load_matrix(_write(tmp_path, "c.mtx", f"{MM_HEADER}\n2 2 1 % rows cols nnz\n2 1 3\n"))
    np.testing.assert_array_equal(x.data, [[0.0, 0.0], [3.0, 0.0]])
    for size in ("2 2_0 1", "2 2", "2 2 1 1", "2.0 2 1"):
        with pytest.raises(ParseError) as exc:
            load_matrix(_write(tmp_path, "s.mtx", f"{MM_HEADER}\n\n{size}\n1 1 3\n"))
        assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "big.mtx", f"{MM_HEADER}\n{10**10} {10**10} 1\n1 1 3\n"))
    assert exc.value.line == 2 and "more than 2**63 - 1 cells" in str(exc.value)
    # rows and cols below 1 are refused at the size line, not by the matrix built from it
    for size, shape in (("0 0 0", "(0, 0)"), ("-3 3 0", "(-3, 3)")):
        path = _write(tmp_path, "empty.mtx", f"{MM_HEADER}\n{size}\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}:2: matrix dimensions must be >= 1, got {shape}"
    # so is a negative nnz, at its own line rather than as a count mismatch at the last
    for body in ("", "1 1 3\n"):
        path = _write(tmp_path, "negative-nnz.mtx", f"{MM_HEADER}\n2 2 -1\n{body}")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}:2: entry count must be >= 0, got -1"
    with pytest.raises(ParseError) as exc:
        load_matrix(_write(tmp_path, "none.mtx", f"{MM_HEADER}\n% no size line\n"))
    assert exc.value.line == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_matrix_market_non_finite_value(tmp_path, value):
    with pytest.raises(NonFiniteError):
        load_matrix(_write(tmp_path, "f.mtx", f"{MM_HEADER}\n2 2 2\n1 1 1.0\n2 2 {value}\n"))


@pytest.mark.parametrize("name, head", [("u.mtx", f"{MM_HEADER}\n2 2 1\n1 1 2.5 % "), ("u.csv", "1,2\n3,")])
def test_non_ascii_file_is_a_parse_error(tmp_path, name, head):
    path = tmp_path / name
    path.write_bytes(head.encode() + "\u00e9\n".encode("utf-8"))
    with pytest.raises(ParseError, match="not ASCII") as exc:
        load_matrix(path)
    assert exc.value.path == path


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
    # float() reads '1_0' as 10, but a CSV field is a plain decimal, as a .mtx field is
    path = _write(tmp_path, "sep.csv", "1,2\n1_0,2\n")
    with pytest.raises(ParseError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"{path}:2: malformed number in '1_0,2'"


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


@pytest.mark.parametrize(
    "rows, cols, vals, canonical, body",
    [
        # cells already sorted and unique, as a sketch's are: written as given
        ([0, 0, 1], [0, 2, 1], [1.5, -2.0, 1e-300], True, "3\n1 1 1.5\n1 3 -2.0\n2 2 1e-300\n"),
        # unsorted with a repeated cell: summed, then written in (row, col) order
        ([1, 0, 0, 1], [1, 2, 0, 1], [0.25, -2.0, 1.5, 0.75], False, "3\n1 1 1.5\n1 3 -2.0\n2 2 1.0\n"),
        # sorted, but a cell repeats: still summed
        ([0, 0, 1, 1], [0, 2, 1, 1], [1.5, -2.0, 0.25, 0.75], False, "3\n1 1 1.5\n1 3 -2.0\n2 2 1.0\n"),
    ],
    ids=["sorted-unique", "duplicates", "sorted-duplicates"],
)
def test_matrix_market_bytes_of_canonical_and_duplicate_coo(tmp_path, rows, cols, vals, canonical, body):
    coo = SparseCOO(2, 3, rows, cols, vals)
    assert (coo.canonicalize() is coo) is canonical
    path = tmp_path / "coo.mtx"
    write_matrix_market(path, coo)
    assert path.read_text() == f"{MM_HEADER}\n2 3 {body}"


def test_matrix_market_writer_streams_in_chunks(tmp_path, monkeypatch):
    coo = SparseCOO(3, 4, [2, 0, 1, 0, 2, 1, 0], [3, 0, 2, 1, 1, 0, 3], [0.1, -2.5, 1e-300, 7.0, 3.25, -1e300, 5e-324])
    one = coo.canonicalize()
    expected = "%%MatrixMarket matrix coordinate real general\n3 4 7\n" + "".join(
        f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(one.rows.tolist(), one.cols.tolist(), one.vals.tolist())
    )
    monkeypatch.setattr(elemsparse.io, "_WRITE_CHUNK", 3)  # three writes: 3 + 3 + 1 entries
    path = tmp_path / "chunked.mtx"
    write_matrix_market(path, coo)
    assert path.read_text() == expected


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _coos(draw):
    """A COO of up to 40 distinct cells in any order, every float edge
    included: signed zeros, subnormals and magnitudes up to 1e300. Distinct
    cells, as repeats would be summed and two large ones overflow."""
    m, n = draw(st.integers(1, 600)), draw(st.integers(1, 600))
    cells = draw(st.lists(st.integers(0, m * n - 1), max_size=min(40, m * n), unique=True))
    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300])
    vals = draw(st.lists(_FINITE | edges, min_size=len(cells), max_size=len(cells)))
    return SparseCOO(m, n, [c // n for c in cells], [c % n for c in cells], vals)


@settings(max_examples=100, deadline=None)
@given(coo=_coos(), chunk=st.integers(1, 8))
def test_matrix_market_body_is_the_f_string_formula(tmp_path_factory, coo, chunk):
    # the text of a per-entry f"{i + 1} {j + 1} {v!r}" writer over the
    # canonical COO, in whatever chunks the body is written
    one = coo.canonicalize()
    expected = f"%%MatrixMarket matrix coordinate real general\n{one.m} {one.n} {one.nnz}\n" + "".join(
        f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(one.rows.tolist(), one.cols.tolist(), one.vals.tolist())
    )
    path = tmp_path_factory.mktemp("mm") / "coo.mtx"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elemsparse.io, "_WRITE_CHUNK", chunk)
        write_matrix_market(path, coo)
    assert path.read_text() == expected


@settings(max_examples=80, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=_FINITE | st.just(0.0)))
def test_matrix_market_round_trip_is_bit_identical(tmp_path_factory, a):
    x = DenseMatrix(a + 0.0)  # -0.0 is a zero and is not written; +0.0 reads back
    path = tmp_path_factory.mktemp("rt") / "x.mtx"
    write_matrix_market(path, x)
    assert load_matrix(path).data.tobytes() == x.data.tobytes()


@settings(max_examples=80, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=_FINITE))
def test_csv_round_trip_is_bit_identical(tmp_path_factory, a):
    x = DenseMatrix(a)
    path = tmp_path_factory.mktemp("rt") / "x.csv"
    write_csv(path, x)
    # the text of a per-scalar repr(float(v)) writer, and every bit back, -0.0 included
    assert path.read_text() == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x.data)
    assert load_matrix(path).data.tobytes() == x.data.tobytes()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    x = DenseMatrix(rng.standard_normal((3, 5)))
    path = tmp_path / "rt.csv"
    write_csv(path, x)
    back = load_matrix(path)
    np.testing.assert_array_equal(back.data, x.data)
