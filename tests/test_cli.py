import contextlib
import gc
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemsparse import (
    BoundRequest,
    GeneratorSpec,
    frobenius_norm,
    generate_matrix,
    hybrid_distribution,
    load_matrix,
    sparsify,
    stable_rank,
)
from elemsparse import experiment, matrix
from elemsparse.bounds import sample_size_theorem1, sample_size_unsimplified
from elemsparse.cli import main
from elemsparse.matrix import coo_to_dense


def _run(argv) -> tuple:
    """main(argv) in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _assert_ok_or_one_error_line(rc, out, err) -> None:
    if rc == 0:
        assert err == ""
    else:
        assert rc == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("elemsparse: error:"), err


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--dist", "l3", "--generate", "gaussian,3,3,1", "--epsilon", "1"])
    assert exc.value.code == 1
    # a sampling run takes beta from its distribution; only bounds takes --beta
    for command in ("sparsify", "experiment", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--generate", "gaussian,3,3,1", "--epsilon", "1", "--beta", "0.5", "--out", "o"])
        assert exc.value.code == 1


def test_source_is_required_and_exclusive(tmp_path, capsys):
    assert main(["experiment", "--epsilon", "1", "--s", "5"]) == 1
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3,4\n")
    assert (
        main([
            "experiment", "--input", str(path), "--generate", "gaussian,2,2,1",
            "--epsilon", "1", "--s", "5",
        ])
        == 1
    )


def test_missing_input_file_exits_one(tmp_path, capsys):
    assert main(["sparsify", "--input", str(tmp_path / "nope.csv"), "--s", "5",
                 "--out", str(tmp_path / "o.mtx")]) == 1


def test_sparsify_writes_matrix_market(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("3,4\n0,0\n")
    out = tmp_path / "sk.mtx"
    assert main(["sparsify", "--input", str(src), "--s", "9", "--seed", "4",
                 "--out", str(out)]) == 0
    sk = load_matrix(out)
    assert sk.shape == (2, 2)
    assert np.count_nonzero(sk.data) <= 2


def test_sparsify_seed_is_reduced_mod_2_64(tmp_path, capsys):
    # one seed rule on every draw path: the CLI's sketch at 2^64 + 3 is
    # sparsify's at 2^64 + 3 and the CLI's at 3
    expected = coo_to_dense(sparsify(generate_matrix(GeneratorSpec("gaussian", 6, 5, 1)), 40, 2**64 + 3).matrix)
    for seed in (2**64 + 3, 3):
        out = tmp_path / f"{seed}.mtx"
        assert main(["sparsify", "--generate", "gaussian,6,5,1", "--s", "40", "--seed", str(seed),
                     "--out", str(out)]) == 0
        np.testing.assert_array_equal(load_matrix(out).data, expected.data)


def test_sparsify_draws_a_billion_cells_at_once(tmp_path, capsys):
    # each Poisson stage costs O(mn) and leaves about 2 sqrt(s) draws, so
    # s = 10^9 takes a few stages and returns at once
    out = tmp_path / "sk.mtx"
    assert main(["sparsify", "--generate", "gaussian,4,5,1", "--s", str(10**9), "--out", str(out)]) == 0
    x = generate_matrix(GeneratorSpec("gaussian", 4, 5, 1))
    implied = load_matrix(out).data * 10**9 * hybrid_distribution(x).grid() / x.data
    counts = np.rint(implied)
    assert np.max(np.abs(implied - counts)) < 1e-3
    assert int(counts.sum()) == 10**9


def test_sparsify_csv_output_and_bound_derived_s(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("3,4\n0,0\n")
    out = tmp_path / "sk.csv"
    assert main(["sparsify", "--input", str(src), "--epsilon", "2.5", "--delta", "0.2",
                 "--out", str(out), "--out-format", "csv"]) == 0
    assert load_matrix(out).shape == (2, 2)


def test_sparsify_needs_s_or_epsilon(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("1,2\n3,4\n")
    assert main(["sparsify", "--input", str(src), "--out", str(tmp_path / "o.mtx")]) == 1


def test_bounds_matches_library(capsys):
    assert main(["bounds", "--m", "100", "--n", "100", "--epsilon", "1",
                 "--delta", "0.1", "--frobenius", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    req = BoundRequest(100, 100, 1.0, 0.1, 1.0, 10.0)
    assert doc["report"]["s_theorem1"] == sample_size_theorem1(req)[0] == 456055
    assert doc["report"]["s_unsimplified"] == sample_size_unsimplified(req) == 319238
    assert doc["report"]["s_corollary"] is None
    assert doc["schema_version"] == 3


def test_bounds_with_stable_rank_and_epsilon_rel(capsys):
    assert main(["bounds", "--m", "100", "--n", "100", "--epsilon-rel", "0.5",
                 "--delta", "0.1", "--frobenius", "10", "--stable-rank", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["s_corollary"] == 182422


def test_bounds_from_file(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("3,4\n0,0\n")
    assert main(["bounds", "--input", str(src), "--epsilon", "2", "--delta", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["request"]["frobenius"] == pytest.approx(5.0, rel=1e-12)
    assert doc["request"]["stable_rank"] == pytest.approx(1.0, rel=1e-6)
    assert doc["report"]["gamma"] == pytest.approx(30.0, rel=1e-12)


def test_bounds_from_generator(capsys, monkeypatch):
    # one sum of the squares gives both ||X||_F and the stable rank
    sums = []
    squares = matrix._squares
    monkeypatch.setattr(matrix, "_squares", lambda flat: sums.append(flat.size) or squares(flat))
    assert main(["bounds", "--generate", "low-rank-plus-noise,20,30,2", "--epsilon-rel", "0.5"]) == 0
    monkeypatch.undo()
    assert sums == [600]
    doc = json.loads(capsys.readouterr().out)
    x = generate_matrix(GeneratorSpec("low-rank-plus-noise", 20, 30, 2))
    assert (doc["request"]["m"], doc["request"]["n"]) == (20, 30)
    assert doc["request"]["frobenius"] == frobenius_norm(x)
    assert doc["request"]["stable_rank"] == stable_rank(x)
    assert doc["request"]["epsilon"] == 0.5 * frobenius_norm(x)
    assert doc["report"]["s_corollary"] >= 1


@pytest.mark.parametrize(
    "args",
    [["--generate", "gaussian,30,30,1"], ["--m", "30", "--n", "30", "--frobenius", "10", "--stable-rank", "2"]],
    ids=["generate", "numbers"],
)
def test_bounds_leaves_corollary_null_below_its_hypothesis(capsys, args):
    # sr < epsilon_rel^2 = 100: the corollary does not apply, every other form does
    assert main(["bounds", *args, "--epsilon-rel", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["request"]["stable_rank"] < 100
    assert doc["report"]["s_corollary"] is None
    req = BoundRequest(**{k: v for k, v in doc["request"].items() if k != "epsilon_rel"})
    assert doc["report"]["s_theorem1"] == sample_size_theorem1(req)[0]
    assert doc["report"]["s_unsimplified"] == sample_size_unsimplified(req)


def test_bounds_has_no_sample_flags(capsys):
    # bounds lists every form, so the flags that pick one s are not taken
    for flag in (["--s", "5"], ["--bound-form", "corollary"]):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--generate", "gaussian,4,4,1", "--epsilon-rel", "0.5", *flag])
        assert exc.value.code == 1


def test_bounds_requires_epsilon(capsys):
    assert main(["bounds", "--m", "5", "--n", "5", "--frobenius", "2"]) == 1


def test_experiment_stdout_json_and_exit_codes(capsys):
    rc = main(["experiment", "--generate", "gaussian,6,6,2", "--epsilon-rel", "0.9",
               "--s", "150", "--trials", "3", "--seed", "8", "--delta", "0.5"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "experiment"
    assert len(doc["result"]["errors"]) == 3
    assert rc in (0, 2)
    assert (rc == 0) == doc["result"]["passed"]


def test_experiment_violation_exits_two(capsys):
    rc = main(["experiment", "--generate", "gaussian,6,6,2", "--epsilon", "0.0001",
               "--s", "3", "--trials", "4", "--delta", "0.1"])
    assert rc == 2


def _jobs_outputs(tmp_path, monkeypatch, solves, args) -> list:
    """The command's JSON at --jobs 1, 2 and 3 without wall_times, which
    hold one positive time per trial (per kind for compare), where fork is
    unsafe, so that every --jobs runs one worker, and then on forked workers
    (CPython 3.12 and later warn when a process with a BLAS pool thread
    forks; a pinned fork is meant)."""
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(4)))
    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
    texts = []
    for forked in (False, True):
        monkeypatch.setattr(experiment, "_fork_safe", lambda: forked)
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"{args[0]}-{jobs}-{forked}.json"
            del solves[:]
            assert main(args + ["--trials", "8", "--jobs", jobs, "--out", str(out)]) in (0, 2)
            doc = json.loads(out.read_text())
            walls = doc.pop("wall_times")
            per_kind = walls.values() if isinstance(walls, dict) else [walls]
            for kind_walls in per_kind:
                assert len(kind_walls) == 8
                assert all(wall > 0.0 for wall in kind_walls)
            if not forked:  # one worker, whatever --jobs
                assert solves == [True] * 8 * len(per_kind)
            texts.append(json.dumps(doc, sort_keys=True))
    return texts


def test_experiment_jobs_byte_identical(tmp_path, capsys, monkeypatch, solves):
    texts = _jobs_outputs(tmp_path, monkeypatch, solves, [
        "experiment", "--generate", "gaussian,10,12,5", "--dist", "l1",
        "--epsilon-rel", "0.7", "--delta", "0.4", "--s", "120", "--seed", "31",
    ])
    assert len(texts) == 6 and len(set(texts)) == 1


def test_compare_jobs_byte_identical(tmp_path, capsys, monkeypatch, solves):
    texts = _jobs_outputs(tmp_path, monkeypatch, solves, [
        "compare", "--generate", "gaussian,10,12,6", "--epsilon-rel", "0.7", "--s", "120", "--seed", "17",
    ])
    assert len(texts) == 6 and len(set(texts)) == 1


def test_experiment_writes_json(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["experiment", "--generate", "gaussian,8,10,21", "--epsilon", "4", "--delta", "0.5",
                 "--s", "60", "--trials", "2", "--seed", "5", "--out", str(out)]) in (0, 2)
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3
    assert len(doc["wall_times"]) == 2


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "res.csv"
    args = ["experiment", "--generate", "gaussian,8,10,21", "--epsilon", "4", "--delta", "0.5",
            "--s", "60", "--trials", "3", "--seed", "5", "--out-format", "csv"]
    assert main(args + ["--out", str(out)]) in (0, 2)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,error,wall_time"
    assert len(lines) == 4
    capsys.readouterr()
    # without --out the same table goes to stdout
    assert main(args) in (0, 2)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "trial,seed,error,wall_time"
    assert len(lines) == 4


def test_compare_csv_rows(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--generate", "power-law,6,5,3", "--epsilon", "4",
                 "--s", "40", "--trials", "4", "--out", str(out),
                 "--out-format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("kind,trial,seed,error")
    assert len(lines) == 1 + 3 * 4


def test_bad_out_format_exits_one(capsys):
    for command in ("experiment", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--generate", "gaussian,4,4,1", "--epsilon", "1", "--s", "5",
                  "--out-format", "yaml"])
        assert exc.value.code == 1


def test_compare_stdout_json(capsys):
    assert main(["compare", "--generate", "binary,4,4,9", "--epsilon", "2",
                 "--s", "30", "--trials", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "compare"
    assert len(doc["result"]["kinds"]) == 3


def test_module_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "elemsparse", "bounds", "--m", "10", "--n", "10",
         "--epsilon", "1", "--delta", "0.1", "--frobenius", "3"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["report"]["s_theorem1"] >= 1


def _without_wall_times(text: str) -> str:
    if not text.startswith("{"):
        return text
    doc = json.loads(text)
    doc.pop("wall_times", None)
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bounds", "--m", "10", "--n", "10", "--epsilon", "1", "--delta", "0.1", "--frobenius", "3"], 0),
        (["bounds", "--m", "5", "--n", "5", "--frobenius", "2"], 1),
        (["experiment", "--generate", "gaussian,6,6,2", "--epsilon", "0.0001", "--s", "3", "--trials", "4"], 2),
    ],
    ids=["ok", "error", "violation"],
)
def test_module_exits_as_main_returns(argv, code):
    # python -m elemsparse freezes the collector once main returns, so the
    # exit makes no collection pass; its exit code and output are main's,
    # and main itself leaves a library caller's collector as it was
    res = subprocess.run([sys.executable, "-m", "elemsparse", *argv], capture_output=True, text=True)
    frozen = gc.get_freeze_count()
    rc, out, err = _run(argv)
    assert gc.get_freeze_count() == frozen
    assert res.returncode == rc == code
    assert (_without_wall_times(res.stdout), res.stderr) == (_without_wall_times(out), err)
    assert res.stdout if code != 1 else res.stderr


_MTX_HEADER = "%%MatrixMarket matrix coordinate real general\n"


_BOUNDS_NUMBERS = ["bounds", "--m", "9", "--n", "9", "--frobenius", "3"]
_SAMPLING = tuple([cmd, "--generate", "gaussian,4,5,1"] for cmd in ("sparsify", "experiment", "compare"))
_TINY = "1e-200,2e-200\n3e-200,0\n"
_HUGE = "1e200,2e200\n3e200,0\n"
# the l2 share of the 1e-200 cell underflows to 0, so its l2 certificate is 0
_TINY_CELL = "1e-200,2\n3,0\n"
# both shares of the subnormal cell underflow to 0, so every certificate is 0
_SUBNORMAL = "5e-324,1\n1,0\n"
# 10^18 cells ask for 6.94 EiB, beyond any 64-bit address space: the
# allocation fails at once and touches no memory
_GIANT = "1000000000"
# 10^20 cells: flat cell indices are int64, so the size is refused before any allocation
_PAST_INT64 = "10000000000"


@pytest.mark.parametrize(
    "name, text, args, expect",
    [
        pytest.param("x.csv", "1,2\nnan,3\n", ["sparsify", "--s", "5"], "finite", id="nan-csv"),
        pytest.param("x.mtx", _MTX_HEADER + "2 2 2\n1 1 1.5\n2 2 inf\n", ["sparsify", "--s", "5"], "finite",
                     id="inf-mtx"),
        pytest.param("x.mtx", _MTX_HEADER + "1 1 1\n1 1 2.5 % caf\u00e9\n", ["sparsify", "--s", "5"], "not ASCII",
                     id="non-ascii-mtx"),
        # run with the interpreter's default warning filters, under which a
        # float index must still be refused, not truncated
        pytest.param("x.mtx", _MTX_HEADER + "2 2 1\n1.5 1 2\n", ["sparsify", "--s", "5"], "x.mtx:3: malformed entry",
                     id="float-index-mtx"),
        pytest.param(None, None, ["sparsify", "--generate", "gaussian,20,20,1", "--s", "10", "--seed", "-1"],
                     "--seed", id="negative-seed"),
        # the stable rank of this matrix is about 7.7, so the corollary does not cover epsilon_rel = 10
        pytest.param(None, None, ["experiment", "--generate", "gaussian,30,30,1", "--bound-form", "corollary",
                                  "--epsilon-rel", "10", "--trials", "2"], "is below epsilon_rel^2 = 100.0",
                     id="experiment-corollary-hypothesis"),
        # a certificate of 0 is refused whether s is sized or given
        *[
            pytest.param("x.csv", _TINY_CELL, [cmd, "--dist", "l2", *target],
                         "l2 distribution gives the nonzero entry x[0, 0] = 1e-200 probability 0 (its share "
                         "underflows), so no beta certifies it; use the hybrid or l1 distribution\n", id=case)
            for case, cmd, target in (
                ("sparsify-l2-underflow", "sparsify", ["--epsilon-rel", "0.5"]),
                ("experiment-l2-underflow", "experiment", ["--epsilon-rel", "0.5"]),
                ("sparsify-l2-underflow-s", "sparsify", ["--s", "10"]),
            )
        ],
        # both shares of a subnormal entry underflow, so every distribution starves it
        *[
            pytest.param("x.csv", _SUBNORMAL, [cmd, "--dist", dist, *target],
                         f"the {dist} distribution gives the nonzero entry x[0, 0] = 5e-324 probability 0 "
                         "(its share underflows), so no beta certifies it\n", id=case)
            for case, cmd, dist, target in (
                ("sparsify-hybrid-subnormal-s", "sparsify", "hybrid", ["--s", "10"]),
                ("sparsify-l1-subnormal-s", "sparsify", "l1", ["--s", "10"]),
                ("experiment-hybrid-subnormal", "experiment", "hybrid", ["--epsilon-rel", "0.5"]),
            )
        ],
        # sample counts are int64, whether s is given or sized (here s is about 6.0e26)
        *[
            pytest.param(None, None, [cmd, "--generate", "gaussian,4,5,1", *size],
                         "is more than 2**63 - 1", id=case)
            for case, cmd, size in (
                ("sparsify-s-past-int64", "sparsify", ["--s", str(2**63)]),
                ("sparsify-sized-s-past-int64", "sparsify", ["--epsilon", "1e-12"]),
                ("experiment-s-past-int64", "experiment", ["--epsilon", "1", "--s", str(2**63)]),
            )
        ],
        pytest.param("x.mtx", _MTX_HEADER + f"{_GIANT} {_GIANT} 1\n1 1 2.5\n", ["sparsify", "--s", "5"],
                     "out of memory", id="giant-mtx-header"),
        pytest.param(None, None, ["sparsify", "--generate", f"gaussian,{_GIANT},{_GIANT},1", "--s", "5"],
                     "out of memory", id="giant-generate"),
        pytest.param("x.mtx", _MTX_HEADER + f"{_PAST_INT64} {_PAST_INT64} 1\n1 1 2.5\n", ["sparsify", "--s", "5"],
                     "x.mtx:2: a 10000000000x10000000000 matrix has more than 2**63 - 1 cells",
                     id="mtx-size-past-int64"),
        # a bad --generate spec ends in the same one line, whichever command reads it
        *[
            pytest.param(None, None, [cmd, "--generate", spec, *rest], expect, id=f"{cmd}-generate-{case}")
            for case, cmd, rest, spec, expect in (
                ("three-fields", "bounds", ["--epsilon", "1"], "gaussian,3,3",
                 "--generate wants KIND,M,N,SEED, got 'gaussian,3,3'"),
                ("unknown-kind", "experiment", ["--epsilon", "1", "--s", "5"], "mystery,3,3,1",
                 "--generate 'mystery,3,3,1': unknown generator kind 'mystery'"),
                ("word-size", "compare", ["--epsilon", "1", "--s", "5"], "gaussian,3,a,1",
                 "--generate 'gaussian,3,a,1': invalid literal"),
                ("past-int64", "sparsify", ["--s", "5"], f"gaussian,{_PAST_INT64},{_PAST_INT64},1",
                 f"a {_PAST_INT64}x{_PAST_INT64} matrix has more than 2**63 - 1 cells"),
                ("negative-seed", "bounds", ["--epsilon", "1"], "gaussian,3,3,-1",
                 "--generate 'gaussian,3,3,-1': seed must be a nonnegative integer"),
            )
        ],
        # the zero matrix is refused in the same one line, whichever command reads it
        *[
            pytest.param("z.csv", "0,0\n0,0\n", args,
                         "elemsparse: error: sampling distributions, bounds and stable rank are undefined "
                         "for the zero matrix\n", id=f"{args[0]}-zero")
            for args in (
                ["bounds", "--epsilon", "1"],
                ["sparsify", "--s", "5"],
                ["experiment", "--epsilon", "1", "--s", "5", "--trials", "2"],
                ["compare", "--epsilon-rel", "0.5", "--trials", "2"],
            )
        ],
        # each rule on s, delta, epsilon_rel and the bound form has one owner, so
        # every command that takes the flag prints the same line
        *[
            pytest.param(None, None, [*where, *args], f"elemsparse: error: {expect}\n", id=f"{where[0]}-{case}")
            for case, expect, args, wheres in (
                ("s-0", "s must be a positive integer", ["--s", "0", "--epsilon", "1"], _SAMPLING),
                ("delta-1", "delta must lie in (0, 1), got 1.0", ["--delta", "1", "--epsilon", "1"],
                 (*_SAMPLING, _BOUNDS_NUMBERS)),
                ("corollary-epsilon", "bound_form=corollary needs epsilon_rel, not an absolute epsilon",
                 ["--bound-form", "corollary", "--epsilon", "1"], _SAMPLING),
                ("epsilon-rel-negative", "epsilon_rel must be positive and finite, got -1.0", ["--epsilon-rel", "-1"],
                 (*_SAMPLING, _BOUNDS_NUMBERS)),
            )
            for where in wheres
        ],
        # a harness run needs an error target even at a given s; "not both" is
        # refused when the run plans, with the line sparsify and bounds print
        *[
            pytest.param(None, None, [*where, *args], f"elemsparse: error: {expect}\n", id=case)
            for case, where, args, expect in (
                ("experiment-both-targets", _SAMPLING[1], ["--epsilon", "1", "--epsilon-rel", "0.5"],
                 "give one of epsilon and epsilon_rel, not both"),
                ("compare-both-targets", _SAMPLING[2], ["--epsilon", "1", "--epsilon-rel", "0.5"],
                 "give one of epsilon and epsilon_rel, not both"),
                ("experiment-s-without-target", _SAMPLING[1], ["--s", "10"],
                 "one of epsilon and epsilon_rel is required"),
                ("bounds-no-matrix", ["bounds"], ["--m", "10", "--epsilon-rel", "0.5"],
                 "bounds needs --input, --generate or all of --m/--n/--frobenius"),
            )
        ],
        # --m/--n/--frobenius/--stable-rank describe a matrix that --input/--generate already give
        pytest.param(None, None, ["bounds", "--generate", "gaussian,20,30,2", "--epsilon-rel", "0.5",
                                  "--stable-rank", "3", "--m", "7"], "--m/--stable-rank", id="bounds-generate-m"),
        pytest.param("x.csv", "1,2\n3,4\n", ["bounds", "--epsilon-rel", "0.5", "--stable-rank", "3"],
                     "--stable-rank", id="bounds-input-stable-rank"),
        # squares that underflow to 0 or overflow to inf leave no distribution
        *[
            pytest.param("x.csv", text, args, "float range", id=f"{args[0]}-{size}")
            for size, text in (("tiny", _TINY), ("huge", _HUGE))
            for args in (
                ["sparsify", "--epsilon-rel", "0.5"],
                ["experiment", "--epsilon-rel", "0.5", "--trials", "2"],
                ["compare", "--epsilon-rel", "0.5", "--bound-form", "corollary", "--trials", "2"],
                ["bounds", "--epsilon-rel", "0.5"],
            )
        ],
        *[
            pytest.param(None, None, args, expect, id=case)
            for case, args, expect in (
                ("bounds-beta-2", _BOUNDS_NUMBERS + ["--epsilon", "1", "--beta", "2"], "beta"),
                ("bounds-frobenius-0", ["bounds", "--m", "9", "--n", "9", "--frobenius", "0", "--epsilon", "1"],
                 "frobenius"),
                ("bounds-delta-2", _BOUNDS_NUMBERS + ["--epsilon", "1", "--delta", "2"], "delta"),
                ("bounds-m-0", ["bounds", "--m", "0", "--n", "9", "--frobenius", "3", "--epsilon", "1"],
                 "dimensions"),
                ("bounds-epsilon-nan", _BOUNDS_NUMBERS + ["--epsilon", "nan"], "epsilon"),
                ("bounds-frobenius-inf", ["bounds", "--m", "9", "--n", "9", "--frobenius", "inf", "--epsilon", "1"],
                 "frobenius"),
                ("bounds-stable-rank-inf", _BOUNDS_NUMBERS + ["--stable-rank", "inf", "--epsilon-rel", "0.5"],
                 "stable_rank"),
                ("experiment-epsilon-inf", ["experiment", "--generate", "gaussian,5,5,1", "--epsilon", "inf"],
                 "epsilon"),
                ("sparsify-epsilon-inf", ["sparsify", "--generate", "gaussian,5,5,1", "--epsilon", "inf"],
                 "epsilon"),
            )
        ],
    ],
)
def test_bad_input_exits_one_with_one_error_line(tmp_path, request, name, text, args, expect):
    argv = [*args, "--out", str(tmp_path / "o.mtx")]
    if name is not None:
        (tmp_path / name).write_text(text)
        argv += ["--input", str(tmp_path / name)]
    if request.node.callspec.id == "float-index-mtx":  # needs the default warning filters
        res = subprocess.run([sys.executable, "-m", "elemsparse", *argv], capture_output=True, text=True)
        rc, out, err = res.returncode, res.stdout, res.stderr
    else:
        rc, out, err = _run(argv)
    assert rc == 1
    assert "Traceback" not in out + err
    _assert_ok_or_one_error_line(rc, out, err)
    assert expect in err


@pytest.mark.parametrize(
    "args, names_s",
    [
        (["bounds", "--m", "5", "--n", "5", "--frobenius", "1", "--epsilon", "1", "--epsilon-rel", "1"], False),
        (["bounds", "--m", "5", "--n", "5", "--frobenius", "1"], False),
        (["sparsify", "--generate", "gaussian,4,5,1", "--epsilon", "1", "--epsilon-rel", "1", "--s", "5"], False),
        (["sparsify", "--generate", "gaussian,4,5,1"], True),
    ],
    ids=["bounds-both", "bounds-neither", "sparsify-both-with-s", "sparsify-neither"],
)
def test_error_target_message_names_s_only_where_it_applies(tmp_path, args, names_s):
    rc, out, err = _run([*args, "--out", str(tmp_path / "o.mtx")])
    assert rc == 1
    _assert_ok_or_one_error_line(rc, out, err)
    assert "epsilon and epsilon_rel" in err
    assert bool(re.search(r"\bs\b", err)) == names_s, err


# normal, zero, negative, nan, +-inf, tiny and huge. m and n take the integer
# members of that set: a non-integer --m is a usage error, which argparse
# reports by raising SystemExit(1) (see test_usage_errors_exit_one).
_FLOAT_VALUES = ("2.5", "0", "-1.5", "nan", "inf", "-inf", "1e-300", "1e300")
_INT_VALUES = ("7", "0", "-3", str(10**300))


def _maybe(values):
    return st.one_of(st.none(), st.sampled_from(values))


@settings(max_examples=300, deadline=None)
@given(
    m=st.sampled_from(_INT_VALUES),
    n=st.sampled_from(_INT_VALUES),
    target=st.sampled_from(("--epsilon", "--epsilon-rel")),
    epsilon=st.sampled_from(_FLOAT_VALUES),
    delta=_maybe(_FLOAT_VALUES + ("0.1",)),
    beta=_maybe(_FLOAT_VALUES + ("0.5",)),
    frobenius=st.sampled_from(_FLOAT_VALUES),
    sr=_maybe(_FLOAT_VALUES),
)
def test_bounds_never_raises_on_numeric_flags(m, n, target, epsilon, delta, beta, frobenius, sr):
    # flag=value, so that argparse takes "-inf" as a value and not as a flag
    argv = ["bounds", f"--m={m}", f"--n={n}", f"--frobenius={frobenius}", f"{target}={epsilon}"]
    for flag, value in (("--delta", delta), ("--beta", beta), ("--stable-rank", sr)):
        if value is not None:
            argv.append(f"{flag}={value}")
    rc, out, err = _run(argv)
    _assert_ok_or_one_error_line(rc, out, err)
    if rc == 0:
        json.loads(out)


@settings(max_examples=200, deadline=None)
@given(
    target=_maybe(("--epsilon", "--epsilon-rel")),
    epsilon=st.sampled_from(_FLOAT_VALUES),
    delta=_maybe(_FLOAT_VALUES + ("0.1",)),
    s=_maybe(_INT_VALUES),
    dist=st.sampled_from(("hybrid", "l1", "l2")),
)
def test_sparsify_never_raises_on_numeric_flags(target, epsilon, delta, s, dist):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sparsify", "--generate", "gaussian,4,5,1", f"--dist={dist}", "--out", f"{tmp}/o.mtx"]
        for flag, value in ((target, epsilon), ("--delta", delta), ("--s", s)):
            if flag is not None and value is not None:
                argv.append(f"{flag}={value}")
        rc, out, err = _run(argv)
    _assert_ok_or_one_error_line(rc, out, err)
    if rc == 0:
        assert out.startswith("wrote ")


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(("experiment", "compare")),
    target=_maybe(("--epsilon", "--epsilon-rel")),
    epsilon=st.sampled_from(_FLOAT_VALUES),
    delta=_maybe(_FLOAT_VALUES + ("0.1",)),
    s=_maybe(_INT_VALUES),
    bound_form=_maybe(("theorem1", "unsimplified", "corollary")),
    dist=_maybe(("hybrid", "l1", "l2")),
)
def test_experiment_and_compare_never_raise_on_numeric_flags(command, target, epsilon, delta, s, bound_form, dist):
    argv = [command, "--generate", "gaussian,4,5,1", "--trials", "2"]
    flags = [(target, epsilon), ("--delta", delta), ("--s", s), ("--bound-form", bound_form)]
    if command == "experiment":
        flags.append(("--dist", dist))
    for flag, value in flags:
        if flag is not None and value is not None:
            argv.append(f"{flag}={value}")
    rc, out, err = _run(argv)
    if rc == 2:  # the guarantee was not shown, which only experiment reports
        assert command == "experiment" and err == ""
    else:
        _assert_ok_or_one_error_line(rc, out, err)
    if rc != 1:
        assert json.loads(out)["command"] == command
