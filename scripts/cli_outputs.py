"""Run a fixed list of small CLI commands and write their outputs to OUTDIR.

Each command runs as ``python -m elemsparse`` with ``cwd=OUTDIR`` and
relative paths, on the package in this checkout's ``src``. The JSON outputs
are written with their top-level ``wall_times`` key dropped and the
``experiment`` CSV without its ``wall_time`` column, so everything left is
deterministic. Each command's exit code, stdout and stderr go beside its
output in ``<name>.log``; the last commands are refused, so only their logs
are written. The rows that ask for two or more workers run a second time as
``<name>-forked``, with the BLAS on the calling thread, so that on Linux
their workers are forked children, while the first run, whose BLAS pool
thread makes fork unsafe, takes one worker; each such output and log must
equal its twin's, apart from a printed output file name, and the script
stops if one does not. Two checkouts are compared by running their
copies of this script and diffing the two directories:

    python3 scripts/cli_outputs.py /tmp/before   # in one checkout
    python3 scripts/cli_outputs.py /tmp/after    # in the other
    diff -r /tmp/before /tmp/after
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# A 6x5 matrix with zeros, both signs and a spread of magnitudes.
INPUT_CSV = "\n".join(
    ",".join(repr(((3 * i + 7 * j) % 11 - 5) * 0.5 ** (i % 3)) for j in range(5)) for i in range(6)
) + "\n"

# The l2 share of the 1e-200 cell underflows to 0, so the l2 certificate is 0.
PART_CSV = "1e-200,2\n3,0\n"

# Both shares of the 5e-324 cell underflow to 0, so every certificate is 0.
SUBNORMAL_CSV = "5e-324,1\n1,0\n"

# The all-zero matrix, which every command refuses with one message.
ZERO_CSV = "0,0,0\n0,0,0\n"

# Refused at line 1 for its digit separator (float alone reads 1_000 as
# 1000), before the short row at line 2 is reached.
SEPARATOR_CSV = "1_000,2\n3\n"

# A size line declaring no rows and no columns, refused at that line.
ZERO_ROWS_MTX = "%%MatrixMarket matrix coordinate real general\n0 0 0\n"

# A size line declaring -1 entries, refused at that line.
NEGATIVE_NNZ_MTX = "%%MatrixMarket matrix coordinate real general\n2 2 -1\n"

# A 4x5 file in CRLF endings with comment and blank lines before the size
# line, tabs between fields, a comment after an entry, and the cell (2, 3)
# listed twice, so its two values add up.
MESSY_MTX = "\r\n".join([
    "%%MatrixMarket matrix coordinate real general", "% a 4x5 matrix", "", "4 5 8",
    "1\t1\t2.5", "1 4 -1.25 % a trailing comment", "2\t3 0.75", "% between entries", "2 3 -3",
    "3 2\t1e-3", "3 5 4", "4 1 -0.5", "4 4 6.125",
]) + "\r\n"

# (name, argv after "elemsparse", output file or None for stdout)
COMMANDS = [
    ("experiment-jobs2", ["experiment", "--generate", "gaussian,12,10,4", "--epsilon-rel", "0.6",
                          "--trials", "8", "--seed", "3", "--jobs", "2", "--out", "experiment-jobs2.json"],
     "experiment-jobs2.json"),
    # more workers asked for than there are trials
    ("experiment-jobs-above-trials", ["experiment", "--generate", "gaussian,12,10,4", "--epsilon-rel", "0.6",
                                      "--trials", "3", "--seed", "3", "--jobs", "5"], None),
    ("experiment-l1-theorem1", ["experiment", "--generate", "power-law,9,11,2", "--dist", "l1", "--s", "300",
                                "--epsilon-rel", "0.5", "--bound-form", "theorem1", "--trials", "5"], None),
    ("experiment-l2-file", ["experiment", "--input", "input.csv", "--dist", "l2", "--epsilon-rel", "0.7",
                            "--delta", "0.3", "--trials", "4", "--seed", "11"], None),
    ("experiment-csv", ["experiment", "--generate", "binary,8,8,5", "--epsilon", "2.0", "--s", "120",
                        "--trials", "6", "--out-format", "csv", "--out", "experiment.csv"], "experiment.csv"),
    ("compare-corollary", ["compare", "--generate", "low-rank-plus-noise,14,12,6", "--epsilon-rel", "0.8",
                           "--bound-form", "corollary", "--trials", "3", "--seed", "2"], None),
    ("compare-file-s", ["compare", "--input", "input.csv", "--s", "50", "--epsilon", "1.5", "--trials", "4",
                        "--out", "compare-file-s.json"], "compare-file-s.json"),
    # three workers over four trials, each kind on the same seeds
    ("compare-jobs3", ["compare", "--generate", "gaussian,9,8,2", "--epsilon-rel", "0.7", "--trials", "4",
                       "--seed", "6", "--jobs", "3"], None),
    # three workers over one trial of each kind: the kinds run side by side
    ("compare-trials1-jobs3", ["compare", "--generate", "gaussian,9,8,2", "--epsilon-rel", "0.7", "--trials", "1",
                               "--seed", "6", "--jobs", "3"], None),
    # the sampler's rule draws s <= 2 mn by the inverse-CDF table while
    # mn <= 2^15, and 2 mn < s <= 2^53 by Poisson counts and a top-up: 12x10
    # has 120 cells and 9x8 has 72
    ("experiment-s-at-rule", ["experiment", "--generate", "gaussian,12,10,4", "--epsilon-rel", "0.6", "--s", "240",
                              "--trials", "6", "--seed", "3", "--jobs", "2"], None),
    ("experiment-s-past-rule", ["experiment", "--generate", "gaussian,12,10,4", "--epsilon-rel", "0.6", "--s", "241",
                                "--trials", "6", "--seed", "3", "--jobs", "2"], None),
    ("compare-s-at-rule", ["compare", "--generate", "gaussian,9,8,2", "--epsilon-rel", "0.7", "--s", "144",
                           "--trials", "2", "--seed", "6", "--jobs", "3"], None),
    ("compare-s-past-rule", ["compare", "--generate", "gaussian,9,8,2", "--epsilon-rel", "0.7", "--s", "145",
                             "--trials", "2", "--seed", "6", "--jobs", "3"], None),
    ("compare-csv", ["compare", "--generate", "gaussian,7,9,8", "--epsilon-rel", "0.5", "--s", "80",
                     "--trials", "3", "--out-format", "csv", "--out", "compare.csv"], "compare.csv"),
    ("bounds-numbers", ["bounds", "--m", "100", "--n", "80", "--epsilon", "1", "--frobenius", "10"], None),
    ("bounds-numbers-sr", ["bounds", "--m", "50", "--n", "60", "--epsilon-rel", "0.5", "--frobenius", "7.5",
                           "--stable-rank", "3.2", "--beta", "0.8", "--delta", "0.05"], None),
    ("bounds-generate", ["bounds", "--generate", "power-law,20,15,3", "--epsilon-rel", "0.5"], None),
    ("bounds-input", ["bounds", "--input", "input.csv", "--epsilon", "2", "--out", "bounds-input.json"],
     "bounds-input.json"),
    # the stable rank is about 7.7 < epsilon_rel^2, so the corollary row is null
    ("bounds-corollary-null", ["bounds", "--generate", "gaussian,30,30,1", "--epsilon-rel", "10"], None),
    ("sparsify-mtx", ["sparsify", "--generate", "gaussian,10,12,1", "--s", "90", "--seed", "5",
                      "--out", "sketch.mtx"], "sketch.mtx"),
    ("sparsify-csv", ["sparsify", "--input", "input.csv", "--epsilon-rel", "0.6", "--dist", "l1",
                      "--out", "sketch.csv", "--out-format", "csv"], "sketch.csv"),
    ("sparsify-s-at-rule", ["sparsify", "--generate", "gaussian,10,12,1", "--s", "240", "--seed", "5",
                            "--out", "sketch-at-rule.mtx"], "sketch-at-rule.mtx"),
    ("sparsify-s-past-rule", ["sparsify", "--generate", "gaussian,10,12,1", "--s", "241", "--seed", "5",
                              "--out", "sketch-past-rule.mtx"], "sketch-past-rule.mtx"),
    # past 2^15 cells s <= 2 mn draws by multinomial: 182x181 has 32 942 cells
    ("sparsify-many-cells", ["sparsify", "--generate", "gaussian,182,181,1", "--s", "1000", "--seed", "5",
                             "--out", "sketch-many-cells.mtx"], "sketch-many-cells.mtx"),
    # the Poisson path's last s, 2^53, and multinomial's first one past it
    ("sparsify-s-at-2-53", ["sparsify", "--generate", "gaussian,4,5,1", "--s", str(2**53), "--seed", "5",
                            "--out", "sketch-at-2-53.mtx"], "sketch-at-2-53.mtx"),
    ("sparsify-s-past-2-53", ["sparsify", "--generate", "gaussian,4,5,1", "--s", str(2**53 + 1), "--seed", "5",
                              "--out", "sketch-past-2-53.mtx"], "sketch-past-2-53.mtx"),
    ("sparsify-seed-past-2-64", ["sparsify", "--generate", "gaussian,6,5,1", "--s", "40",
                                 "--seed", str(2**64 + 3), "--out", "sketch-seed.mtx"], "sketch-seed.mtx"),
    ("sparsify-s-past-int64", ["sparsify", "--generate", "gaussian,4,5,1", "--epsilon", "1e-12",
                               "--out", "sketch-huge.mtx"], "sketch-huge.mtx"),
    ("sparsify-l2-underflow-s", ["sparsify", "--input", "part.csv", "--dist", "l2", "--s", "10",
                                 "--out", "sketch-part.mtx"], "sketch-part.mtx"),
    ("sparsify-subnormal-s", ["sparsify", "--input", "subnormal.csv", "--s", "10", "--out", "sketch-subnormal.mtx"],
     "sketch-subnormal.mtx"),
    ("bounds-both-targets", ["bounds", "--m", "5", "--n", "5", "--frobenius", "1", "--epsilon", "1",
                             "--epsilon-rel", "1"], None),
    ("bounds-generate-negative-seed", ["bounds", "--generate", "gaussian,3,3,-1", "--epsilon", "1"], None),
    ("bounds-zero", ["bounds", "--input", "zero.csv", "--epsilon", "1"], None),
    ("sparsify-zero", ["sparsify", "--input", "zero.csv", "--s", "5", "--out", "sketch-zero.mtx"], "sketch-zero.mtx"),
    # the rules on s, delta, the bound form and epsilon_rel, each refused by its one owner
    ("experiment-s-0", ["experiment", "--generate", "gaussian,4,5,1", "--s", "0", "--epsilon", "1"], None),
    ("compare-delta-1", ["compare", "--generate", "gaussian,4,5,1", "--delta", "1", "--epsilon", "1"], None),
    ("experiment-corollary-epsilon", ["experiment", "--generate", "gaussian,4,5,1", "--bound-form", "corollary",
                                      "--epsilon", "1"], None),
    ("experiment-epsilon-rel-negative", ["experiment", "--generate", "gaussian,4,5,1", "--epsilon-rel", "-1"], None),
    # both error targets: every command prints the one line of the sizing step
    ("experiment-both-targets", ["experiment", "--generate", "gaussian,4,5,1", "--epsilon", "1",
                                 "--epsilon-rel", "0.5"], None),
    ("sparsify-both-targets", ["sparsify", "--generate", "gaussian,4,5,1", "--epsilon", "1", "--epsilon-rel", "0.5",
                               "--out", "sketch-both.mtx"], "sketch-both.mtx"),
    ("csv-digit-separator", ["bounds", "--input", "separator.csv", "--epsilon", "1"], None),
    ("mtx-zero-rows", ["sparsify", "--input", "zero-rows.mtx", "--s", "5", "--out", "sketch-zero-rows.mtx"],
     "sketch-zero-rows.mtx"),
    ("mtx-negative-nnz", ["sparsify", "--input", "negative-nnz.mtx", "--s", "5", "--out", "sketch-negative-nnz.mtx"],
     "sketch-negative-nnz.mtx"),
    ("mtx-messy", ["sparsify", "--input", "messy.mtx", "--s", "30", "--seed", "4", "--out", "sketch-messy.mtx"],
     "sketch-messy.mtx"),
]


# Rows with --jobs above 1, run again as <name>-forked under FORKED_ENV.
JOBS_ROWS = ("experiment-jobs2", "experiment-jobs-above-trials", "compare-jobs3", "compare-trials1-jobs3",
             "experiment-s-at-rule", "experiment-s-past-rule", "compare-s-at-rule", "compare-s-past-rule")
# One BLAS thread, so the process holds only its own thread and may fork.
FORKED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _forked_twin(name: str, argv: list, out) -> tuple:
    """The row's forked twin: named <name>-forked, writing its --out file
    (if any) under that name too."""
    twin = f"{name}-forked"
    if out is None:
        return twin, argv, None
    twin_out = out.replace(name, twin)
    return twin, [twin_out if arg == out else arg for arg in argv], twin_out


def _without_wall_times(text: str) -> str:
    """The JSON document without its top-level wall_times key, in the
    package's own layout; refuses text not already in that layout, so no
    byte difference is hidden by the rewrite."""
    doc = json.loads(text)
    if json.dumps(doc, sort_keys=True, indent=2) + "\n" != text:
        raise SystemExit("JSON output is not in sorted, 2-space-indented layout")
    doc.pop("wall_times", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _without_column(text: str, column: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    k = rows[0].index(column)
    return "".join(",".join(row[:k] + row[k + 1 :]) + "\n" for row in rows)


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTDIR")
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "input.csv").write_text(INPUT_CSV)
    (outdir / "part.csv").write_text(PART_CSV)
    (outdir / "subnormal.csv").write_text(SUBNORMAL_CSV)
    (outdir / "zero.csv").write_text(ZERO_CSV)
    (outdir / "separator.csv").write_text(SEPARATOR_CSV)
    (outdir / "zero-rows.mtx").write_text(ZERO_ROWS_MTX)
    (outdir / "negative-nnz.mtx").write_text(NEGATIVE_NNZ_MTX)
    (outdir / "messy.mtx").write_bytes(MESSY_MTX.encode("ascii"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    twins = [(row, _forked_twin(*row)) for row in COMMANDS if row[0] in JOBS_ROWS]
    rows = [(*row, env) for row in COMMANDS] + [(*twin, {**env, **FORKED_ENV}) for _, twin in twins]
    for name, argv, out, row_env in rows:
        proc = subprocess.run(
            [sys.executable, "-m", "elemsparse", *argv], cwd=outdir, env=row_env, capture_output=True, text=True
        )
        log = f"exit {proc.returncode}\n--- stdout\n{'' if out is None else proc.stdout}--- stderr\n{proc.stderr}"
        (outdir / f"{name}.log").write_text(log)
        if proc.returncode not in (0, 2):  # the log holds the error
            continue
        path = outdir / (out or f"{name}.json")
        text = proc.stdout if out is None else path.read_text()
        if path.suffix == ".json":
            text = _without_wall_times(text)
        elif argv[0] == "experiment":
            text = _without_column(text, "wall_time")
        path.write_text(text)
    for (name, _, out), (twin, _, twin_out) in twins:
        for mine, its in ((f"{name}.log", f"{twin}.log"), (out or f"{name}.json", twin_out or f"{twin}.json")):
            if (outdir / mine).read_text() != (outdir / its).read_text().replace(twin, name):  # a printed --out path
                raise SystemExit(f"{its} differs from {mine}")


if __name__ == "__main__":
    main()
