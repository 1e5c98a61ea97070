"""Time the import cost of elemsparse in fresh interpreters, per checkout.

    python3 scripts/import_cost.py [--runs N] [CHECKOUT ...]

Each CHECKOUT is the root of a copy of the repository (default: this one);
its ``src`` is put first on PYTHONPATH. For every checkout the script runs N
fresh interpreters (default 20) on each case below, interleaved round by
round so that drifts in machine speed fall on every checkout alike, and
times each from spawn to exit. It prints the min and the median of each
case in ms, and the ``elemsparse`` submodules the case loaded, with
``numpy.ma`` and ``concurrent.futures`` where it loaded them, read from one
more, untimed run under ``-v``, whose report, unlike ``-X importtime``'s,
includes the modules ``importlib.import_module`` loads. Two checkouts are compared by
naming both:

    python3 scripts/import_cost.py --runs 30 /tmp/before /tmp/after

The cases are a bare import, the two set-up expressions the benchmark times
(loading a Matrix Market file, here a small one, and generating a 100x100
gaussian), ``python -m elemsparse --help`` and a two-trial ``compare`` of a
20x20 gaussian that writes its JSON into the script's temporary directory.
Whether a checkout holds a
bytecode cache (``src/elemsparse/__pycache__``) is printed beside its name:
a cache in one checkout alone moves every case by tens of ms.
"""

import argparse
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, interpreter arguments); {mtx} stands for the input file written
# below and {out} for an output file beside it.
CASES = [
    ("import", ["-c", "import elemsparse"]),
    ("setup-mtx", ["-c", "import elemsparse; elemsparse.load_matrix({mtx!r})"]),
    ("setup-generate",
     ["-c", "import elemsparse; elemsparse.generate_matrix(elemsparse.GeneratorSpec('gaussian', 100, 100, 1))"]),
    ("cli-help", ["-m", "elemsparse", "--help"]),
    ("cli-compare", ["-m", "elemsparse", "compare", "--generate", "gaussian,20,20,1", "--epsilon-rel", "0.5",
                     "--trials", "2", "--out", "{out}"]),
]

# Modules outside elemsparse that the "loads:" column names when a case loads them.
WATCHED = ("numpy.ma", "concurrent.futures")

# A 3x4 coordinate file: the set-up code path of the .mtx workload, not its parse time.
MTX = "%%MatrixMarket matrix coordinate real general\n3 4 4\n1 1 1.5\n2 3 -2\n3 4 0.25\n3 1 4\n"


def _command(argv: list, mtx: Path) -> list:
    return [sys.executable, *(arg.format(mtx=str(mtx), out=str(mtx.with_name("out.json"))) for arg in argv)]


def _env(checkout: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    return env


def _wall_s(cmd: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _modules(cmd: list, env: dict) -> list:
    """The elemsparse submodules cmd imports, then those of WATCHED it
    imports, from the interpreter's -v report."""
    proc = subprocess.run(
        [cmd[0], "-v", *cmd[1:]], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True
    )
    loaded = set(re.findall(r"^import '([\w.]+)'", proc.stderr, re.M))
    own = sorted(name.removeprefix("elemsparse.") for name in loaded if name.startswith("elemsparse."))
    return own + [name for name in WATCHED if name in loaded]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="fresh interpreters per case and checkout")
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkouts = [path.resolve() for path in args.checkouts]
    for path in checkouts:
        if not (path / "src" / "elemsparse" / "__init__.py").is_file():
            parser.error(f"{path} holds no src/elemsparse")
    with tempfile.TemporaryDirectory() as tmp:
        mtx = Path(tmp) / "x.mtx"
        mtx.write_text(MTX)
        envs = [_env(path) for path in checkouts]
        times = {(c, name): [] for c in range(len(checkouts)) for name, _ in CASES}
        for _ in range(args.runs):
            for name, argv in CASES:
                for c, env in enumerate(envs):
                    times[c, name].append(_wall_s(_command(argv, mtx), env))
        for c, path in enumerate(checkouts):
            cache = "with" if (path / "src" / "elemsparse" / "__pycache__").is_dir() else "without"
            print(f"{path} ({cache} __pycache__), {args.runs} runs")
            for name, argv in CASES:
                runs = times[c, name]
                loaded = " ".join(_modules(_command(argv, mtx), envs[c])) or "-"
                print(f"  {name:15} min {1e3 * min(runs):7.1f} ms  median {1e3 * statistics.median(runs):7.1f} ms"
                      f"  loads: {loaded}")


if __name__ == "__main__":
    main()
