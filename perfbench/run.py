"""Benchmark the elemsparse command line end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is run from its ``src``
directory. The run makes the workload's input from the seed, then repeats
rounds until S seconds have passed. A round times set-up in a few fresh
interpreters and runs the workload's one command once, in a fresh process
timed from spawn to exit. Every output is checked against references
computed apart from the program, outside the timed region. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` a round runs the command once untraced and once under
``tracer.py``, without set-up, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread per process, so that an operation's time does not depend on
# the BLAS library's default thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Far above any operation's run time; an operation that hangs is killed so
# that a run still ends.
OP_TIMEOUT_S = 120.0

# Fresh interpreters timed for set-up in each round.
SETUP_SAMPLES = 3


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: str
    stderr: str
    ok: bool = True  # ran to its end with an output that passed the checks


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_op(cmd: list, cwd: Path, env: dict) -> Op:
    """Run one process, timed from spawn to exit, with its own CPU time and
    peak resident set from wait4."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def setup_time(inputs, work: Path, env: dict) -> float:
    """Import elemsparse and bring the input into memory in a fresh
    interpreter, timed inside that interpreter."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import elemsparse\n"
        f"x = {inputs.load_expr}\n"
        "print(repr(time.perf_counter() - start), x.m, x.n)\n"
    )
    op = run_op([sys.executable, "-c", code], work, env)
    words = op.stdout.split()
    if op.code != 0 or len(words) != 3 or (int(words[1]), int(words[2])) != inputs.x.shape:
        raise RuntimeError(f"set-up failed (exit {op.code}): {op.stderr.strip()[-500:]}")
    return float(words[0])


def environment() -> dict:
    """The machine and software this run measured."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from elemsparse import kernels

        backend = kernels.active_backend()
    except (ImportError, AttributeError):
        backend = "no kernels module"
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "kernels_backend": backend,
        "numba": numba_version,
    }


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through run_op, which kills and reaps the operation
    # in flight, and through the clean-up of the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "elemsparse" / "__init__.py").is_file():
        print(f"perfbench: no elemsparse sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = program_env()
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before numpy loads, for the checks
    sys.path.insert(0, str(SRC))
    import tracer
    from workloads import WORKLOADS, normalized

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = workload.make(work, args.seed)

        plain_cmd = [sys.executable, "-m", "elemsparse", *inputs.argv]
        spans_path = work / "spans.json"
        traced_cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *inputs.argv]
        plain, traced, figures, setup = [], [], [], []
        problems = []  # why operations failed
        first = None  # (stdout, output) of the first operation that ran to its end
        expected = None  # the same with the timing block removed
        start = time.monotonic()
        while True:
            # Set-up is sampled in every round, so that it is spread across
            # the whole run, as the operations are: a shared machine's speed
            # can drift in phases of several seconds.
            if not args.trace:
                setup += [setup_time(inputs, work, env) for _ in range(SETUP_SAMPLES)]
            for cmd in ([plain_cmd, traced_cmd] if args.trace else [plain_cmd]):
                op = run_op(cmd, work, env)
                (traced if cmd is traced_cmd else plain).append(op)
                if op.code != 0:
                    op.ok = False
                    problems.append(f"exit {op.code}: {op.stderr.strip()[-500:]}")
                    continue
                output = (work / inputs.output).read_text()
                if first is None:
                    first, expected = (op.stdout, output), (op.stdout, normalized(output))
                elif (op.stdout, normalized(output)) != expected:
                    op.ok = False
                    problems.append("output differs from the first operation's")
                if cmd is traced_cmd:
                    figure = tracer.layer_figures(json.loads(spans_path.read_text()))
                    figure["trace.startup_s"] = op.wall_s - figure.pop("trace.self_sum_s")
                    figures.append(figure)
            if time.monotonic() - start >= args.seconds:
                break
        ops = plain + traced
        if first is not None:
            try:
                wrong = workload.check(inputs, *first)
            except Exception as exc:  # an output the check cannot read is a wrong output
                wrong = [f"check could not read the output: {exc!r}"]
            if wrong:
                # every operation that ran to its end wrote the first one's
                # output or a different one, so none of them is right
                problems += wrong
                for op in ops:
                    op.ok = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    # When every operation exited non-zero, no work was measured.
    correct = any(op.code == 0 for op in ops)
    if correct:
        # Figures describe the operations that succeeded. When an output
        # check failed, none did; those that ran to their end still did the
        # whole work, so they are described instead.
        keep = (lambda op: op.ok) if failed < attempted else (lambda op: op.code == 0)
        plain, traced = [op for op in plain if keep(op)], [op for op in traced if keep(op)]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment(),
            "op_s": [round(op.wall_s, 4) for op in plain], "op_cpu_s": [round(op.cpu_s, 4) for op in plain],
            "setup_s": [round(t, 4) for t in setup]}
    print(json.dumps(info))

    if args.trace:
        values = {name: median(f[name] for f in figures) for name in figures[0]} if figures else {}
        if values and plain and traced:
            values["trace.overhead_ratio"] = median(op.wall_s for op in traced) / median(op.wall_s for op in plain)
        wanted = spec["per_layer"]
    else:
        values = {
            "op_s": median(op.wall_s for op in plain),
            "op_cpu_s": median(op.cpu_s for op in plain),
            "peak_rss_mib": median(op.rss_mib for op in plain),
            "setup_s": median(setup),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
