"""Show that every output check of the benchmark can fail.

    python3 perfbench/selfcheck.py

Runs each workload's command once on a small input, requires the real output
to pass its check, then corrupts one thing at a time and requires the check
to report a problem. Takes a few seconds. Exits 0 when every check passed
the real output and caught every corruption, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import run

os.environ.update({var: "1" for var in run.BLAS_THREAD_VARS})
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def _scale_first_sketch_value(stdout, output):
    lines = output.splitlines(keepends=True)
    i, j, v = lines[2].split()
    lines[2] = f"{i} {j} {float(v) * 1.01!r}\n"
    return stdout, "".join(lines)


def _s_plus_two_in_stdout(stdout, output):
    return re.sub(r"s=(\d+)", lambda m: f"s={int(m.group(1)) + 2}", stdout, count=1), output


def _edit_json(edit):
    def corrupt(stdout, output):
        doc = json.loads(output)
        edit(doc["result"])
        return stdout, json.dumps(doc)

    return corrupt


def _raise_first_error(res):
    # keep the hybrid median and p90 consistent, so that only the dense-SVD
    # check can catch it
    hybrid = res["kinds"][0]
    hybrid["errors"][0] *= 1.0 + 1e-4
    hybrid["median_error"] = float(np.median(hybrid["errors"]))
    hybrid["p90_error"] = float(np.percentile(hybrid["errors"], 90.0))


def _raise_last_trial_error(res):
    # the failure rate stays the same, so only the dense-SVD check can catch it
    res["errors"][-1] *= 1.0 + 1e-4


def _fail_the_experiment(res):
    res["passed"] = False


def _s_plus_two(res):
    res["s_used"] += 2


def _nudge_l1_certificate(res):
    res["kinds"][1]["beta_certificate"] *= 1.0 + 1e-6


CASES = [
    # (workload, make a small input, corruptions)
    ("sparsify-mtx", lambda work: wl._make_sparsify(work, 3, (30, 40)), [
        ("sketch value scaled by 1.01", _scale_first_sketch_value),
        ("s off by two", _s_plus_two_in_stdout),
    ]),
    ("experiment-mc", lambda work: wl._make_experiment(work, 3, (30, 30), 8), [
        ("reported error raised by 1e-4 relative", _edit_json(_raise_last_trial_error)),
        ("s off by two", _edit_json(_s_plus_two)),
        ("passed set to false", _edit_json(_fail_the_experiment)),
    ]),
    ("compare-corollary", lambda work: wl._make_compare(work, 3, (30, 30), 2), [
        ("reported error raised by 1e-4 relative", _edit_json(_raise_first_error)),
        ("s off by two", _edit_json(_s_plus_two)),
        ("l1 certificate nudged by 1e-6 relative", _edit_json(_nudge_l1_certificate)),
    ]),
]


def main() -> int:
    env = run.program_env()
    work = run.ROOT / ".perfbench_work" / f"selfcheck-pid{os.getpid()}"
    work.mkdir(parents=True)
    bad = 0
    try:
        for label, make, corruptions in CASES:
            inputs = make(work)
            op = run.run_op([sys.executable, "-m", "elemsparse", *inputs.argv], work, env)
            if op.code != 0:
                print(f"FAIL {label}: the command exited {op.code}: {op.stderr.strip()[-300:]}")
                bad += 1
                continue
            output = (work / inputs.output).read_text()
            check = wl.WORKLOADS[label].check
            problems = check(inputs, op.stdout, output)
            print(f"{'ok  ' if not problems else 'FAIL'} {label}: real output passes {problems or ''}")
            bad += bool(problems)
            for what, corrupt in corruptions:
                caught = check(inputs, *corrupt(op.stdout, output))
                print(f"{'ok  ' if caught else 'FAIL'} {label}: {what} -> {caught[0] if caught else 'not caught'}")
                bad += not caught
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
