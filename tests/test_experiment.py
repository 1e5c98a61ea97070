import dataclasses
import json
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elemsparse import (
    BoundForm,
    BoundRequest,
    DenseMatrix,
    DistributionKind,
    ElemsparseError,
    ExperimentConfig,
    FileSource,
    GeneratorSpec,
    InvalidSpecError,
    ZeroMatrixError,
    ZeroProbabilityError,
    compare_distributions,
    distribution_for_kind,
    frobenius_norm,
    generate_matrix,
    run_experiment,
    sketch_error,
    sparsify,
    stable_rank,
)
from elemsparse import errors, experiment, poisson, sampler, spectral
from elemsparse.bounds import sample_size_corollary, sample_size_unsimplified
from elemsparse.matrix import _scatter
from elemsparse.experiment import (
    compare_payload,
    experiment_payload,
    make_plan,
    payload_text,
)

GEN = GeneratorSpec("gaussian", 8, 10, 21)


def _cfg(**kwargs):
    base = dict(source=GEN, epsilon=4.0, delta=0.5, s_override=60, trials=3, base_seed=5)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_config_validation():
    # a run needs an error target even when s is given (s_override is 60 here)
    with pytest.raises(InvalidSpecError, match="^one of epsilon and epsilon_rel is required$"):
        _cfg(epsilon=None)
    with pytest.raises(InvalidSpecError):
        _cfg(trials=0)
    with pytest.raises(InvalidSpecError):
        _cfg(jobs=0)
    with pytest.raises(InvalidSpecError):
        _cfg(base_seed=-1)
    # the counts and the seed are integers: a float is refused here, not by
    # a TypeError once the run starts; numpy integers pass and are kept as ints
    for name, value in (("trials", 2.5), ("jobs", 1.5), ("base_seed", 1.5), ("trials", 2.0)):
        with pytest.raises(InvalidSpecError, match=f"^{name} must be an integer, got {value}$"):
            _cfg(**{name: value})
    cfg = _cfg(trials=np.int64(2), jobs=np.int8(1), base_seed=np.uint64(5))
    assert [type(v) for v in (cfg.trials, cfg.jobs, cfg.base_seed)] == [int] * 3
    assert run_experiment(cfg).seeds == (5, 6)
    s = make_plan(generate_matrix(GEN), ("hybrid",), epsilon=1.0, s_override=np.int64(7)).s
    assert type(s) is int and s == 7
    # unknown names are typed errors that list the known ones
    with pytest.raises(InvalidSpecError, match="hybrid, l2, l1, custom"):
        _cfg(dist_kind="bogus")
    with pytest.raises(InvalidSpecError, match="theorem1, unsimplified, corollary"):
        _cfg(bound_form="bogus")
    with pytest.raises(InvalidSpecError, match="hybrid, l2, l1, custom"):
        make_plan(generate_matrix(GEN), ("bogus",))
    # the custom kind is a kind, refused by the builder when the run plans, as
    # sparsify and distribution_for_kind refuse it
    with pytest.raises(InvalidSpecError, match="^custom distributions must be built via custom_distribution$"):
        run_experiment(_cfg(dist_kind="custom"))
    # a plain path string is not a FileSource
    with pytest.raises(InvalidSpecError, match="^unsupported matrix source str$"):
        run_experiment(_cfg(source="x.csv"))


@pytest.mark.parametrize("run", [run_experiment, compare_distributions])
@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(s_override=0), "s must be a positive integer"),
        # s draws floor(s) cells, so a fractional s would scale every sketch
        (dict(s_override=10.5), "s must be an integer, got 10.5"),
        (dict(epsilon=-1.0), "epsilon must be positive and finite, got -1.0"),
        (dict(epsilon=None, epsilon_rel=math.inf), "epsilon_rel must be positive and finite, got inf"),
        (dict(delta=1.0), "delta must lie in (0, 1), got 1.0"),
        (dict(bound_form=BoundForm.COROLLARY), "bound_form=corollary needs epsilon_rel, not an absolute epsilon"),
        (dict(epsilon_rel=0.5), "give one of epsilon and epsilon_rel, not both"),
    ],
    ids=["s", "s-fractional", "epsilon", "epsilon_rel", "delta", "corollary", "both-targets"],
)
def test_plan_rules_are_checked_on_the_run(run, kwargs, message):
    # the config takes these values; the run refuses them where every
    # command does, in make_plan and BoundRequest, with the same message
    cfg = _cfg(**kwargs)
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        run(cfg)


def test_config_accepts_plain_strings():
    cfg = _cfg(dist_kind="l1", bound_form="theorem1")
    assert cfg.dist_kind is DistributionKind.PURE_L1
    assert cfg.bound_form is BoundForm.THEOREM1


def test_make_plan_accepts_plain_string_bound_forms():
    # a plain "theorem1" raised AttributeError, and "corollary" skipped the
    # corollary branches
    x = generate_matrix(GEN)
    for form, target in ((BoundForm.THEOREM1, {"epsilon": 1.0}), (BoundForm.COROLLARY, {"epsilon_rel": 0.9})):
        plan = make_plan(x, ("hybrid",), bound_form=form.value, **target)
        assert plan.s == make_plan(x, ("hybrid",), bound_form=form, **target).s
        assert plan.s == getattr(plan.report, f"s_{form.value}")


def test_single_cell_fixture_runs_clean(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("2.5\n")
    cfg = ExperimentConfig(
        source=FileSource(str(path)), epsilon=0.1, delta=0.2, s_override=4, trials=5
    )
    res = run_experiment(cfg)
    assert res.errors == (0.0,) * 5
    assert res.empirical_failure_rate == 0.0
    assert res.passed
    assert res.nnz_ratio == 1.0
    assert res.s_used == 4


def test_zero_matrix_rejected(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("0,0\n0,0\n")
    with pytest.raises(ZeroMatrixError):
        run_experiment(ExperimentConfig(source=FileSource(str(path)), epsilon=1.0, s_override=3))


def _launcher(monkeypatch, forked: bool) -> None:
    # pin whether workers 1 .. w-1 fork or the run takes one worker: whether
    # fork is safe depends on the process (a BLAS pool thread or none),
    # which no test may leave to the machine it runs on. CPython 3.12 and
    # later warn when a process with a second thread (a BLAS pool's) forks;
    # a pinned fork is meant.
    monkeypatch.setattr(experiment, "_fork_safe", lambda: forked)
    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)


def _cpus(monkeypatch, count: int) -> None:
    # pin how many CPUs the process may run on, which caps the workers
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(count)))


def _worker(parent: int) -> int:
    # in a two-worker forked run, worker 0 is the parent and worker 1 a child
    return int(os.getpid() != parent)


def _nothing_to_reap() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_seeds_derived_from_base():
    res = run_experiment(_cfg(trials=4, base_seed=100))
    assert res.seeds == (100, 101, 102, 103)
    wrapped = (2**64 - 2, 2**64 - 1, 0, 1)
    assert run_experiment(_cfg(trials=4, base_seed=2**64 - 2)).seeds == wrapped
    assert all(r.seeds == wrapped for r in compare_distributions(_cfg(trials=4, base_seed=2**64 - 2)))


def test_jobs_do_not_change_results(monkeypatch, solves):
    # each wall time is one trial's own: draw, assembly and solve, forked or
    # not; where fork is unsafe every --jobs runs one worker
    _cpus(monkeypatch, 4)
    runs = []
    for forked in (False, True):
        _launcher(monkeypatch, forked)
        for jobs in (1, 2, 3):
            del solves[:]
            runs.append(run_experiment(_cfg(trials=8, jobs=jobs)))
            if not forked:  # one worker, whatever --jobs
                assert solves == [True] * 8
    x = generate_matrix(GEN)
    sketches = [sparsify(x, 60, seed) for seed in runs[0].seeds]
    alone = tuple(sketch_error(x, sk).value for sk in sketches)
    for res in runs:
        assert len(res.wall_times) == 8
        assert all(wall > 0.0 for wall in res.wall_times)
        assert res.errors == alone
        assert res.nnz_ratio == float(np.mean([sk.matrix.nnz / (x.m * x.n) for sk in sketches]))
        assert res.unconverged_trials == 0


@pytest.mark.parametrize("chunk", [None, 7], ids=["chunk", "chunk7"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("s", [160, 161], ids=["table", "multinomial"])  # 161 > 2 mn: Poisson counts
def test_harness_errors_are_sparsify_errors_on_both_paths(monkeypatch, s, jobs, chunk):
    # GEN has 80 cells: s = 160 = 2 mn draws by the table, built once and
    # shared by the workers, and s = 161 by Poisson counts and a top-up;
    # either way each trial's error is that of the sketch sparsify draws at
    # its seed, also when the trials draw, top up and assemble 7 values at a
    # time
    assert sampler._by_table(160, 80) and sampler._by_poisson(161, 80)
    if chunk:
        monkeypatch.setattr(sampler, "_CHUNK", chunk)
        monkeypatch.setattr(poisson, "_CHUNK", chunk)
    _launcher(monkeypatch, jobs > 1)
    _cpus(monkeypatch, 2)
    cfg = _cfg(trials=6, jobs=jobs, s_override=s)
    x = generate_matrix(GEN)
    alone = {kind: tuple(sketch_error(x, sparsify(x, s, seed, kind)).value for seed in range(5, 11))
             for kind in (DistributionKind.HYBRID, DistributionKind.PURE_L1, DistributionKind.PURE_L2)}
    assert run_experiment(cfg).errors == alone[DistributionKind.HYBRID]
    for r in compare_distributions(cfg):
        assert r.errors == alone[r.dist_kind]
    _nothing_to_reap()


def _without_walls(results):
    # one result or a tuple of them, each with wall_times set to None
    if isinstance(results, tuple):
        return tuple(_without_walls(r) for r in results)
    return dataclasses.replace(results, wall_times=None)


def test_compare_jobs_do_not_change_results(monkeypatch, solves):
    # each kind's column is what experiment gives for that kind at the same
    # s and seeds, however many workers share the trials; eight forked
    # workers, more than the cores, lose no record, and where fork is unsafe
    # every --jobs runs one worker
    _cpus(monkeypatch, 8)
    runs = []
    for forked in (False, True):
        _launcher(monkeypatch, forked)
        for jobs in (1, 2, 3, 8):
            del solves[:]
            runs.append(compare_distributions(_cfg(trials=4, jobs=jobs)))
            if not forked:  # one worker, whatever --jobs
                assert solves == [True] * 12
    assert all(_without_walls(res) == _without_walls(runs[0]) for res in runs[1:])
    for r in runs[0]:
        assert r.errors == run_experiment(_cfg(trials=4, dist_kind=r.dist_kind)).errors
    for res in runs:
        assert [len(r.wall_times) for r in res] == [4, 4, 4]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("form", list(BoundForm))
def test_compare_is_experiment_over_every_kind(monkeypatch, solves, form, jobs):
    # each compare result is the experiment of its kind at compare's s, apart
    # from the wall times and, for l1 and l2, the bound report: compare's is
    # the shared plan's, sized at the hybrid's beta = 1; forked or, where
    # fork is unsafe, on one worker
    _cpus(monkeypatch, 2)
    cfg = _cfg(epsilon=None, epsilon_rel=0.9, s_override=None, bound_form=form, trials=4, jobs=jobs)
    for forked in (False, True):
        _launcher(monkeypatch, forked)
        del solves[:]
        results = compare_distributions(cfg)
        if not forked:  # one worker, whatever --jobs
            assert solves == [True] * 12
        assert [r.dist_kind for r in results] == ["hybrid", "l1", "l2"]
        for r in results:
            alone = run_experiment(dataclasses.replace(cfg, dist_kind=r.dist_kind, s_override=r.s_used))
            ignored = {"wall_times"} if r.dist_kind == "hybrid" else {"wall_times", "bound_report"}
            mine, its = dataclasses.asdict(r), dataclasses.asdict(alone)
            assert {k: v for k, v in mine.items() if k not in ignored} == {
                k: v for k, v in its.items() if k not in ignored
            }
            assert r.bound_report == results[0].bound_report


@pytest.mark.parametrize(
    "run, jobs, forked",
    [(run_experiment, 1, True), (compare_distributions, 1, True),
     (run_experiment, 8, False), (compare_distributions, 8, False)],
    ids=["run_experiment", "compare_distributions", "run_experiment-fork-unsafe", "compare_distributions-fork-unsafe"],
)
def test_one_job_solves_every_trial_on_the_calling_thread(monkeypatch, solves, run, jobs, forked):
    # worker 0 is the caller, so --jobs 1, even where forking is safe, and
    # any --jobs where it is not, start no thread and fork no child however
    # many CPUs
    def no_fork():
        raise AssertionError("a one-worker run forked")

    _launcher(monkeypatch, forked)
    monkeypatch.setattr(experiment.os, "fork", no_fork)
    _cpus(monkeypatch, 8)
    run(_cfg(trials=4, jobs=jobs))
    assert solves == [True] * (4 if run is run_experiment else 12)


def test_workers_never_outnumber_trials_forked(monkeypatch, solves):
    # each run starts its workers in its one _run_trials call, for every
    # (distribution, seed) trial, and solves nothing outside it; a run asked
    # for more workers than there are trials or usable CPUs gets the smaller
    # count. The calling thread is worker 0 and solves trials 0, w, ...; w
    # workers fork w - 1 children and start no thread, and every child is
    # reaped before the run returns
    forked, calls = [], []  # each fork's pid, and the solves seen as each _run_trials call starts and ends

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def counted(*args):
        calls.append(len(solves))
        try:
            return run_trials(*args)
        finally:
            calls.append(len(solves))

    fork, run_trials = os.fork, experiment._run_trials
    one = run_experiment(_cfg(trials=3, jobs=1))
    one_each = compare_distributions(_cfg(trials=1, jobs=1))
    _launcher(monkeypatch, True)
    monkeypatch.setattr(experiment.os, "fork", recording_fork)
    monkeypatch.setattr(experiment, "_run_trials", counted)
    for cpus, workers in ((8, 3), (2, 2)):
        _cpus(monkeypatch, cpus)
        for run, trials, alone in ((run_experiment, 3, one), (compare_distributions, 1, one_each)):
            del forked[:], calls[:], solves[:]
            capped = run(_cfg(trials=trials, jobs=1000))
            assert len(forked) == workers - 1
            _nothing_to_reap()
            assert solves == [True] * len(range(0, 3, workers))
            assert calls == [0, len(solves)]
            assert _without_walls(capped) == _without_walls(alone)
            assert len(capped.wall_times if run is run_experiment else capped) == 3


@pytest.mark.parametrize(
    "run, kind, before",
    [(run_experiment, "hybrid", 0), (compare_distributions, "hybrid", 0), (compare_distributions, "l1", 20)],
    ids=["run_experiment", "compare_distributions", "compare_distributions-l1"],
)
def test_a_worker_error_is_raised_forked(monkeypatch, run, kind, before):
    # The fork launcher's stop. Worker 1, a child, fails its first solve of
    # kind once worker 0, the parent, has started a trial; each solve sleeps
    # so that both run at once. The parent must raise the child's error, and
    # after the child sets the stop byte worker 0 may start at most the one
    # trial it may already be past its check for. Each worker counts its
    # starts in its own slot of a shared map, as a child's memory is its own.
    probs = distribution_for_kind(generate_matrix(GEN), kind).probs
    starts = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)  # worker 0's, worker 1's, and the sum at the failure
    parent, current = os.getpid(), {}

    def counted(x, d, s):
        fill, fails = trial_fill(x, d, s), np.array_equal(d.probs, probs)

        def start(seed, diff):
            starts[_worker(parent)] += 1
            current["fails"] = fails
            return fill(seed, diff)

        return start

    def failing(a):
        if _worker(parent) == 1 and current["fails"] and starts[0] > 0:
            starts[2] = starts[0] + starts[1]
            raise ElemsparseError("solve failed")
        time.sleep(0.001)
        return solve(a)

    trial_fill, solve = experiment._trial_fill, experiment._spectral_norm
    _launcher(monkeypatch, True)
    monkeypatch.setattr(experiment, "_trial_fill", counted)
    monkeypatch.setattr(experiment, "_spectral_norm", failing)
    _cpus(monkeypatch, 2)
    with pytest.raises(ElemsparseError, match="solve failed"):
        run(_cfg(trials=40, jobs=2))
    _nothing_to_reap()
    assert starts[2] > before
    assert starts[0] + starts[1] <= starts[2] + 1


def test_the_lowest_failing_worker_error_is_raised_forked(monkeypatch):
    # both workers fail their first trial, worker 1 (the child) first in
    # time; the parent reads and reaps the child and raises worker 0's error
    arrived = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)  # each worker's, in a shared map
    parent = os.getpid()

    def failing(a):
        worker = _worker(parent)
        arrived[worker] = 1
        deadline = time.monotonic() + 10
        while not arrived.all() and time.monotonic() < deadline:
            time.sleep(0.001)
        if worker == 0:
            time.sleep(0.02)
        raise ElemsparseError(f"worker {worker} failed")

    _launcher(monkeypatch, True)
    monkeypatch.setattr(experiment, "_spectral_norm", failing)
    _cpus(monkeypatch, 2)
    with pytest.raises(ElemsparseError, match="worker 0 failed"):
        run_experiment(_cfg(trials=4, jobs=2))
    _nothing_to_reap()
    assert arrived.all()


_PACKAGE_ERRORS = [e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, ElemsparseError)]


@pytest.mark.parametrize("error", [*_PACKAGE_ERRORS, MemoryError], ids=lambda e: e.__name__)
def test_a_forked_worker_error_keeps_its_type_and_message(monkeypatch, error):
    # a child's exception reaches the parent pickled: every package error,
    # and MemoryError, which the CLI reports as a typed failure, arrives
    # with its own type and message
    parent = os.getpid()

    def failing(a):
        if _worker(parent) == 1:
            raise error("worker 1 failed")
        return solve(a)

    solve = experiment._spectral_norm
    _launcher(monkeypatch, True)
    monkeypatch.setattr(experiment, "_spectral_norm", failing)
    _cpus(monkeypatch, 2)
    with pytest.raises(error) as info:
        run_experiment(_cfg(trials=4, jobs=2))
    assert type(info.value) is error
    assert str(info.value) == "worker 1 failed"
    _nothing_to_reap()


def test_a_forked_worker_that_dies_is_an_error(monkeypatch):
    # a child killed mid-run writes no reply; the run must raise, not return
    # a result without that worker's trials, and still reap the child
    parent = os.getpid()

    def dying(a):
        if _worker(parent) == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(a)

    solve = experiment._spectral_norm
    _launcher(monkeypatch, True)
    monkeypatch.setattr(experiment, "_spectral_norm", dying)
    _cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="trial worker 1 ended without a result"):
        run_experiment(_cfg(trials=4, jobs=2))
    _nothing_to_reap()


def test_forked_workers_are_reaped(monkeypatch):
    # after a passing and a failing forked run, nothing is left to reap
    forked = []

    def recording_fork():
        pid = fork()
        forked.append(pid)
        return pid

    def failing(a):
        raise ElemsparseError("solve failed")

    fork = os.fork
    _launcher(monkeypatch, True)
    monkeypatch.setattr(experiment.os, "fork", recording_fork)
    _cpus(monkeypatch, 2)
    run_experiment(_cfg(trials=4, jobs=2))
    _nothing_to_reap()
    monkeypatch.setattr(experiment, "_spectral_norm", failing)
    with pytest.raises(ElemsparseError, match="solve failed"):
        run_experiment(_cfg(trials=4, jobs=2))
    _nothing_to_reap()
    assert len(forked) == 2


def test_a_forked_run_writes_buffered_output_once():
    # stdout to a pipe is block-buffered, so a line printed before the run is
    # still in the buffer when the children fork; each leaves by os._exit,
    # which flushes nothing, so the line is written once, by the parent
    code = (
        "import os\n"
        "import elemsparse\n"
        "from elemsparse import experiment\n"
        "forks, fork = [], os.fork\n"
        "def recording_fork():\n"
        "    forks.append(1)\n"
        "    return fork()\n"
        "experiment._fork_safe = lambda: True\n"
        "experiment.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "experiment.os.fork = recording_fork\n"
        "print('before the run')\n"
        "spec = elemsparse.GeneratorSpec('gaussian', 8, 10, 21)\n"
        "elemsparse.run_experiment(elemsparse.ExperimentConfig(spec, epsilon=4.0, s_override=60, trials=4, jobs=2))\n"
        "print(len(forks))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "before the run\n1\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity to set")
def test_workers_are_capped_by_the_usable_cpus():
    # a fresh interpreter whose BLAS runs on the calling thread, so it may
    # fork, restricted to one CPU forks no worker for --jobs 2 however many
    # the machine has; allowed two, it forks one
    code = (
        "import os, sys\n"
        "import elemsparse\n"
        "from elemsparse import experiment\n"
        "forks, fork = [], os.fork\n"
        "def recording_fork():\n"
        "    forks.append(1)\n"
        "    return fork()\n"
        "experiment.os.fork = recording_fork\n"
        "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(sys.argv[1])])\n"
        "assert experiment._fork_safe()\n"
        "spec = elemsparse.GeneratorSpec('gaussian', 8, 10, 21)\n"
        "elemsparse.run_experiment(elemsparse.ExperimentConfig(spec, epsilon=4.0, s_override=60, trials=4, jobs=2))\n"
        "print(len(os.sched_getaffinity(0)), len(forks))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for cpus in sorted({1, min(2, len(os.sched_getaffinity(0)))}):
        res = subprocess.run([sys.executable, "-c", code, str(cpus)], capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"{cpus} {cpus - 1}\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("s, tables", [(160, 1), (161, 0)], ids=["table", "multinomial"])  # 161: Poisson counts
def test_each_table_is_built_once_before_any_fork(monkeypatch, s, tables, jobs):
    # GEN has 80 cells: at s = 160 = 2 mn each distribution's inverse-CDF
    # table is built once per run, when its trial fill is set up, before any
    # worker forks, so no trial builds one, in the parent or in a child; at
    # s = 161 the Poisson path builds no table; either rule checks p once
    # per run, also before any fork
    built = np.frombuffer(mmap.mmap(-1, 32), dtype=np.int64)  # tables and sums, and those after a fork
    forks = []

    def counted(p):
        built[0] += 1
        built[1] += bool(forks)  # a child inherits the fork its parent recorded
        return inverse_cdf(p)

    def checked(p, head):
        built[2] += 1
        built[3] += bool(forks)
        return check_drawable(p, head)

    def recording_fork():
        forks.append(1)
        return fork()

    check_drawable = sampler._check_drawable
    monkeypatch.setattr(sampler, "_check_drawable", checked)
    inverse_cdf, fork = sampler._inverse_cdf, os.fork
    _launcher(monkeypatch, jobs > 1)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(sampler, "_inverse_cdf", counted)
    monkeypatch.setattr(experiment.os, "fork", recording_fork)
    for run, kinds in ((run_experiment, 1), (compare_distributions, 3)):
        built[:] = 0
        del forks[:]
        run(_cfg(trials=6, jobs=jobs, s_override=s))
        assert built.tolist() == [tables * kinds, 0, kinds, 0]
        assert len(forks) == jobs - 1
    _nothing_to_reap()


def test_fork_is_safe_on_linux_with_one_thread(monkeypatch, solves):
    # a fresh interpreter whose BLAS runs on the calling thread, as the
    # benchmark's, may fork on Linux; a second thread, a /proc that cannot
    # be read (a bare chroot) or another platform takes one worker, whose
    # run equals that of --jobs 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = "import numpy\nfrom elemsparse import experiment\nprint(experiment._fork_safe())\n"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{sys.platform == 'linux'}\n"
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert not experiment._fork_safe()
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()

    def no_proc(path):
        if str(path).startswith("/proc"):
            raise FileNotFoundError(2, "No such file or directory", path)
        return listdir(path)

    listdir = os.listdir
    monkeypatch.setattr(experiment.os, "listdir", no_proc)
    monkeypatch.setattr(experiment.sys, "platform", "linux")
    _cpus(monkeypatch, 2)
    assert not experiment._fork_safe()
    one = run_experiment(_cfg(trials=4, jobs=1))
    del solves[:]
    assert _without_walls(run_experiment(_cfg(trials=4, jobs=2))) == _without_walls(one)
    assert solves == [True] * 4
    monkeypatch.setattr(experiment.sys, "platform", "darwin")
    assert not experiment._fork_safe()


@pytest.mark.parametrize("kind", ["hybrid", "l1", "l2"])
def test_trial_difference_is_the_densified_sketch_minus_x(monkeypatch, kind):
    # the harness builds S - X from the drawn counts, never through a COO
    # sketch; each solved array must be that sketch's, bit for bit, and each
    # record's nnz that sketch's nnz, on all three paths of the draw rule: at
    # s = 900 on 600 cells the table draws, with leading cells of
    # probability 0; at s = 5000 Poisson counts and a top-up, and at
    # s = 2^53 + 1 multinomial, both with a last row of probability 0, so
    # the draw ends before the trailing cells
    operands = []

    def capture(a):
        operands.append(a.copy())
        return solve(a)

    solve = experiment._spectral_norm
    monkeypatch.setattr(experiment, "_spectral_norm", capture)
    assert sampler._by_table(900, 600) and sampler._by_poisson(5000, 600) and not sampler._by_poisson(2**53 + 1, 600)
    for s, zeros in ((900, np.s_[0, :5]), (5000, np.s_[-1, :]), (2**53 + 1, np.s_[-1, :])):
        a = generate_matrix(GeneratorSpec("low-rank-plus-noise", 30, 20, 4)).data.copy()
        a[zeros] = 0.0  # cells of probability 0 keep S - X = -x = 0
        x = DenseMatrix(a)
        seeds = tuple(range(2**64 - 4, 2**64 + 6))  # the draws wrap past 2^64
        del operands[:]
        fill = sampler._trial_fill(x, distribution_for_kind(x, kind), s)
        [records] = experiment._run_trials(x.shape, (fill,), seeds, 1)
        sketches = [sparsify(x, s, seed, kind).matrix for seed in seeds]
        expected = [_scatter(sk) - x.data for sk in sketches]
        assert np.stack(operands).tobytes() == np.stack(expected).tobytes()
        assert [nnz for _, nnz, _ in records] == [sk.nnz for sk in sketches]


def test_emitted_s_matches_bounds_module():
    x = generate_matrix(GEN)
    fro = frobenius_norm(x)
    for form, field in (
        (BoundForm.THEOREM1, "s_theorem1"),
        (BoundForm.UNSIMPLIFIED, "s_unsimplified"),
    ):
        cfg = _cfg(epsilon=0.5 * fro, s_override=None, bound_form=form, trials=1)
        res = run_experiment(cfg)
        assert res.s_used == getattr(res.bound_report, field)


def test_epsilon_rel_scales_frobenius_outside_corollary():
    x = generate_matrix(GEN)
    cfg = _cfg(epsilon=None, epsilon_rel=0.5, trials=1)
    res = run_experiment(cfg)
    assert res.epsilon_used == pytest.approx(0.5 * frobenius_norm(x), rel=1e-12)


def test_corollary_form_uses_spectral_scale():
    x = generate_matrix(GEN)
    sr = stable_rank(x)
    fro = frobenius_norm(x)
    cfg = _cfg(epsilon=None, epsilon_rel=0.9, bound_form=BoundForm.COROLLARY,
               s_override=None, trials=1)
    res = run_experiment(cfg)
    spec_norm = fro / math.sqrt(sr)
    assert res.epsilon_used == pytest.approx(0.9 * spec_norm, rel=1e-9)
    req = BoundRequest(x.m, x.n, res.epsilon_used, cfg.delta, 1.0, fro, stable_rank=sr)
    assert res.s_used == sample_size_corollary(req, 0.9)
    assert res.bound_report.s_corollary == res.s_used


@pytest.mark.parametrize("spec", [GEN, GeneratorSpec("power-law", 30, 20, 4), GeneratorSpec("binary", 5, 7, 1)],
                         ids=["gaussian", "power-law", "binary"])
def test_plan_matches_reference_bit_for_bit(spec):
    # the sampled sketches depend on every bit of probs, so the plan's shared
    # sums must give exactly what the formulas give when evaluated apart
    x = generate_matrix(spec)
    flat = x.flat()
    sq, ab = flat * flat, np.abs(flat)
    l2, l1 = sq / math.fsum(sq.tolist()), ab / math.fsum(ab.tolist())
    hybrid = 0.5 * (l2 + l1)
    plan = make_plan(x, ("hybrid", "l1", "l2"), bound_form=BoundForm.COROLLARY, epsilon_rel=0.9)
    for dist, probs in zip(plan.dists, (hybrid, l1, l2)):
        assert np.array_equal(dist.probs, probs)
        assert np.array_equal(dist.probs, distribution_for_kind(x, dist.kind).probs)
        nz = flat != 0.0
        assert dist.beta == float(min(1.0, (probs[nz] / hybrid[nz]).min()))
    assert plan.request.frobenius == frobenius_norm(x)
    assert plan.request.stable_rank == stable_rank(x)
    assert plan.s == plan.report.s_corollary


def _fsum_calls(monkeypatch, run) -> int:
    calls = []
    fsum = math.fsum

    def counted(values):
        calls.append(1)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    run()
    monkeypatch.undo()
    return len(calls)


def test_exact_sums_once_per_run(monkeypatch):
    # sum x^2 and sum |x| once each; the builder's own tables are not summed again
    corollary = _cfg(epsilon=None, epsilon_rel=0.9, bound_form=BoundForm.COROLLARY, trials=1)
    assert _fsum_calls(monkeypatch, lambda: compare_distributions(corollary)) == 2
    assert _fsum_calls(monkeypatch, lambda: run_experiment(_cfg(trials=1))) == 2


def test_failure_rate_is_exact_count():
    res = run_experiment(_cfg(epsilon=1e-6, trials=4))  # impossible target
    assert res.empirical_failure_rate == 1.0
    assert not res.passed


def test_beta_defaults_to_certificate():
    x = generate_matrix(GEN)
    fro = frobenius_norm(x)
    sized = _cfg(epsilon=0.5 * fro, s_override=None, trials=1)
    cert = distribution_for_kind(x, "l2").beta
    res = run_experiment(dataclasses.replace(sized, dist_kind="l2"))
    assert res.beta == cert
    assert res.s_used == sample_size_unsimplified(BoundRequest(x.m, x.n, 0.5 * fro, 0.5, cert, fro))
    # compare shares one s across kinds, sized at the hybrid's certificate
    shared = BoundRequest(x.m, x.n, 0.5 * fro, 0.5, 1.0, fro)
    assert [r.s_used for r in compare_distributions(sized)] == [sample_size_unsimplified(shared)] * 3
    assert sample_size_unsimplified(shared) < res.s_used


def test_payload_deterministic_excluding_wall_times():
    cfg = _cfg(trials=4)
    a = experiment_payload(run_experiment(cfg), cfg)
    b = experiment_payload(run_experiment(cfg), cfg)
    a.pop("wall_times")
    b.pop("wall_times")
    assert payload_text(a) == payload_text(b)


def test_payload_writes_numpy_scalars():
    # a config may hold numpy scalars: an np.int64 s_override, or True,
    # writes the documents of the plain int, and np.float32 targets are written as the
    # Python floats they hold
    def texts(cfg):
        docs = [experiment_payload(run_experiment(cfg), cfg), compare_payload(compare_distributions(cfg), cfg)]
        for doc in docs:
            doc.pop("wall_times")
        return [payload_text(doc) for doc in docs]

    assert texts(_cfg(s_override=np.int64(60))) == texts(_cfg(s_override=60))
    assert texts(_cfg(s_override=True)) == texts(_cfg(s_override=1))  # the s the run used, not true
    for field, cfg in (
        ("epsilon", _cfg(epsilon=np.float32(4.0))),
        ("epsilon_rel", _cfg(epsilon=None, epsilon_rel=np.float32(0.5))),
        ("delta", _cfg(delta=np.float32(0.25))),
    ):
        for text in texts(cfg):
            assert json.loads(text)["config"][field] == float(getattr(cfg, field))


# The documents' key trees. Every key of the experiment document is a field
# of ExperimentConfig, ExperimentResult or BoundReport, apart from what the
# payload builder renames or adds: config "dist", result "passed", and the
# source's keys. A field added to ExperimentResult reaches that JSON, and
# must be added here. The compare document writes the shared s_used,
# epsilon_used and seeds once and, under "kinds", each ExperimentResult's
# dist_kind as "kind", beta as "beta_certificate", the median_error and
# p90_error properties, errors and unconverged_trials.
_CONFIG_KEYS = {
    "base_seed": None, "bound_form": None, "delta": None, "epsilon": None, "epsilon_rel": None,
    "s_override": None, "trials": None,
}
_GENERATOR_SOURCE_KEYS = {
    "alpha": None, "generator": None, "kind": None, "m": None, "n": None, "noise": None, "rank": None, "seed": None,
}
_FILE_SOURCE_KEYS = {"format": None, "kind": None, "path": None}
_BOUND_REPORT_KEYS = {
    "case_used": None, "gamma": None, "rho2": None, "s_corollary": None, "s_theorem1": None,
    "s_unsimplified": None, "tail_at_s": None,
}
_KIND_KEYS = {
    "beta_certificate": None, "errors": None, "kind": None, "median_error": None, "p90_error": None,
    "unconverged_trials": None,
}


def _key_tree(doc):
    """doc with every leaf replaced by None; a sequence of dicts keeps one
    tree per entry, any other sequence is a leaf."""
    if isinstance(doc, dict):
        return {k: _key_tree(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)) and doc and isinstance(doc[0], dict):
        return [_key_tree(v) for v in doc]
    return None


def _as_lists(doc):
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_lists(v) for v in doc]
    return doc


def _assert_plain_round_trip(doc):
    """The written JSON reads back to plain types equal to doc (an enum
    value equals its string) and writes back to the same bytes."""
    text = payload_text(doc)
    plain = json.loads(text)
    assert plain == _as_lists(doc)
    assert payload_text(plain) == text


def test_payload_shape():
    cfg = _cfg(trials=2)
    res = run_experiment(cfg)
    doc = experiment_payload(res, cfg)
    assert _key_tree(doc) == {
        "command": None,
        "config": {**_CONFIG_KEYS, "dist": None, "source": _GENERATOR_SOURCE_KEYS},
        "result": {
            "beta": None, "bound_report": _BOUND_REPORT_KEYS, "delta": None, "empirical_failure_rate": None,
            "epsilon_used": None, "errors": None, "nnz_ratio": None, "passed": None, "s_used": None,
            "seeds": None, "unconverged_trials": None,
        },
        "schema_version": None,
        "wall_times": None,
    }
    assert doc["schema_version"] == 3
    assert doc["command"] == "experiment"
    assert doc["config"]["dist"] == "hybrid"
    assert doc["config"]["source"]["kind"] == "generator"
    assert len(doc["result"]["errors"]) == len(doc["wall_times"]) == 2
    assert doc["result"]["unconverged_trials"] == 0
    assert doc["result"]["passed"] is res.passed
    assert doc["result"]["bound_report"]["s_unsimplified"] >= 1
    _assert_plain_round_trip(doc)


def test_unconverged_trials_are_counted(monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    res = run_experiment(_cfg(trials=3))
    assert res.unconverged_trials == 3
    # the failure rate still compares every reported error against epsilon
    assert res.empirical_failure_rate == sum(e > res.epsilon_used for e in res.errors) / 3
    # but an uncertified trial is never a pass
    assert res.passed is False


def test_compare_counts_unconverged_trials(monkeypatch):
    cfg = _cfg(trials=2)
    monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    res = compare_distributions(cfg)
    assert [r.unconverged_trials for r in res] == [2, 2, 2]
    kinds = compare_payload(res, cfg)["result"]["kinds"]
    assert [k["unconverged_trials"] for k in kinds] == [2, 2, 2]
    monkeypatch.undo()
    kinds = compare_payload(compare_distributions(cfg), cfg)["result"]["kinds"]
    assert [k["unconverged_trials"] for k in kinds] == [0, 0, 0]


# Nonnegative finite errors: 0, or a magnitude from 1e-300 to 1e300, drawn
# either as any float in range or with a uniform binary exponent; drawing a
# list from a pool of them gives ties.
_ERROR = st.just(0.0) | st.floats(1e-300, 1e300) | st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-995, 996))
_ERRORS = st.lists(_ERROR, min_size=1, max_size=300) | st.lists(_ERROR, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)
)


@settings(max_examples=400, deadline=None)
@given(_ERRORS)
@example([1e-300])
@example([2.0, 1.0])
@example([1e300, 1e300, 1e-300])
@example([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1])
def test_median_and_p90_match_numpy(errors):
    median, p90 = experiment._median_and_p90(tuple(errors))
    assert [type(median), type(p90)] == [float, float]
    assert median.hex() == float(np.median(errors)).hex()
    assert p90.hex() == float(np.percentile(errors, 90.0)).hex()


def test_compare_runs_all_kinds_at_shared_s():
    cfg = _cfg(trials=3)
    res = compare_distributions(cfg)
    assert [r.dist_kind for r in res] == [
        DistributionKind.HYBRID,
        DistributionKind.PURE_L1,
        DistributionKind.PURE_L2,
    ]
    for r in res:
        assert r.s_used == 60
        assert r.seeds == (5, 6, 7)
        assert len(r.errors) == 3
        assert r.median_error == float(np.median(r.errors))
        assert r.p90_error == float(np.percentile(r.errors, 90.0))


def test_compare_identical_errors_when_distributions_coincide(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("2,2\n2,2\n")  # all three distributions are uniform here
    cfg = ExperimentConfig(source=FileSource(str(path)), epsilon=1.0, s_override=25, trials=4)
    res = compare_distributions(cfg)
    for r in res[1:]:
        assert r.errors == res[0].errors


def test_compare_reports_toy_certificates(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("3,4\n0,0\n")
    cfg = ExperimentConfig(source=FileSource(str(path)), epsilon=1.0, s_override=10, trials=2)
    res = compare_distributions(cfg)
    certs = {r.dist_kind.value: r.beta for r in res}
    assert certs["hybrid"] == 1.0
    assert certs["l1"] == pytest.approx(50 / 53, rel=1e-12)
    assert certs["l2"] == pytest.approx(21 / 23, rel=1e-12)


def test_zero_certificate_refused_alone_reported_in_compare(tmp_path):
    path = tmp_path / "tiny_cell.csv"
    path.write_text("1e-200,2\n3,0\n")  # the l2 share of the 1e-200 cell underflows
    cfg = ExperimentConfig(source=FileSource(str(path)), epsilon_rel=0.5, dist_kind="l2", trials=2)
    with pytest.raises(ZeroProbabilityError, match=r"x\[0, 0\] = 1e-200 .* hybrid or l1"):
        run_experiment(cfg)
    certs = [r.beta for r in compare_distributions(cfg)]
    assert certs[0] == 1.0 and certs[1] > 0.0 and certs[2] == 0.0
    path.write_text("5e-324,1\n1,0\n")  # both shares of the subnormal cell underflow
    with pytest.raises(ZeroProbabilityError, match=r"x\[0, 0\] = 5e-324 .* certifies it$"):
        run_experiment(dataclasses.replace(cfg, dist_kind="hybrid"))
    assert [r.beta for r in compare_distributions(cfg)] == [0.0] * 3


def test_compare_csv_row_count(tmp_path):
    # compare_distributions returns a result; the CSV table and the file write
    # are the CLI's, so render and write it through the same helpers.
    from elemsparse.cli import _compare_csv, _write

    out = tmp_path / "cmp.csv"
    _write(_compare_csv(compare_distributions(_cfg(trials=5))), str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("kind,trial,seed,error")
    assert len(lines) == 1 + 3 * 5


def test_compare_payload_shape(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("3,4,0\n1,-2,5\n")
    cfg = _cfg(source=FileSource(str(path)), trials=2)
    doc = compare_payload(compare_distributions(cfg), cfg)
    assert _key_tree(doc) == {
        "command": None,
        "config": {**_CONFIG_KEYS, "source": _FILE_SOURCE_KEYS},
        "result": {"epsilon_used": None, "kinds": [_KIND_KEYS] * 3, "s_used": None, "seeds": None},
        "schema_version": None,
        "wall_times": {"hybrid": None, "l1": None, "l2": None},
    }
    assert doc["schema_version"] == 3
    assert doc["command"] == "compare"
    assert doc["config"]["source"] == {"format": None, "kind": "file", "path": str(path)}
    assert [k["kind"] for k in doc["result"]["kinds"]] == ["hybrid", "l1", "l2"]
    assert all(len(walls) == 2 for walls in doc["wall_times"].values())
    _assert_plain_round_trip(doc)
