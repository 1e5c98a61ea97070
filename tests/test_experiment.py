import dataclasses
import json
import math
import re
import sys
import threading
import time

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
from elemsparse import experiment, spectral
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
        (dict(epsilon=-1.0), "epsilon must be positive and finite, got -1.0"),
        (dict(epsilon=None, epsilon_rel=math.inf), "epsilon_rel must be positive and finite, got inf"),
        (dict(delta=1.0), "delta must lie in (0, 1), got 1.0"),
        (dict(bound_form=BoundForm.COROLLARY), "bound_form=corollary needs epsilon_rel, not an absolute epsilon"),
        (dict(epsilon_rel=0.5), "give one of epsilon and epsilon_rel, not both"),
    ],
    ids=["s", "epsilon", "epsilon_rel", "delta", "corollary", "both-targets"],
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


def test_seeds_derived_from_base():
    res = run_experiment(_cfg(trials=4, base_seed=100))
    assert res.seeds == (100, 101, 102, 103)
    wrapped = (2**64 - 2, 2**64 - 1, 0, 1)
    assert run_experiment(_cfg(trials=4, base_seed=2**64 - 2)).seeds == wrapped
    assert compare_distributions(_cfg(trials=4, base_seed=2**64 - 2)).seeds == wrapped


def test_jobs_do_not_change_results():
    # each wall time is one trial's own: draw, assembly and solve
    runs = [run_experiment(_cfg(trials=8, jobs=jobs)) for jobs in (1, 2, 3)]
    x = generate_matrix(GEN)
    sketches = [sparsify(x, 60, seed) for seed in runs[0].seeds]
    alone = tuple(sketch_error(x, sk).value for sk in sketches)
    for res in runs:
        assert len(res.wall_times) == 8
        assert all(wall > 0.0 for wall in res.wall_times)
        assert res.errors == alone
        assert res.nnz_ratio == float(np.mean([sk.matrix.nnz / (x.m * x.n) for sk in sketches]))
        assert res.unconverged_trials == 0


def _without_walls(result):
    return dataclasses.replace(result, wall_times=None)


def test_compare_jobs_do_not_change_results(monkeypatch):
    # each kind's column is what experiment gives for that kind at the same
    # s and seeds, however many workers share the trials; eight workers,
    # more than the cores, switching threads often, lose no record
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [compare_distributions(_cfg(trials=4, jobs=jobs)) for jobs in (1, 2, 3, 8)]
    finally:
        sys.setswitchinterval(interval)
    assert all(_without_walls(res) == _without_walls(runs[0]) for res in runs[1:])
    for summ in runs[0].summaries:
        assert summ.errors == run_experiment(_cfg(trials=4, dist_kind=summ.kind)).errors
    for res in runs:
        assert [len(walls) for walls in res.wall_times.values()] == [4, 4, 4]


def test_workers_never_outnumber_trials(monkeypatch):
    # each run starts its workers in its one _run_trials call, for every
    # (distribution, seed) trial, and solves nothing outside it; a run asked
    # for more workers than there are trials or CPUs gets the smaller count,
    # and one worker when the CPU count is unknown. The calling thread is
    # worker 0, so w workers start w - 1 threads.
    started, calls, solves = [], [], []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def counted(*args):
        calls.append(True)
        try:
            return run_trials(*args)
        finally:
            calls.append(False)

    def recorded(a):
        solves.append(calls[-1:] == [True])  # while _run_trials runs
        return solve(a)

    run_trials, solve = experiment._run_trials, experiment._spectral_norm
    one = run_experiment(_cfg(trials=3, jobs=1))
    one_each = compare_distributions(_cfg(trials=1, jobs=1))
    monkeypatch.setattr(experiment.threading, "Thread", Recording)
    monkeypatch.setattr(experiment, "_run_trials", counted)
    monkeypatch.setattr(experiment, "_spectral_norm", recorded)
    for cpus, workers in ((8, 3), (2, 2), (None, 1)):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        for run, trials, alone in ((run_experiment, 3, one), (compare_distributions, 1, one_each)):
            del started[:], calls[:], solves[:]
            capped = run(_cfg(trials=trials, jobs=1000))
            assert len(started) == workers - 1
            assert not any(thread.is_alive() for thread in started)
            assert calls == [True, False]
            assert solves == [True] * 3
            assert _without_walls(capped) == _without_walls(alone)
            assert len(capped.wall_times) == 3


@pytest.mark.parametrize("run", [run_experiment, compare_distributions])
def test_one_job_solves_every_trial_on_the_calling_thread(monkeypatch, run):
    # worker 0 is the caller, so --jobs 1 starts no thread however many CPUs
    solved_on = []

    def recorded(a):
        solved_on.append(threading.current_thread())
        return solve(a)

    def no_thread(*args, **kwargs):
        raise AssertionError("a jobs=1 run started a thread")

    solve = experiment._spectral_norm
    monkeypatch.setattr(experiment, "_spectral_norm", recorded)
    monkeypatch.setattr(experiment.threading, "Thread", no_thread)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
    run(_cfg(trials=4, jobs=1))
    assert solved_on == [threading.current_thread()] * (4 if run is run_experiment else 12)


@pytest.mark.parametrize(
    "run, kind, before",
    [(run_experiment, "hybrid", 0), (compare_distributions, "hybrid", 0), (compare_distributions, "l1", 20)],
    ids=["run_experiment", "compare_distributions", "compare_distributions-l1"],
)
def test_a_worker_error_is_raised(monkeypatch, run, kind, before):
    # Two workers run the even and the odd trials. The first solve of kind
    # once both have started fails, and each solve sleeps so that both run at
    # once. compare runs every kind's trials in one _run_trials call, so
    # the failing worker runs its 20 of the 40 hybrid trials
    # before an l1 one. The run must raise that error rather than return, or
    # trip over the record it never stored, and after it the other worker
    # may start at most the one trial it may already be past its check for;
    # without the stop it would run its whole share.
    probs = distribution_for_kind(generate_matrix(GEN), kind).probs
    starts, failed_at = [], []  # the worker, by seed parity, of each trial started
    current = threading.local()
    lock = threading.Lock()

    def draw(p, s, seed):
        with lock:
            starts.append(seed % 2)
        current.fails = np.array_equal(p, probs)
        return draw_counts(p, s, seed)

    def failing(a):
        with lock:
            if current.fails and not failed_at and len(set(starts)) == 2:
                failed_at.append(len(starts))
                raise ElemsparseError("solve failed")
        time.sleep(0.001)
        return solve(a)

    draw_counts, solve = experiment._draw_counts, experiment._spectral_norm
    monkeypatch.setattr(experiment, "_draw_counts", draw)
    monkeypatch.setattr(experiment, "_spectral_norm", failing)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    with pytest.raises(ElemsparseError, match="solve failed"):
        run(_cfg(trials=40, jobs=2))
    assert failed_at[0] > before
    assert len(starts) <= failed_at[0] + 1


def test_the_lowest_failing_worker_error_is_raised(monkeypatch):
    # both workers fail their first trial, worker 1 first in time; the run
    # joins both and raises worker 0's error, as reading the workers'
    # results in order would
    barrier = threading.Barrier(2, timeout=10)
    current = threading.local()

    def draw(p, s, seed):
        current.worker = (seed - 5) % 2  # the config's base seed is 5
        return draw_counts(p, s, seed)

    def failing(a):
        barrier.wait()
        if current.worker == 0:
            time.sleep(0.02)
        raise ElemsparseError(f"worker {current.worker} failed")

    draw_counts = experiment._draw_counts
    monkeypatch.setattr(experiment, "_draw_counts", draw)
    monkeypatch.setattr(experiment, "_spectral_norm", failing)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    with pytest.raises(ElemsparseError, match="worker 0 failed"):
        run_experiment(_cfg(trials=4, jobs=2))


@pytest.mark.parametrize("kind", ["hybrid", "l1", "l2"])
def test_trial_difference_is_the_densified_sketch_minus_x(monkeypatch, kind):
    # the harness builds S - X from the drawn counts, never through a COO
    # sketch; each solved array must be that sketch's, bit for bit, and each
    # record's nnz that sketch's nnz
    operands = []

    def capture(a):
        operands.append(a.copy())
        return solve(a)

    solve = experiment._spectral_norm
    monkeypatch.setattr(experiment, "_spectral_norm", capture)
    a = generate_matrix(GeneratorSpec("low-rank-plus-noise", 30, 20, 4)).data.copy()
    a[0, :5] = 0.0  # cells of probability 0 keep S - X = -x = 0
    x = DenseMatrix(a)
    seeds = tuple(range(2**64 - 4, 2**64 + 6))  # the draws wrap past 2^64
    [records] = experiment._run_trials(x, (distribution_for_kind(x, kind),), 900, seeds, 1)
    sketches = [sparsify(x, 900, seed, kind).matrix for seed in seeds]
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
    # sum x^2 and sum |x| once each, plus one sum check per built distribution
    corollary = _cfg(epsilon=None, epsilon_rel=0.9, bound_form=BoundForm.COROLLARY, trials=1)
    assert _fsum_calls(monkeypatch, lambda: compare_distributions(corollary)) == 2 + 3
    assert _fsum_calls(monkeypatch, lambda: run_experiment(_cfg(trials=1))) == 2 + 1


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
    assert compare_distributions(sized).s_used == sample_size_unsimplified(shared) < res.s_used


def test_payload_deterministic_excluding_wall_times():
    cfg = _cfg(trials=4)
    a = experiment_payload(run_experiment(cfg), cfg)
    b = experiment_payload(run_experiment(cfg), cfg)
    a.pop("wall_times")
    b.pop("wall_times")
    assert payload_text(a) == payload_text(b)


# The documents' key trees. Every key is a field of ExperimentConfig,
# ExperimentResult, CompareResult, KindSummary or BoundReport, apart from
# what the payload builder renames or adds: config "dist", result "passed"
# and "kinds", and the source's keys. A field added to a result dataclass
# reaches the JSON, and must be added here.
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
    assert [summ.unconverged_trials for summ in res.summaries] == [2, 2, 2]
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
    assert [s.kind for s in res.summaries] == [
        DistributionKind.HYBRID,
        DistributionKind.PURE_L1,
        DistributionKind.PURE_L2,
    ]
    assert res.s_used == 60
    assert res.seeds == (5, 6, 7)
    for summ in res.summaries:
        assert len(summ.errors) == 3
        assert summ.median_error == float(np.median(summ.errors))


def test_compare_identical_errors_when_distributions_coincide(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("2,2\n2,2\n")  # all three distributions are uniform here
    cfg = ExperimentConfig(source=FileSource(str(path)), epsilon=1.0, s_override=25, trials=4)
    res = compare_distributions(cfg)
    base = res.summaries[0].errors
    for summ in res.summaries[1:]:
        assert summ.errors == base


def test_compare_reports_toy_certificates(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("3,4\n0,0\n")
    cfg = ExperimentConfig(source=FileSource(str(path)), epsilon=1.0, s_override=10, trials=2)
    res = compare_distributions(cfg)
    certs = {s.kind.value: s.beta_certificate for s in res.summaries}
    assert certs["hybrid"] == 1.0
    assert certs["l1"] == pytest.approx(50 / 53, rel=1e-12)
    assert certs["l2"] == pytest.approx(21 / 23, rel=1e-12)


def test_zero_certificate_refused_alone_reported_in_compare(tmp_path):
    path = tmp_path / "tiny_cell.csv"
    path.write_text("1e-200,2\n3,0\n")  # the l2 share of the 1e-200 cell underflows
    cfg = ExperimentConfig(source=FileSource(str(path)), epsilon_rel=0.5, dist_kind="l2", trials=2)
    with pytest.raises(ZeroProbabilityError, match=r"x\[0, 0\] = 1e-200 .* hybrid or l1"):
        run_experiment(cfg)
    certs = [summ.beta_certificate for summ in compare_distributions(cfg).summaries]
    assert certs[0] == 1.0 and certs[1] > 0.0 and certs[2] == 0.0
    path.write_text("5e-324,1\n1,0\n")  # both shares of the subnormal cell underflow
    with pytest.raises(ZeroProbabilityError, match=r"x\[0, 0\] = 5e-324 .* certifies it$"):
        run_experiment(dataclasses.replace(cfg, dist_kind="hybrid"))
    assert [summ.beta_certificate for summ in compare_distributions(cfg).summaries] == [0.0] * 3


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
