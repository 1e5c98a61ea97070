import json
import math

import numpy as np
import pytest

from elemsparse import (
    BoundForm,
    BoundRequest,
    DistributionKind,
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
from elemsparse.bounds import sample_size_corollary
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
    with pytest.raises(InvalidSpecError):
        _cfg(epsilon=None)  # neither epsilon nor epsilon_rel
    with pytest.raises(InvalidSpecError):
        _cfg(epsilon_rel=0.5)  # both set
    with pytest.raises(InvalidSpecError):
        _cfg(epsilon=-1.0)
    with pytest.raises(InvalidSpecError):
        _cfg(delta=1.0)
    with pytest.raises(InvalidSpecError):
        _cfg(beta=1.5)
    with pytest.raises(InvalidSpecError):
        _cfg(s_override=0)
    with pytest.raises(InvalidSpecError):
        _cfg(trials=0)
    with pytest.raises(InvalidSpecError):
        _cfg(jobs=0)
    with pytest.raises(InvalidSpecError):
        _cfg(base_seed=-1)
    with pytest.raises(InvalidSpecError):
        _cfg(dist_kind="custom")
    with pytest.raises(InvalidSpecError):
        _cfg(bound_form=BoundForm.COROLLARY)  # corollary wants epsilon_rel


def test_config_accepts_plain_strings():
    cfg = _cfg(dist_kind="l1", bound_form="theorem1")
    assert cfg.dist_kind is DistributionKind.PURE_L1
    assert cfg.bound_form is BoundForm.THEOREM1


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


def test_jobs_do_not_change_results(monkeypatch):
    # batches of 3 make 8 trials two full batches and a partial one; each
    # trial's wall time is its batch's over the batch size
    monkeypatch.setattr(experiment, "_BATCH_BYTES", 3 * 8 * GEN.m * GEN.n)
    runs = [run_experiment(_cfg(trials=8, jobs=jobs)) for jobs in (1, 2, 3)]
    for res in runs:
        assert [len(set(res.wall_times[lo : lo + 3])) for lo in (0, 3, 6)] == [1, 1, 1]
        assert len(set(res.wall_times)) == 3
    monkeypatch.setattr(experiment, "_BATCH_BYTES", 0)  # one trial per batch
    runs.append(run_experiment(_cfg(trials=8, jobs=2)))
    x = generate_matrix(GEN)
    alone = tuple(sketch_error(x, sparsify(x, 60, seed)).value for seed in runs[0].seeds)
    for res in runs:
        assert res.errors == alone
        assert res.nnz_ratio == runs[0].nnz_ratio
        assert res.unconverged_trials == 0


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
    assert plan.sum_sq == math.fsum(sq.tolist()) and plan.abs_sum == math.fsum(ab.tolist())
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
    res = run_experiment(_cfg(dist_kind="l2", trials=1))
    x = generate_matrix(GEN)
    from elemsparse import l2_distribution

    cert = l2_distribution(x).beta
    assert res.beta == cert
    forced = run_experiment(_cfg(dist_kind="l2", trials=1, beta=cert / 2))
    assert forced.beta == cert / 2


def test_beta_above_certificate_rejected():
    # the l2 certificate of GEN is about 5e-3: a beta of 0.25 would size s
    # about 50x too small for what the distribution supports
    with pytest.raises(InvalidSpecError, match="certificate"):
        run_experiment(_cfg(dist_kind="l2", trials=1, beta=0.25))
    # compare shares one s across kinds and keeps the requested beta
    assert compare_distributions(_cfg(trials=1, beta=0.25)).s_used == 60


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
    "base_seed": None, "beta": None, "bound_form": None, "delta": None, "epsilon": None, "epsilon_rel": None,
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
    assert doc["schema_version"] == 2
    assert doc["command"] == "experiment"
    assert doc["config"]["dist"] == "hybrid"
    assert doc["config"]["source"]["kind"] == "generator"
    assert len(doc["result"]["errors"]) == len(doc["wall_times"]) == 2
    assert doc["result"]["unconverged_trials"] == 0
    assert doc["result"]["passed"] is res.passed
    assert doc["result"]["bound_report"]["s_unsimplified"] >= 1
    _assert_plain_round_trip(doc)


def test_unconverged_trials_are_counted(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    res = run_experiment(_cfg(trials=3))
    assert res.unconverged_trials == 3
    # the failure rate still compares every reported error against epsilon
    assert res.empirical_failure_rate == sum(e > res.epsilon_used for e in res.errors) / 3
    # but an uncertified trial is never a pass
    assert res.passed is False


def test_compare_counts_unconverged_trials(monkeypatch):
    cfg = _cfg(trials=2)
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    res = compare_distributions(cfg)
    assert [summ.unconverged_trials for summ in res.summaries] == [2, 2, 2]
    kinds = compare_payload(res, cfg)["result"]["kinds"]
    assert [k["unconverged_trials"] for k in kinds] == [2, 2, 2]
    monkeypatch.undo()
    kinds = compare_payload(compare_distributions(cfg), cfg)["result"]["kinds"]
    assert [k["unconverged_trials"] for k in kinds] == [0, 0, 0]


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
    assert doc["schema_version"] == 2
    assert doc["command"] == "compare"
    assert doc["config"]["source"] == {"format": None, "kind": "file", "path": str(path)}
    assert [k["kind"] for k in doc["result"]["kinds"]] == ["hybrid", "l1", "l2"]
    assert all(len(walls) == 2 for walls in doc["wall_times"].values())
    _assert_plain_round_trip(doc)
