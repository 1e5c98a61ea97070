"""Acceptance checks. Each test prints exactly one line

    criterion NN PASS|FAIL: <label>

Run with ``pytest tests/test_acceptance.py -s`` to see every line; without
``-s`` pytest replays the output of failing tests only.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from elemsparse import (
    BoundForm,
    BoundRequest,
    DenseMatrix,
    DistributionKind,
    ExperimentConfig,
    GeneratorSpec,
    beta_certificate,
    bound_report,
    build_alias_table,
    distribution_for_kind,
    draw_samples,
    frobenius_norm,
    generate_matrix,
    hybrid_distribution,
    run_experiment,
    sampling_operator,
    spectral_norm,
)
from elemsparse import spectral
from elemsparse.bounds import (
    Theorem1Case,
    bernstein_tail,
    exact_second_moment,
    gamma_rho_bounds,
    mt_spectral_norm,
    sample_size_corollary,
    sample_size_theorem1,
    sample_size_unsimplified,
)
from elemsparse.matrix import coo_to_dense
from elemsparse.sampler import exact_expectation

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num:02d}: {label}"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9)


def test_criterion_01_formula_exactness():
    req = BoundRequest(100, 100, 1.0, 0.1, 1.0, 10.0)
    s1, case1 = sample_size_theorem1(req)
    s2, case2 = sample_size_theorem1(BoundRequest(100, 100, 20.0, 0.1, 1.0, 10.0))
    s_un = sample_size_unsimplified(req)
    s_cor = sample_size_corollary(
        BoundRequest(100, 100, 1.0, 0.1, 1.0, 10.0, stable_rank=10.0), 0.5
    )
    tail = bernstein_tail(1, 1, 2, 1.0, 1.0, 0.0)
    gamma, rho2 = gamma_rho_bounds(DenseMatrix([[3.0, 4.0], [0.0, 0.0]]), 1.0)
    ok = (
        (s1, case1) == (456055, Theorem1Case.CASE_I)
        and (s2, case2) == (2281, Theorem1Case.CASE_II)
        and s_un == 319238
        and s_cor == 182422
        and _close(tail, 2.0 * math.exp(-1.0))
        and _close(gamma, 30.0)
        and _close(rho2, 100.0)
    )
    _report(1, "closed-form sample sizes and tail quantities match worked values", ok)


def test_criterion_02_exact_unbiasedness():
    from elemsparse.generate import GENERATOR_KINDS

    rg = np.random.default_rng(20260814)
    ok = True
    for t in range(100):
        m = int(rg.integers(1, 31))
        n = int(rg.integers(1, 31))
        spec = GeneratorSpec(GENERATOR_KINDS[t % 4], m, n, seed=3000 + t)
        x = generate_matrix(spec)
        e = exact_expectation(x, hybrid_distribution(x))
        if not np.allclose(e.data, x.data, rtol=1e-12, atol=1e-12):
            ok = False
            break
    _report(2, "exact_expectation reproduces X on 100 random matrices", ok)


def test_criterion_03_stochastic_unbiasedness():
    x = DenseMatrix([
        [4.0, -2.0, 0.0, 1.0, 3.0],
        [0.5, 0.0, -1.5, 2.0, -3.0],
        [1.0, 2.5, 0.0, -0.5, 1.5],
        [-2.0, 0.0, 3.5, 1.0, -1.0],
        [0.0, 1.0, -2.5, 0.0, 2.0],
    ])
    d = hybrid_distribution(x)
    n_sketches = 100_000
    # The mean of N single-draw sketches equals one N-draw operator output
    # (same i.i.d. cell draws, same 1/(N p) weights), so assemble it directly.
    omega = draw_samples(build_alias_table(d), n_sketches, seed=424242)
    mean = coo_to_dense(sampling_operator(x, d, omega).matrix).data
    p = d.grid()
    nz = x.data != 0.0
    half = np.zeros_like(x.data)
    half[nz] = 4.0 * np.sqrt(x.data[nz] ** 2 * (1.0 - p[nz]) / p[nz] / n_sketches)
    inside = np.abs(mean - x.data) <= half
    ok = bool(np.all(inside[nz])) and bool(np.all(mean[~nz] == 0.0))
    _report(3, "mean of 1e5 single-draw sketches inside per-entry 4-sigma CI", ok)


def test_criterion_04_guarantee_at_desk_scale():
    cfg = ExperimentConfig(
        source=GeneratorSpec("gaussian", 50, 60, 7),
        epsilon_rel=0.5,
        delta=0.2,
        bound_form=BoundForm.THEOREM1,
        trials=100,
        base_seed=1,
    )
    res = run_experiment(cfg)
    ok = (
        res.s_used == 9087
        and res.bound_report.case_used == Theorem1Case.CASE_I
        and res.empirical_failure_rate <= 0.2
    )
    _report(4, f"s=9087 run fails {res.empirical_failure_rate:.2f} <= delta=0.2", ok)


def test_criterion_05_error_scaling():
    medians = []
    for s in (568, 4 * 568, 16 * 568):
        cfg = ExperimentConfig(
            source=GeneratorSpec("gaussian", 50, 60, 7),
            epsilon_rel=0.5,
            delta=0.2,
            s_override=s,
            trials=100,
            base_seed=11,
        )
        medians.append(float(np.median(run_experiment(cfg).errors)))
    r1 = medians[1] / medians[0]
    r2 = medians[2] / medians[1]
    ok = 0.35 <= r1 <= 0.65 and 0.35 <= r2 <= 0.65
    _report(5, f"median error ratios {r1:.3f}, {r2:.3f} in [0.35, 0.65]", ok)


def _lemma_fixtures():
    mats = [
        DenseMatrix([[3.0, 4.0], [0.0, 0.0]]),
        DenseMatrix([[2.5]]),
        DenseMatrix(np.eye(3)),
        DenseMatrix([[1.0, -1.0, 2.0], [0.0, 4.0, 0.0]]),
    ]
    sizes = [(2, 2), (3, 5), (5, 3), (8, 8), (1, 8), (8, 1), (4, 4), (7, 2)]
    from elemsparse.generate import GENERATOR_KINDS

    for t, (m, n) in enumerate(sizes):
        mats.append(generate_matrix(GeneratorSpec(GENERATOR_KINDS[t % 4], m, n, seed=500 + t)))
    return mats


_LEMMA_KINDS = (DistributionKind.HYBRID, DistributionKind.PURE_L1, DistributionKind.PURE_L2)


def test_criterion_06_single_outcome_norm_bound(monkeypatch):
    violations = 0
    monkeypatch.setattr(spectral, "_TOL", 1e-12)
    for x in _lemma_fixtures():
        for kind in _LEMMA_KINDS:
            d = distribution_for_kind(x, kind)
            cert = beta_certificate(x, d.probs)
            gamma, _ = gamma_rho_bounds(x, cert)
            for i in range(x.m):
                for j in range(x.n):
                    if x.data[i, j] == 0.0:
                        continue
                    if mt_spectral_norm(x, d, (i, j)) > gamma * (1.0 + 1e-9):
                        violations += 1
    _report(6, "every single-outcome deviation norm within its gamma bound", violations == 0)


def test_criterion_07_second_moment_bound():
    violations = 0
    for x in _lemma_fixtures():
        fro2 = frobenius_norm(x) ** 2
        for kind in _LEMMA_KINDS:
            d = distribution_for_kind(x, kind)
            cert = beta_certificate(x, d.probs)
            esm = exact_second_moment(x, d)
            esm_t = exact_second_moment(DenseMatrix(x.data.T), d.transpose())
            norm = spectral_norm(esm.data).value
            norm_t = spectral_norm(esm_t.data).value
            eigs = np.linalg.eigvalsh(esm.data)
            psd_ok = eigs.min() >= -1e-9 * max(1.0, float(eigs.max()))
            if norm > 2.0 * x.n * fro2 / cert * (1.0 + 1e-9):
                violations += 1
            if norm_t > 2.0 * x.m * fro2 / cert * (1.0 + 1e-9):
                violations += 1
            if not psd_ok:
                violations += 1
    _report(7, "second-moment norms within 2nF^2/beta (and transpose), PSD", violations == 0)


def test_criterion_08_tail_matches_sample_size():
    rg = np.random.default_rng(88)
    worst = -math.inf
    for _ in range(10_000):
        m = int(rg.integers(1, 201))
        n = int(rg.integers(1, 201))
        fro = float(rg.uniform(0.1, 100.0))
        epsilon = fro * float(rg.uniform(0.05, 5.0))
        delta = float(rg.uniform(0.01, 0.99))
        beta = float(rg.uniform(0.05, 1.0))
        req = BoundRequest(m, n, epsilon, delta, beta, fro)
        rep = bound_report(req)
        tail = bernstein_tail(m, n, rep.s_unsimplified, epsilon, rep.rho2, rep.gamma)
        assert tail == rep.tail_at_s
        worst = max(worst, tail - delta)
    _report(8, f"tail at s_unsimplified exceeds delta by at most {worst:.2e} <= 1e-9",
            worst <= 1e-9)


def test_criterion_09_spectral_oracle_agreement():
    doc = json.loads((FIXTURE_DIR / "spectral_oracle.json").read_text())
    worst = 0.0
    for case in doc["cases"]:
        x = generate_matrix(GeneratorSpec(
            case["kind"], case["m"], case["n"], case["seed"],
            alpha=case["alpha"], rank=case["rank"], noise=case["noise"],
        ))
        est = spectral_norm(x.data).value
        worst = max(worst, abs(est - case["sigma_max"]) / case["sigma_max"])
    _report(9, f"worst relative error vs {len(doc['cases'])} SVD oracles {worst:.2e} <= 1e-9",
            worst <= 1e-9)


def test_criterion_10_cli_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "elemsparse", "experiment",
             "--generate", "gaussian,12,9,4", "--epsilon-rel", "0.8",
             "--delta", "0.3", "--s", "200", "--trials", "6", "--seed", "2",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode in (0, 2), res.stderr
        doc = json.loads(out.read_text())
        doc.pop("wall_times")
        outs.append(json.dumps(doc, sort_keys=True, indent=2))
    _report(10, "repeated experiment runs byte-identical apart from wall_times",
            outs[0] == outs[1])
