"""Acceptance criteria.

Each test enforces one shipped criterion at its stated tolerance and prints
a single pass/fail line. The two full verification-suite runs used by the
ratio and determinism criteria are shared module-scoped fixtures.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from fracbesov.fractional import (
    frac_power,
    frac_power_unified,
    frac_power_via_semigroup,
    reproducing_residual,
    semigroup_apply,
    spectral_frac_power,
)
from fracbesov.gammafn import balakrishnan_prefactor, reciprocal_beta_prefactor
from fracbesov.harness import reports_to_json, run_suite
from fracbesov.operators import OperatorHandle, build_operator
from fracbesov.quadrature import integrate_multiplicative

RATIO_CHECK_IDS = [
    "k_independence", "alpha_independence", "full_independence",
    "homog_independence", "continuity_equiv", "translation", "lifting_pos",
    "lifting_equiv", "reiteration", "interpolation", "semigroup_norm",
    "homog_semigroup_norm", "subordinated_norm", "inhom_homog_cap",
    "ellq_operator", "classical_torus",
]


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def suite_run():
    t0 = time.perf_counter()
    reports = run_suite()
    elapsed = time.perf_counter() - t0
    return {r.check_id: r for r in reports}, reports_to_json(reports), elapsed


@pytest.fixture(scope="module")
def suite_rerun():
    return reports_to_json(run_suite())


def _random_spd(rng, max_n=32):
    n = int(rng.integers(4, max_n + 1))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.exp(rng.uniform(-2.0, 3.5, size=n))
    return OperatorHandle.dense(q @ np.diag(eigs) @ q.T)


def _safe_re(rng, lo=0.1, hi=2.4):
    # real part away from integers by >= 0.05
    while True:
        re = float(rng.uniform(lo, hi))
        if abs(re - round(re)) >= 0.05:
            return re


def test_criterion_1_gamma_integral_anchors():
    t0 = time.perf_counter()
    worst_euler = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.5):
        for n in (2, 3):
            pref = balakrishnan_prefactor(alpha, n)
            val, _ = integrate_multiplicative(
                lambda lam: lam ** alpha * (1.0 + lam) ** (-n), 1.0, 1.0,
                decay_lo=alpha, decay_hi=n - alpha)
            worst_euler = max(worst_euler, abs(pref * val - 1.0))
    worst_res = 0.0
    for alpha in (0.25, 0.5, 0.75):
        cosa = math.cos(math.pi * alpha)
        pref = reciprocal_beta_prefactor(alpha).real
        for lam in (0.1, 1.0, 10.0):
            val, _ = integrate_multiplicative(
                lambda mus: lam * mus ** alpha / (
                    lam * lam + 2 * lam * mus ** alpha * cosa + mus ** (2 * alpha)),
                lam, lam, decay_lo=alpha, decay_hi=alpha)
            worst_res = max(worst_res, abs(pref * val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_euler <= 1e-8 and worst_res <= 1e-6 and elapsed < 5.0
    _report("criterion 1: Gamma-integral anchors", ok,
            f"euler={worst_euler:.2e}, resolvent={worst_res:.2e}, {elapsed:.1f}s")
    assert worst_euler <= 1e-8
    assert worst_res <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = {"balakrishnan": 0.0, "two_parameter": 0.0, "semigroup": 0.0}
    for i in range(100):
        h = _random_spd(rng)
        x = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
        re = _safe_re(rng)
        z = complex(re, float(rng.uniform(-1.0, 1.0))) if i % 2 else complex(re)
        want = spectral_frac_power(h, z, x)
        scale = np.linalg.norm(want)

        got = frac_power(h, z, x)
        worst["balakrishnan"] = max(worst["balakrishnan"],
                                    np.linalg.norm(got - want) / scale)

        a = float(rng.uniform(0.0, 1.2))
        b = complex(z.real + rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
        got = frac_power_unified(h, z, a, b, x)
        worst["two_parameter"] = max(worst["two_parameter"],
                                     np.linalg.norm(got - want) / scale)

        b_sg = z.real + float(rng.uniform(0.4, 1.5))
        got = frac_power_via_semigroup(h, z, b_sg, x)
        worst["semigroup"] = max(worst["semigroup"],
                                 np.linalg.norm(got - want) / scale)
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-6 and elapsed < 60.0
    _report("criterion 2: quadrature routes vs spectral oracle", ok,
            ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s")
    for route, err in worst.items():
        assert err <= 1e-6, route
    assert elapsed < 60.0


def test_criterion_3_reproducing_formulas():
    rng = np.random.default_rng(31337)
    worst_cut = 0.0
    worst_full = 0.0
    for i in range(50):
        if i % 2:
            h = OperatorHandle.diagonal(np.exp(rng.uniform(-2, 2, 8)))
        else:
            h = _random_spd(rng, max_n=12)
        x = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
        alpha = float(rng.uniform(0.4, 2.2))
        m = int(rng.integers(1, 4))
        lam_cut = float(rng.uniform(0.3, 2.0))
        worst_cut = max(worst_cut, reproducing_residual(h, alpha, m, lam_cut, x))
        a2 = float(rng.uniform(0.4, 1.4))
        b2 = float(rng.uniform(0.4, 1.4))
        y = frac_power_unified(h, 0.0, a2, b2, x)
        worst_full = max(worst_full, np.linalg.norm(y - x) / np.linalg.norm(x))
    ok = worst_cut <= 1e-6 and worst_full <= 1e-6
    _report("criterion 3: reproducing formulas", ok,
            f"truncated={worst_cut:.2e}, boundary-free={worst_full:.2e}")
    assert worst_cut <= 1e-6
    assert worst_full <= 1e-6


def test_criterion_4_exact_inequalities(suite_run):
    by_id, _, _ = suite_run
    fails = []
    for cid in ("embed_q", "embed_s", "uniform_bounds", "moment"):
        rep = by_id[cid]
        if rep.verdict != "pass" or rep.violations != 0:
            fails.append(cid)
    # semigroup property and resolvent identity, directly
    rng = np.random.default_rng(7)
    worst_sg = 0.0
    worst_res = 0.0
    for spec in ("diagonal [1,2,4]", "torus_laplacian n=16"):
        h = build_operator(spec)
        for _ in range(20):
            x = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
            s_t, t_t = rng.uniform(0.05, 2.0, size=2)
            lhs = semigroup_apply(h, s_t, semigroup_apply(h, t_t, x))
            rhs = semigroup_apply(h, s_t + t_t, x)
            worst_sg = max(worst_sg, np.linalg.norm(lhs - rhs) / np.linalg.norm(x))
            lam, mu = np.exp(rng.uniform(-2, 2, size=2))
            r_lhs = h.resolvent(lam, x) - h.resolvent(mu, x)
            r_rhs = (mu - lam) * h.resolvent(lam, h.resolvent(mu, x))
            worst_res = max(worst_res,
                            np.linalg.norm(r_lhs - r_rhs) / max(np.linalg.norm(r_lhs), 1e-30))
    ok = not fails and worst_sg <= 1e-12 and worst_res <= 1e-10
    _report("criterion 4: exact inequality suites", ok,
            f"checks={fails or 'all pass'}, semigroup={worst_sg:.1e}, "
            f"resolvent={worst_res:.1e}")
    assert not fails
    assert worst_sg <= 1e-12
    assert worst_res <= 1e-10


def test_criterion_5_cos_grid(suite_run):
    by_id, _, _ = suite_run
    rep = by_id["cos_estimate"]
    t0 = time.perf_counter()
    from fracbesov.harness import run_check
    rep_timed = run_check("cos_estimate")
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == "pass" and rep_timed.verdict == "pass" and elapsed < 10.0
    _report("criterion 5: cosine-polynomial grid bound", ok,
            f"violations={rep_timed.violations}, {elapsed:.1f}s")
    assert rep.verdict == "pass"
    assert rep_timed.violations == 0
    assert elapsed < 10.0


def test_criterion_6_exact_identities(suite_run):
    by_id, _, _ = suite_run
    fails = [cid for cid in ("inverse_breve", "inverse_homog", "spectral_map")
             if by_id[cid].verdict != "pass" or by_id[cid].violations != 0]
    ok = not fails
    _report("criterion 6: exact index-swap and spectral-map identities", ok,
            f"failing={fails or 'none'}")
    assert not fails


def test_criterion_7_equivalence_ratio_suites(suite_run):
    by_id, _, elapsed = suite_run
    problems = []
    for cid in RATIO_CHECK_IDS:
        rep = by_id[cid]
        if rep.verdict != "pass":
            problems.append((cid, "verdict"))
            continue
        if rep.ratio_min is None or not math.isfinite(rep.ratio_max):
            problems.append((cid, "ratios"))
            continue
        if rep.ceiling is None or "calibration" not in rep.ceiling_provenance:
            problems.append((cid, "ceiling provenance"))
            continue
        if rep.ratio_max / rep.ratio_min > rep.ceiling:
            problems.append((cid, "ceiling exceeded"))
    ok = not problems and elapsed < 300.0
    _report("criterion 7: calibrated equivalence-ratio suites", ok,
            f"problems={problems or 'none'}, full suite {elapsed:.0f}s")
    assert not problems
    assert elapsed < 300.0


def test_criterion_8_classical_recovery(suite_run):
    by_id, _, _ = suite_run
    rep = by_id["classical_torus"]
    # the square-root relation specifically must fit the reiteration ceiling
    from fracbesov.besov import BesovIndex, inhom_quasi_norm
    from fracbesov.harness import EnsembleSpec, draw_samples
    samples = draw_samples(EnsembleSpec("torus_laplacian", {"n": 64},
                                        "band_limited", {"fraction": 0.5}, 100,
                                        seed=8086))
    half_ratios = []
    for s in samples:
        half = OperatorHandle.frac_power(s.handle, 0.5)
        for sm in (0.4, 0.7):
            lhs = inhom_quasi_norm(half, BesovIndex(sm, 2.0, 0, 0.0, 1.0), s.x).value
            rhs = inhom_quasi_norm(s.handle, BesovIndex(sm / 2, 2.0, 0, 0.0, 1.0),
                                   s.x).value
            half_ratios.append(lhs / rhs)
    reiter_ceiling = by_id["reiteration"].ceiling
    spread = max(half_ratios) / min(half_ratios)
    ok = rep.verdict == "pass" and rep.samples == 100 \
        and math.isfinite(rep.ratio_max) \
        and rep.ratio_max / rep.ratio_min <= rep.ceiling \
        and spread <= reiter_ceiling
    _report("criterion 8: classical recovery on the periodic grid", ok,
            f"LP band [{rep.ratio_min:.3g}, {rep.ratio_max:.3g}] vs ceiling "
            f"{rep.ceiling:.3g}; half-power spread {spread:.3g} vs reiteration "
            f"ceiling {reiter_ceiling:.3g}")
    assert rep.verdict == "pass"
    assert rep.samples == 100
    assert spread <= reiter_ceiling


def test_suite_report_rows_are_pinned(suite_run):
    # the platform-stable fields of every default-seed report; a change to
    # how the checks run must leave them, and the payload, as they are
    by_id, _, _ = suite_run
    rows = [[r.check_id, r.kind, r.samples, r.degenerate, r.violations, r.verdict,
             r.config_hash] for r in by_id.values()]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert len(rows) == 27
    assert digest == "424669fcaf29736407bda7d9e92859cb1de4ad8007c8bf17aa2ed91ef3d074be", rows


def test_criterion_9_determinism(suite_run, suite_rerun):
    _, payload_first, _ = suite_run
    ok = payload_first == suite_rerun
    _report("criterion 9: byte-identical reports under a fixed seed", ok,
            f"{len(payload_first)} bytes")
    assert ok
