"""Verification harness: ensembles, reports, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from fracbesov.harness import (
    CHECKS,
    SUITE_ORDER,
    EnsembleSpec,
    ToleranceProfile,
    draw_samples,
    reports_payload,
    reports_to_json,
    run_check,
    run_suite,
)


def test_registry_is_complete():
    assert len(SUITE_ORDER) == 27
    assert len(set(SUITE_ORDER)) == 27
    for cid, cd in CHECKS.items():
        assert cd.kind in ("ratio_bounded", "exact_inequality", "exact_identity",
                           "limit", "grid_verification")
        assert cd.statement
        if cd.kind == "ratio_bounded":
            assert cd.calibration is not None


def test_ensemble_reproducibility():
    spec = EnsembleSpec("diag_loguniform", {"n": 6, "lam_min": 0.1, "lam_max": 10.0},
                        "gaussian", {}, 5, seed=123)
    a = draw_samples(spec)
    b = draw_samples(spec)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.handle.spectral.eigenvalues,
                              sb.handle.spectral.eigenvalues)
        assert np.array_equal(sa.x, sb.x)


def test_ensemble_families():
    for family, params in (
        ("dense_spd", {"n": 6, "condition": 50.0}),
        ("nonnormal_upper", {"n": 5, "coupling": 0.4}),
        ("torus_laplacian", {"n": 8}),
        ("diag_with_kernel", {"n": 6}),
        ("shifted", {"base": "diag_loguniform",
                     "base_params": {"n": 4, "lam_min": 0.1, "lam_max": 5.0},
                     "eps": 0.5}),
    ):
        s = draw_samples(EnsembleSpec(family, params, "gaussian", {}, 2, seed=1))
        assert len(s) == 2 and s[0].x.size == s[0].handle.dim
    with pytest.raises(ValueError, match="unknown operator family"):
        draw_samples(EnsembleSpec("hankel", {}, "gaussian", {}, 1))


def test_band_limited_sampler():
    spec = EnsembleSpec("torus_laplacian", {"n": 16}, "band_limited",
                        {"fraction": 0.25}, 1, seed=5)
    s = draw_samples(spec)[0]
    coeffs = s.handle.spectral.to_coeff(s.x)
    order = np.argsort(s.handle.spectral.eigenvalues)
    assert np.abs(coeffs[order[4:]]).max() <= 1e-14


def test_unknown_check_id():
    with pytest.raises(KeyError):
        run_check("not_a_check")
    with pytest.raises(KeyError):
        run_suite(["embed_q", "nope"])


def test_empty_suite():
    assert run_suite([]) == []


def test_single_checks_pass():
    for cid in ("embed_q", "cos_estimate", "spectral_map"):
        rep = run_check(cid)
        assert rep.verdict == "pass", (cid, rep.failures)
        assert rep.violations == 0


def test_uniform_bounds_at_seed_14():
    # the second non-normal sample has L_A = 1.00111; an estimate of L_A at its
    # floor 1.0 puts ||A^a (lam+A)^{-a}|| above C_{a,n} L_A^n near lam = 2e-3
    report = run_check("uniform_bounds", seed=14, count_override=6)
    assert report.verdict == "pass", report.failures


def test_ratio_check_has_ceiling_with_provenance():
    rep = run_check("k_independence")
    assert rep.verdict == "pass"
    assert rep.ceiling is not None and rep.ceiling > 1.0
    assert "calibration" in rep.ceiling_provenance
    assert rep.ratio_min is not None and rep.ratio_max >= rep.ratio_min
    assert rep.ratio_max / rep.ratio_min <= rep.ceiling


def test_report_payload_schema():
    rep = run_check("embed_q")
    payload = rep.to_payload()
    assert set(payload) == {
        "check_id", "kind", "statement", "samples", "ratio_stats", "ceiling",
        "ceiling_provenance", "violations", "max_violation", "degenerate",
        "verdict", "failures", "seed", "config_hash"}
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload


def test_determinism_of_payloads():
    ids = ["embed_q", "k_independence", "ergodicity"]
    j1 = reports_to_json(run_suite(ids, seed=99))
    j2 = reports_to_json(run_suite(ids, seed=99))
    assert j1 == j2
    # a different seed changes the ensembles (payload hash differs)
    j3 = reports_to_json(run_suite(ids, seed=100))
    assert j1 != j3


@pytest.mark.parametrize("check_id", ["k_independence", "homog_independence", "reiteration",
                                      "interpolation", "homog_semigroup_norm"])
def test_run_check_twice_in_one_process_gives_one_payload(check_id):
    # the calibration's shared oracle values live on its samples, so nothing
    # one run_check computes reaches the next
    first = run_check(check_id, count_override=3).to_payload()
    assert run_check(check_id, count_override=3).to_payload() == first


def test_custom_ensemble_override():
    spec = EnsembleSpec("diag_loguniform", {"n": 4, "lam_min": 0.5, "lam_max": 2.0},
                        "gaussian", {}, 10)
    rep = run_check("k_independence", ensemble=[spec])
    assert rep.samples == 10


def test_index_grid_override():
    from fracbesov.besov import BesovIndex
    grid = [BesovIndex(0.5, 2.0, 0, 0.3, 1.0), BesovIndex(0.5, 2.0, 0, 1.2, 1.0)]
    rep = run_check("alpha_independence", index_grid=grid)
    assert rep.verdict == "pass"
    with pytest.raises(ValueError, match="does not take"):
        run_check("embed_q", index_grid=grid)
    # a grid violating a check's own constraint degrades, not crashes:
    # homogeneous norms require Re beta > 0 and they get beta = 0 here
    bad = [BesovIndex(-0.5, 2.0, 0, 1.0, 0.0)]
    rep2 = run_check("homog_independence", index_grid=bad,
                     ensemble=[EnsembleSpec("diag_loguniform",
                                            {"n": 4, "lam_min": 0.5, "lam_max": 2.0},
                                            "gaussian", {}, 3)])
    assert rep2.verdict == "degenerate"
    assert rep2.degenerate == 3
    small = [EnsembleSpec("diag_loguniform", {"n": 4, "lam_min": 0.5, "lam_max": 2.0},
                          "gaussian", {}, 3)]
    rep3 = run_check("semigroup_norm", index_grid=[BesovIndex(0.4, 2.0, 0, 0.0, 1.0)],
                     ensemble=small)
    assert rep3.degenerate == 0
    assert rep3.verdict == "pass"
    assert rep3.ratio_min == 0.9105384915592141
    assert rep3.ratio_max == 0.9448921526075551
    # a check's own constraint on the whole grid still raises
    mixed = [BesovIndex(0.4, 2.0, 0, 0.0, 1.0), BesovIndex(0.3, 2.0, 0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="must share"):
        run_check("full_independence", index_grid=mixed)
    # so does a grid field the check would ignore: alpha_independence reads
    # (s, q, k, beta) once, k_independence ranges k itself, and the
    # semigroup norm has neither k nor alpha
    for cid, ignored, key in (
            ("alpha_independence", [BesovIndex(0.5, 2.0, 0, 0.3, 1.0),
                                    BesovIndex(0.2, 1.0, 0, 1.2, 1.0)], "s"),
            ("alpha_independence", [BesovIndex(0.5, 2.0, 0, 0.3, 1.0),
                                    BesovIndex(0.5, 2.0, 1, 1.2, 1.0)], "k"),
            ("alpha_independence", [BesovIndex(0.5, 2.0, 0, 0.3, 1.0),
                                    BesovIndex(0.5, 2.0, 0, 1.2, 1.5)], "beta"),
            ("k_independence", [BesovIndex(0.45, 2.0, 2, 0.25, 1.0)], "k"),
            ("semigroup_norm", [BesovIndex(0.4, 2.0, 3, 0.0, 1.0)], "k"),
            ("semigroup_norm", [BesovIndex(0.4, 2.0, 0, 0.7, 1.0)], "alpha"),
            ("semigroup_norm", [BesovIndex(0.4, 2.0, 0, 0.0, 1.0),
                                BesovIndex(-0.2, 2.0, 0, 0.5, 1.0)], "alpha")):
        with pytest.raises(ValueError, match=f"must all have {key} ="):
            run_check(cid, index_grid=ignored, ensemble=small)


def test_max_violation_reads_every_failure_record(monkeypatch):
    # with cos(pi a) = -1 the cosine-polynomial bound fails at every alpha
    monkeypatch.setattr(math, "cos", lambda x: -1.0)
    rep = run_check("cos_estimate")
    assert rep.verdict == "fail" and rep.violations == 9
    assert rep.max_violation > 0
    assert rep.max_violation == max(f["excess"] for f in rep.failures)


def test_a_nan_excess_is_a_violation(monkeypatch):
    # NaN blocks make every embed_q excess NaN, which is never within its bound
    from fracbesov import harness
    monkeypatch.setattr(harness, "dyadic_blocks",
                        lambda handle, js, ix, x: np.full(len(js), np.nan))
    rep = run_check("embed_q", None, None, None, harness.DEFAULT_SEED, 2)
    assert (rep.verdict, rep.samples, rep.violations) == ("fail", 2, 6)
    assert all(math.isnan(f["excess"]) for f in rep.failures)
    assert rep.max_violation == math.inf


def test_max_violation_is_inf_for_a_nan_excess_wherever_it_falls(monkeypatch):
    # only the (2, inf) case of each sample has a NaN excess; the other cases
    # fail by their ordinary, finite amounts
    from fracbesov import harness
    aggregate = harness._lq_aggregate
    monkeypatch.setattr(harness, "_lq_aggregate", lambda blocks, q:
                        math.nan if math.isinf(q) else aggregate(blocks, q))
    rep = run_check("embed_q", tolerance_profile=ToleranceProfile(exact_slack=-1),
                    count_override=2)
    assert (rep.verdict, rep.violations) == ("fail", 6)
    assert sum(math.isnan(f["excess"]) for f in rep.failures) == 2
    assert rep.max_violation == math.inf


def test_tolerance_profile_propagates():
    tol = ToleranceProfile(ratio_safety=1e6)
    rep = run_check("translation", tolerance_profile=tol)
    assert rep.verdict == "pass"
    assert rep.ceiling > 1e5


# (samples, violations, degenerate) of each non-ratio check when every case fails
FORCED_FAILURES = {
    "embed_q": (2, 6, 0), "embed_s": (2, 12, 0), "inverse_breve": (4, 8, 0),
    "inverse_homog": (4, 8, 0), "domain_sandwich": (2, 16, 0), "denseness": (2, 4, 0),
    "ergodicity": (2, 16, 0), "cos_estimate": (9, 9, 0), "uniform_bounds": (4, 456, 0),
    "moment": (6, 6, 0), "spectral_map": (5, 15, 0),
}


def test_forced_failure_records_are_pinned(monkeypatch):
    # a slack of -1 fails every case whose value is positive, on every sample
    # kind. denseness has fixed thresholds, so its approximants are zeroed instead
    from fracbesov import harness
    tol = ToleranceProfile(exact_slack=-1, identity_slack=-1, spectral_map_slack=-1,
                           limit_tol=-1)
    assert set(FORCED_FAILURES) == {c for c in SUITE_ORDER
                                    if CHECKS[c].kind != "ratio_bounded"}
    records = []
    for cid, (samples, violations, degenerate) in FORCED_FAILURES.items():
        outcomes = []
        with monkeypatch.context() as m:
            runner = CHECKS[cid].runner
            m.setattr(CHECKS[cid], "runner", lambda *a: outcomes.append(runner(*a)) or outcomes[-1])
            if cid == "denseness":
                m.setattr(harness, "phi_apply", lambda handle, b, g, lams, x:
                          np.zeros((len(lams),) + x.shape, dtype=complex))
            rep = run_check(cid, tolerance_profile=tol, count_override=2)
        assert (rep.verdict, rep.samples, rep.violations, rep.degenerate) == \
            ("fail", samples, violations, degenerate), cid
        # the report keeps 20 records; max_violation reads all of them
        assert rep.max_violation == max(v["excess"] for v in outcomes[0].violations)
        records.append([cid, [[f["sample"], sorted(f)] for f in rep.failures]])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "c88cbc6c8cce39d815e6af3a9f848b725320fa85844791bcb285dc753b6468ec", records
