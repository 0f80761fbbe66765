"""Operator handles: actions, resolvents, constants, the text grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbesov.operators import (
    EUCLIDEAN,
    NormKind,
    OperatorHandle,
    SingularResolventError,
    VectorElement,
    build_operator,
    estimate_nonnegativity_constants,
    vector_norm,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- norms ----

def test_norm_kinds():
    x = np.array([3.0, -4.0])
    assert vector_norm(x) == pytest.approx(5.0)
    assert vector_norm(x, NormKind("p", p=1)) == pytest.approx(7.0)
    assert vector_norm(x, NormKind("p", p=math.inf)) == pytest.approx(4.0)
    assert vector_norm(x, NormKind("weighted", weights=np.array([1.0, 4.0]))) == \
        pytest.approx(math.sqrt(9 + 64))


_moderate_floats = st.floats(-100, 100).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


@settings(max_examples=50, deadline=None)
@given(st.lists(_moderate_floats, min_size=1, max_size=8),
       st.floats(-10, 10), st.floats(-10, 10))
def test_norm_axioms(values, c_re, c_im):
    x = np.asarray(values, dtype=complex)
    c = complex(c_re, c_im)
    for nk in (EUCLIDEAN, NormKind("p", p=1.0), NormKind("p", p=0.5)):
        n = vector_norm(x, nk)
        assert n >= 0.0
        assert vector_norm(c * x, nk) == pytest.approx(abs(c) * n, rel=1e-10, abs=1e-12)
    if np.any(x != 0):
        assert vector_norm(x) > 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 31), st.floats(0.25, 3.0))
def test_triangle_and_quasi_triangle(n, seed, p):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    nk = NormKind("p", p=p)
    k_const = nk.quasi_triangle_constant
    lhs = vector_norm(x + y, nk)
    rhs = k_const * (vector_norm(x, nk) + vector_norm(y, nk))
    assert lhs <= rhs * (1 + 1e-12)


def test_vector_element():
    v = VectorElement(np.array([1.0, 2.0]))
    assert v.dim == 2
    assert v.norm() == pytest.approx(math.sqrt(5))
    with pytest.raises(ValueError):
        VectorElement(np.zeros((2, 2)))


# --------------------------------------------------------------- actions ----

def test_apply_diagonal():
    a = OperatorHandle.diagonal([1.0, 4.0])
    assert np.allclose(a.apply([1.0, 1.0]), [1.0, 4.0])


def test_apply_torus_constants_in_kernel():
    t = OperatorHandle.torus_laplacian(8)
    out = t.apply(np.ones(8, dtype=complex))
    assert np.abs(out).max() <= 1e-12


def test_apply_dense():
    d = OperatorHandle.dense([[2.0, 1.0], [0.0, 3.0]])
    assert np.allclose(d.apply([1.0, 1.0]), [3.0, 3.0])


def test_apply_dimension_mismatch():
    a = OperatorHandle.diagonal([1.0, 4.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a.apply(np.ones(3))


def test_resolvent_scalar_values():
    a = OperatorHandle.diagonal([1.0, 4.0])
    assert np.allclose(a.resolvent(1.0, [1.0, 1.0]), [0.5, 0.2])


def test_identity_decomposition():
    # lam (lam+A)^{-1} x + A (lam+A)^{-1} x == x
    for spec in ("diagonal [1,2,4]", "dense [[2,1],[0,3]]", "torus_laplacian n=8"):
        h = build_operator(spec)
        x = _rng(3).normal(size=h.dim) + 1j * _rng(4).normal(size=h.dim)
        r = h.resolvent(1.0, x)
        recon = 1.0 * r + h.apply(r)
        assert np.linalg.norm(recon - x) <= 1e-12 * np.linalg.norm(x)


def test_resolvent_matches_eigendecomposition_oracle():
    rng = _rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    eigs = np.geomspace(0.2, 50.0, 16)
    m = q @ np.diag(eigs) @ q.T
    h = OperatorHandle.dense(m)
    x = rng.normal(size=16) + 0j
    lam = 0.37
    oracle = q @ ((q.T @ x) / (lam + eigs))
    got = h.resolvent(lam, x)
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_resolvent_equation():
    h = build_operator("dense [[2,1],[0,3]]")
    x = np.array([1.0, -2.0], dtype=complex)
    lam, mu = 0.7, 2.3
    lhs = h.resolvent(lam, x) - h.resolvent(mu, x)
    rhs = (mu - lam) * h.resolvent(lam, h.resolvent(mu, x))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


def test_resolvent_batch_per_row():
    h = OperatorHandle.dense([[2.0, 1.0], [0.0, 3.0]])
    lams = np.array([0.5, 1.0, 2.0])
    rows = np.stack([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                     np.array([1.0, 1.0])]).astype(complex)
    out = h.resolvent_batch(lams, rows)
    for i, (lam, row) in enumerate(zip(lams, rows)):
        assert np.allclose(out[i], np.linalg.solve(lam * np.eye(2) + h.matrix(), row))


def test_l_compose_avoids_cancellation():
    h = OperatorHandle.diagonal([1.0, 4.0])
    lam = np.array([1e18])
    out = h.l_compose_batch(lam, np.ones((1, 2), dtype=complex))
    expect = np.array([1.0 / (1e18 + 1), 4.0 / (1e18 + 4)])
    assert np.allclose(out[0], expect, rtol=1e-12)


def _upper_nonnormal():
    """6x6 upper-triangular with off-diagonal coupling far above the spectrum."""
    rng = _rng(21)
    return np.diag(np.geomspace(0.3, 6.0, 6)) + 1.5 * np.triu(rng.normal(size=(6, 6)), 1)


def _complex_pair_nonnormal():
    """Dense, non-normal, eigenvalues {1 +- 2i, 0.5, 2, 3}."""
    rng = _rng(22)
    block = np.zeros((5, 5))
    block[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    block[2:, 2:] = np.diag([0.5, 2.0, 3.0])
    s = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
    return s @ block @ np.linalg.inv(s)


@pytest.mark.parametrize("make", [_upper_nonnormal, _complex_pair_nonnormal])
@pytest.mark.parametrize("wrap", ["dense", "shifted", "inverse", "frac_power"])
def test_schur_solve_matches_dense_solve(make, wrap):
    base = OperatorHandle.dense(make())
    assert base.spectral is None
    h = {"dense": lambda: base,
         "shifted": lambda: OperatorHandle.shifted(base, 0.7),
         "inverse": lambda: OperatorHandle.inverse(base),
         "frac_power": lambda: OperatorHandle.frac_power(base, 0.5)}[wrap]()
    lams = np.geomspace(1e-8, 1e8, 33)
    rng = _rng(23)
    rows = rng.normal(size=(len(lams), h.dim)) + 1j * rng.normal(size=(len(lams), h.dim))
    got = h.resolvent_batch(lams, rows)
    a = h.matrix()
    for lam, row, g in zip(lams, rows, got):
        want = np.linalg.solve(lam * np.eye(h.dim) + a, row)
        assert np.linalg.norm(g - want) <= 1e-11 * np.linalg.norm(want)


def test_schur_solve_rejects_zero_pivot():
    for m in ([[-1.0, 0.0], [0.0, 2.0]], [[-1.0, 1.0], [0.0, 2.0]]):
        with pytest.raises(SingularResolventError):
            OperatorHandle.dense(m).resolvent(1.0, np.ones(2))


def test_singular_values_computed_once(monkeypatch):
    h = OperatorHandle.dense(_upper_nonnormal())
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert h.injective() and h.injective()
    lo, hi = h.scales()
    assert len(calls) == 1
    sv = svd(h.matrix(), compute_uv=False)
    assert (lo, hi) == (sv.min(), sv.max())


# ----------------------------------------------------- derived structure ----

def test_inverse_of_inverse_round_trip():
    h = build_operator("diagonal [1,2,4]")
    hh = OperatorHandle.inverse(OperatorHandle.inverse(h))
    x = _rng(8).normal(size=3) + 0j
    assert np.linalg.norm(hh.apply(x) - h.apply(x)) <= 1e-10 * np.linalg.norm(h.apply(x))


def test_inverse_requires_injectivity():
    with pytest.raises(ValueError, match="injective"):
        OperatorHandle.inverse(OperatorHandle.diagonal([0.0, 1.0]))


def test_inverse_swaps_constants():
    rng = _rng(11)
    m = np.diag([0.5, 1.0, 3.0]) + 0.4 * np.triu(rng.normal(size=(3, 3)), 1)
    h = OperatorHandle.dense(m)
    m_const, l_const = h.constants()
    m_inv, l_inv = OperatorHandle.inverse(h).constants()
    assert m_inv == pytest.approx(l_const, rel=1e-10)
    assert l_inv == pytest.approx(m_const, rel=1e-10)


def test_constants_selfadjoint_exact():
    for spec in ("diagonal [1,4]", "torus_laplacian n=8",
                 "shifted(diagonal [1,4], eps=1)"):
        h = build_operator(spec)
        assert h.constants() == (1.0, 1.0)


def test_constants_nonnormal_finite_above_one():
    est = estimate_nonnegativity_constants(OperatorHandle.dense([[1.0, 10.0], [0.0, 1.0]]))
    assert est.M > 1.0 and math.isfinite(est.M)
    assert not est.diverging


def test_constants_resolvent_bounds_hold():
    # ||lam R x|| <= M ||x|| and ||A R x|| <= L ||x|| across lam and x
    rng = _rng(13)
    m = np.diag([0.3, 1.0, 2.0, 7.0]) + 0.5 * np.triu(rng.normal(size=(4, 4)), 1)
    h = OperatorHandle.dense(m)
    m_const, l_const = h.constants()
    for lam in np.geomspace(1e-4, 1e4, 17):
        for _ in range(5):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            r = h.resolvent(lam, x)
            assert lam * np.linalg.norm(r) <= m_const * np.linalg.norm(x) * (1 + 1e-9)
            assert np.linalg.norm(h.apply(r)) <= l_const * np.linalg.norm(x) * (1 + 1e-9)


def _resolvent_stack(m, lams):
    eye = np.eye(m.shape[0])
    res = [np.linalg.inv(lam * eye + m) for lam in lams]
    return [lam * r for lam, r in zip(lams, res)], [m @ r for r in res]


def test_constants_are_exact_grid_maxima():
    m = _upper_nonnormal()
    h = OperatorHandle.dense(m)
    grid = np.geomspace(1e-4, 1e4, 41)
    m_mats, l_mats = _resolvent_stack(m, grid)
    want_m = max(np.linalg.norm(a, 2) for a in m_mats)
    want_l = max(np.linalg.norm(a, 2) for a in l_mats)
    assert want_m > 1.0 and want_l > 1.0  # the documented floors at 1 stay idle
    est = estimate_nonnegativity_constants(h, grid)
    assert est.M == pytest.approx(want_m, rel=1e-12)
    assert est.L == pytest.approx(want_l, rel=1e-12)
    w = _rng(24).uniform(0.5, 3.0, 6)
    d = np.sqrt(w)
    cases = [
        (NormKind("p", p=1), lambda a: max(np.abs(a[:, j]).sum() for j in range(6))),
        (NormKind("p", p=math.inf), lambda a: max(np.abs(a[i, :]).sum() for i in range(6))),
        (NormKind("weighted", weights=w),
         lambda a: np.linalg.norm(np.diag(d) @ a @ np.diag(1.0 / d), 2)),
    ]
    for norm, induced in cases:
        want_m = max(induced(a) for a in m_mats)
        want_l = max(induced(a) for a in l_mats)
        assert want_m > 1.0 and want_l > 1.0
        est = estimate_nonnegativity_constants(h, grid, norm=norm)
        assert est.M == pytest.approx(want_m, rel=1e-12)
        assert est.L == pytest.approx(want_l, rel=1e-12)


def test_constants_cache_tells_weights_apart():
    h = OperatorHandle.dense(_upper_nonnormal())
    w1, w2 = np.ones(6), np.geomspace(1.0, 1e3, 6)
    c1 = h.constants(NormKind("weighted", weights=w1))
    c2 = h.constants(NormKind("weighted", weights=w2))
    assert c1 == h.constants()
    assert c2 != c1


def _scan_constants(a, lams, which):
    """lam ||(lam+A)^{-1}|| ("M") or ||A (lam+A)^{-1}|| ("L") at each lam, from
    the singular values of lam + A or of I + lam A^{-1} (A injective)."""
    eye = np.eye(a.shape[0])
    if which == "M":
        return lams / np.linalg.svd(lams[:, None, None] * eye + a, compute_uv=False)[:, -1]
    return 1.0 / np.linalg.svd(eye + lams[:, None, None] * np.linalg.inv(a),
                               compute_uv=False)[:, -1]


def _assert_scan_sups(got, a, points, zoom):
    """``got`` = (M, L) lies within 1e-9 above the sups of a scan at ``points``
    log-spaced lam on [s_min 1e-4, s_max 1e4], each rescanned at ``zoom`` lam
    over the two cells around its maximum, with the limit 1 (lam -> inf for
    M, lam -> 0 for L) that no scan attains, and never below them."""
    a = a.real if not a.imag.any() else a
    sv = np.linalg.svd(a, compute_uv=False)
    lams = np.geomspace(sv[-1] * 1e-4, sv[0] * 1e4, points)
    for value, which in zip(got, "ML"):
        vals = _scan_constants(a, lams, which)
        i = int(np.argmax(vals))
        cells = np.geomspace(lams[max(i - 1, 0)], lams[min(i + 1, points - 1)], zoom)
        scan = max(1.0, vals[i], _scan_constants(a, cells, which).max())
        assert scan * (1 - 1e-12) <= value <= scan * (1 + 1e-9)


def test_constants_are_the_sups_of_a_dense_scan():
    from fracbesov.harness import EnsembleSpec, _make_operator
    rng = _rng(2024)
    for k in range(30):
        spec = EnsembleSpec("nonnormal_upper", {"n": 5 + k % 2, "coupling": 0.4})
        h = _make_operator(spec, rng)
        _assert_scan_sups(h.constants(), h.matrix(), 20001, 2001)
    h = _make_operator(EnsembleSpec("nonnormal_upper", {"n": 6, "coupling": 0.4}), rng)
    w = np.geomspace(1.0, 50.0, 6)
    d = np.sqrt(w)
    _assert_scan_sups(h.constants(NormKind("weighted", weights=w)),
                      (d[:, None] * h.matrix()) / d[None, :], 20001, 2001)
    # a 64 x 64 sample, scanned at 2001 + 1001 points
    h = _make_operator(EnsembleSpec("nonnormal_upper", {"n": 64, "coupling": 0.4}), rng)
    _assert_scan_sups(h.constants(), h.matrix(), 2001, 1001)


def test_constants_find_a_peak_between_grid_points():
    # two Jordan-type blocks s [[1, b], [0, 1]]: for b = 8 the peak of
    # lam ||(lam+A)^{-1}|| is 17/8, placed on the default grid node lam = 1;
    # the slightly higher b = 8.05 peak sits halfway between two grid nodes,
    # where the grid reads it below 17/8
    from scipy.optimize import minimize_scalar

    def block_m(lam, b):
        beta = b / (lam + 1.0)
        return lam / (lam + 1.0) * (beta + math.sqrt(beta * beta + 4.0)) / 2.0

    def peak(b):
        r = minimize_scalar(lambda u: -block_m(math.exp(u), b), bounds=(-5.0, 5.0),
                            method="bounded", options={"xatol": 1e-12})
        return math.exp(r.x), -r.fun

    (lam1, high1), (lam2, high2) = peak(8.0), peak(8.05)
    a = np.zeros((5, 5))
    a[:2, :2] = [[1.0, 8.0], [0.0, 1.0]]
    a[:2, :2] /= lam1
    a[2:4, 2:4] = [[1.0, 8.05], [0.0, 1.0]]
    a[2:4, 2:4] *= 10 ** -1.9 / lam2
    a[4, 4] = 1e3                                # fixes the grid: 10^(-3 + k/5)
    h = OperatorHandle.dense(a)
    assert high2 > high1 == pytest.approx(17 / 8, rel=1e-12)
    assert estimate_nonnegativity_constants(h).M == pytest.approx(high1, rel=1e-12)
    assert h.constants()[0] == pytest.approx(high2, rel=1e-12)


def test_constants_p1_and_pinf_keep_the_grid():
    h = OperatorHandle.dense(_upper_nonnormal())
    for p in (1, math.inf):
        norm = NormKind("p", p=p)
        est = estimate_nonnegativity_constants(h, norm=norm)
        assert h.constants(norm) == (est.M, est.L)


@pytest.mark.parametrize("spec", ["dense [[-1, 0.3], [0, 2]]",   # lam + A singular at lam = 1
                                  "dense [[0, 1], [0, 0]]",      # defective eigenvalue 0
                                  "dense [[-1, 0], [0, 2]]"])    # Hermitian, with eigen-data
def test_constants_raise_when_not_nonnegative(spec):
    h = build_operator(spec)
    with pytest.raises(SingularResolventError):
        h.constants()
    est = estimate_nonnegativity_constants(h)     # the grid still reads finite values
    assert math.isfinite(est.M) and math.isfinite(est.L)
    if spec == "dense [[-1, 0.3], [0, 2]]":
        assert not est.diverging


def test_spectral_angle_bound():
    assert OperatorHandle.diagonal([1.0, 2.0]).spectral_angle_bound() == 0.0
    h = OperatorHandle.dense([[1.0, 10.0], [0.0, 1.0]])
    assert 0.0 < h.spectral_angle_bound() < math.pi


def test_torus_spectrum_matches_plane_waves():
    n = 16
    t = OperatorHandle.torus_laplacian(n)
    for k in (1, 3, 7):
        w = np.exp(2j * np.pi * k * np.arange(n) / n)
        lam_k = 4.0 * n * n * math.sin(math.pi * k / n) ** 2
        assert np.linalg.norm(t.apply(w) - lam_k * w) <= 1e-9 * max(lam_k, 1.0)
    assert sorted(t.spectral.eigenvalues) == pytest.approx(
        sorted(4.0 * n * n * np.sin(np.pi * np.arange(n) / n) ** 2))


def test_frac_power_handle_spectrum():
    h = OperatorHandle.frac_power(OperatorHandle.diagonal([1.0, 4.0]), 0.5)
    assert np.allclose(np.sort(h.spectral.eigenvalues), [1.0, 2.0])
    assert np.allclose(h.apply([1.0, 1.0]), [1.0, 2.0])
    # resolvent of the powered handle
    assert np.allclose(h.resolvent(2.0, np.ones(2, dtype=complex)), [1 / 3, 1 / 4])


def test_frac_power_handle_on_a_singular_base_matches_scipy():
    # the Balakrishnan constructor route serves singular bases, where the
    # contour around the spectrum has no room
    from scipy.linalg import fractional_matrix_power as fmp
    from fracbesov.fractional import power_apply
    m = np.array([[0.0, 1.0, 0.3], [0.0, 1.0, 0.5], [0.0, 0.0, 2.0]])
    base = OperatorHandle.dense(m)
    h = OperatorHandle.frac_power(base, 0.5)
    want = fmp(m, 0.5)
    assert np.abs(h.matrix() - want).max() <= 1e-8 * np.abs(want).max()
    x = np.array([1.0, -2.0, 0.5], dtype=complex)
    assert np.linalg.norm(h.apply(x) - want @ x) <= 1e-8 * np.linalg.norm(want @ x)
    with pytest.raises(ValueError, match="eigenvalue"):
        power_apply(base, 0.5, x)


# ---------------------------------------------------------------- grammar ----

def test_build_operator_examples():
    h = build_operator("diagonal [1,2,4]")
    assert h.dim == 3 and np.allclose(h.spectral.eigenvalues, [1, 2, 4])
    inv = build_operator("inverse(diagonal [1,2,4])")
    assert np.allclose(np.sort(inv.spectral.eigenvalues), [0.25, 0.5, 1.0])
    t = build_operator("torus_laplacian n=16")
    assert t.dim == 16
    sh = build_operator("shifted(diagonal [1,4], eps=1)")
    assert np.allclose(sh.spectral.eigenvalues, [2.0, 5.0])
    fp = build_operator("frac_power(diagonal [1,4], 0.5)")
    assert np.allclose(fp.spectral.eigenvalues, [1.0, 2.0])
    t2 = build_operator("torus_laplacian n=4 dims=2")
    assert t2.dim == 16


def test_build_operator_rejects_unknown():
    with pytest.raises(ValueError, match="unknown operator kind"):
        build_operator("hilbert n=4")
    with pytest.raises(ValueError):
        build_operator("torus_laplacian m=4")
    with pytest.raises(ValueError):
        build_operator("diagonal [1, -2]")
    with pytest.raises(ValueError, match="injective"):
        build_operator("inverse(diagonal [0,1])")
