"""K-functional and interpolation quasi-norms against brute-force scans."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracbesov import reference as ref
from fracbesov.interpolation import CoupleSpec, _CoupleGeometry, interpolation_norm, k_functional
from fracbesov.operators import OperatorHandle
from fracbesov.quadrature import cell_sup, integrate_multiplicative

DIAG14 = OperatorHandle.diagonal([1.0, 4.0])
ONES2 = np.array([1.0, 1.0], dtype=complex)


def test_couple_validation():
    with pytest.raises(ValueError):
        CoupleSpec(DIAG14, -0.5, 0.5, 2.0)
    with pytest.raises(ValueError):
        CoupleSpec(DIAG14, 1.0, 1.5, 2.0)
    with pytest.raises(ValueError, match="injective"):
        k_functional(CoupleSpec(OperatorHandle.diagonal([0.0, 1.0]), 1.0, 0.5, 2.0),
                     1.0, ONES2)


def test_scalar_minimization():
    # A = [2], alpha = 1, t = 1: min_y |1-y| + 2|y| = 1 attained at y = 0
    c = CoupleSpec(OperatorHandle.diagonal([2.0]), 1.0, 0.5, 2.0)
    assert k_functional(c, 1.0, np.array([1.0 + 0j]), validate=True) == \
        pytest.approx(1.0, abs=1e-12)


def test_endpoint_behavior():
    c = CoupleSpec(DIAG14, 1.0, 0.5, 2.0)
    x = np.array([1.0, 0.0], dtype=complex)
    k_big = k_functional(c, 1e8, x)
    assert 1.0 - 1e-6 <= k_big <= 1.0 + 1e-12
    k_small = k_functional(c, 1e-8, x)
    assert k_small / 1e-8 == pytest.approx(1.0, rel=1e-5)   # ||A x|| = 1


def test_matches_reference_scan():
    rng = np.random.default_rng(0)
    c = CoupleSpec(DIAG14, 1.0, 0.5, 2.0)
    for t in (0.01, 0.3, 1.0, 7.0, 40.0):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        got = k_functional(c, t, x, validate=True)
        want = ref.k_functional([1.0, 4.0], x, 1.0, t, n_mu=4000)
        assert got <= want * (1 + 1e-9)           # ours refines the scan
        assert got == pytest.approx(want, rel=1e-5)


def test_k_monotone_concave_and_dominated():
    rng = np.random.default_rng(1)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    c = CoupleSpec(DIAG14, 0.7, 0.5, 2.0)
    ts = np.geomspace(1e-4, 1e4, 41)
    ks = np.array([k_functional(c, float(t), x) for t in ts])
    assert np.all(np.diff(ks) >= -1e-12)               # nondecreasing
    nx = np.linalg.norm(x)
    from fracbesov.fractional import spectral_frac_power
    ncx = np.linalg.norm(spectral_frac_power(DIAG14, 0.7, x))
    assert np.all(ks <= np.minimum(nx, ts * ncx) * (1 + 1e-12))
    # concavity on the linear t-scale, sampled triples
    for i in range(1, len(ts) - 1):
        t_mid = 0.5 * (ts[i - 1] + ts[i + 1])
        k_mid = k_functional(c, float(t_mid), x)
        chord = 0.5 * (ks[i - 1] + ks[i + 1])
        assert k_mid >= chord * (1 - 1e-9)


def test_k_is_quasi_norm_in_x():
    rng = np.random.default_rng(2)
    c = CoupleSpec(DIAG14, 1.0, 0.5, 2.0)
    t = 0.8
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        kx = k_functional(c, t, x)
        ky = k_functional(c, t, y)
        kxy = k_functional(c, t, x + y)
        assert kxy <= (kx + ky) * (1 + 1e-9)
        assert k_functional(c, t, 3.0 * x) == pytest.approx(3.0 * kx, rel=1e-9)


def test_interpolation_norm_zero_and_scaling():
    c = CoupleSpec(DIAG14, 1.0, 0.5, 2.0)
    assert interpolation_norm(c, np.zeros(2, dtype=complex)).value == 0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    v1 = interpolation_norm(c, x).value
    v3 = interpolation_norm(c, 3.0 * x).value
    assert v3 == pytest.approx(3.0 * v1, rel=1e-9)


def test_interpolation_norm_against_brute_grid():
    c = CoupleSpec(DIAG14, 1.0, 0.5, 2.0)
    got = interpolation_norm(c, ONES2).value
    want = ref.interpolation_norm([1.0, 4.0], ONES2, 1.0, 0.5, 2.0,
                                  n_t=2000, n_mu=2000)
    assert got == pytest.approx(want, rel=1e-4)


def test_interpolation_norm_sup_variant():
    c = CoupleSpec(DIAG14, 1.0, 0.4, math.inf)
    got = interpolation_norm(c, ONES2).value
    want = ref.interpolation_norm([1.0, 4.0], ONES2, 1.0, 0.4, math.inf,
                                  n_t=4000, n_mu=2000)
    assert got == pytest.approx(want, rel=1e-4)


def test_dense_couple_route():
    # non-normal operator: the couple diagonalizes (A^a)^H (A^a) internally
    m = np.array([[1.0, 0.6], [0.0, 2.0]])
    h = OperatorHandle.dense(m)
    c = CoupleSpec(h, 1.0, 0.5, 2.0)
    x = np.array([1.0, -0.5], dtype=complex)
    got = k_functional(c, 0.7, x, validate=True)
    # brute scan over the same minimizer curve built from dense matrices
    best = min(np.linalg.norm(x), 0.7 * np.linalg.norm(m @ x))
    b = m.conj().T @ m
    for mu in np.geomspace(1e-12, 1e12, 4001):
        y = np.linalg.solve(np.eye(2) + mu * b, x)
        best = min(best, np.linalg.norm(x - y) + 0.7 * np.linalg.norm(m @ y))
    assert got == pytest.approx(best, rel=1e-6)


# Regression inputs on log-uniform spectra (diagonal n = 6). MOTIVATION is
# eig ~ exp(U(ln 1e-2, ln 1e3)) + 0.05 and x ~ N + iN from default_rng(5),
# twelfth draw; the sup case is the twenty-third draw of default_rng(7)
# without the shift.
MOTIVATION_EIG = [0.14270010791743307, 0.46612797041405013, 0.07910019124046623,
                  475.24456343327086, 0.7193757741646621, 0.12571612259103412]
MOTIVATION_X = [1.5099831293121058e-05 - 0.18758970531896946j,
                1.1888306785373703 + 1.7694502363979239j,
                -1.014468137602427 + 1.720484746826155j,
                0.6666833259020761 + 0.8555220049018919j,
                0.7952990996016167 + 0.33194635951240653j,
                -0.6993883083236738 + 1.1383096209632015j]
SUP_EIG = [70.12268055168387, 0.021211664811880897, 43.57228415666527,
           0.0119443462571378, 619.0848054056373, 2.2046974637410095]
SUP_X = [0.16384119233310074 + 0.3372378158484627j, -1.67135248657008 - 1.0439509249842558j,
         -0.382867148766769 - 0.5015972714256735j, 0.9837549084000277 - 0.4590656767054133j,
         -1.2517438155744967 - 0.04951933794250218j, 1.072227544934612 - 0.5361439659430923j]


def _curve_ends(eig, x, alpha):
    """||x||, ||A^a x|| and the ends t0 = ||A^a x||/||B x||, t_inf = ||A^-a x||/||x||."""
    sig = np.asarray(eig) ** (2.0 * alpha)
    w = np.abs(np.asarray(x)) ** 2
    nx, ncx = math.sqrt(w.sum()), math.sqrt((w * sig).sum())
    return nx, ncx, ncx / math.sqrt((w * sig ** 2).sum()), math.sqrt((w / sig).sum()) / nx


def _quad_interpolation_norm(eig, x, alpha, theta, q):
    """The q-norm integral of t^-theta K(t, x) over [t0, t_inf] by scipy's
    quad on the scalar K, with both closed-form tails."""
    from scipy import integrate
    c = CoupleSpec(OperatorHandle.diagonal(eig), alpha, theta, q)
    nx, ncx, t0, t_inf = _curve_ends(eig, x, alpha)
    core, _ = integrate.quad(
        lambda u: (math.exp(-theta * u) * k_functional(c, math.exp(u), x)) ** q,
        math.log(t0), math.log(t_inf), epsabs=0.0, epsrel=1e-13, limit=400)
    tails = (ncx ** q * t0 ** ((1 - theta) * q) / ((1 - theta) * q)
             + nx ** q * t_inf ** (-theta * q) / (theta * q))
    return (core + tails) ** (1.0 / q)


@pytest.mark.parametrize("eig, x, alpha, theta, q", [
    (MOTIVATION_EIG, MOTIVATION_X, 1.4, 0.6, 2.0),
    (SUP_EIG, SUP_X, 1.4, 0.3, math.inf),
    # sigma twelve decades apart: t^-theta K has local maxima 0.63 near
    # t = 1e-6 and 1.00007 near t = 1, and only the second is the sup
    ([1.0, 1e6], [1.0, 1e-2], 1.0, 0.3, math.inf),
])
def test_interpolation_norm_against_scalar_k(eig, x, alpha, theta, q):
    from scipy import optimize
    x = np.array(x, dtype=complex)
    c = CoupleSpec(OperatorHandle.diagonal(eig), alpha, theta, q)
    res = interpolation_norm(c, x)
    _, _, t0, t_inf = _curve_ends(eig, x, alpha)
    assert (res.j_lo, res.j_hi) == (math.floor(math.log2(t0)), math.ceil(math.log2(t_inf)))
    assert res.tail_bound <= 1e-9 * res.value

    def profile(u):
        return math.exp(-theta * u) * k_functional(c, math.exp(u), x)

    if math.isinf(q):
        # global maximum: best point of a fine ln t grid, refined inside its cell
        us = np.linspace(math.log(t0), math.log(t_inf), 801)
        k = int(np.argmax([profile(u) for u in us]))
        best = optimize.minimize_scalar(
            lambda u: -profile(u), bounds=(us[max(k - 1, 0)], us[min(k + 1, 800)]),
            method="bounded", options={"xatol": 1e-12})
        assert res.value == pytest.approx(-best.fun, rel=1e-10)
    else:
        assert res.value == pytest.approx(_quad_interpolation_norm(eig, x, alpha, theta, q),
                                          rel=1e-9)


@pytest.mark.parametrize("eig, x, alpha, theta", [
    (MOTIVATION_EIG, MOTIVATION_X, 1.4, 0.6), (MOTIVATION_EIG, MOTIVATION_X, 0.8, 0.3),
    (SUP_EIG, SUP_X, 1.4, 0.3), (SUP_EIG, SUP_X, 0.8, 0.6),
])
def test_reference_interpolation_norm_against_the_quad_oracle(eig, x, alpha, theta):
    # the brute oracle's ln t grid runs from kink to kink of K, t0 to t_inf
    x = np.array(x, dtype=complex)
    want = _quad_interpolation_norm(eig, x, alpha, theta, 2.0)
    assert ref.interpolation_norm(eig, x, alpha, theta, 2.0) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("route", ["diagonal", "dense"])
def test_interpolation_norm_on_an_eigenvector(route, q):
    # x in one eigenspace of B: t0 = t_inf = t* and K(t) = min(t ||A^a x||, ||x||)
    theta = 0.4
    if route == "diagonal":
        h, alpha = OperatorHandle.diagonal([1.0, 4.0, 9.0]), 0.7
        x = np.array([0.0, 3.0 - 1.0j, 0.0])
        ax = np.array([0.0, 4.0 ** 0.7, 0.0]) * x
    else:
        m = np.array([[2.0, 0.3, 0.0], [0.0, 2.0, 0.1], [0.0, 0.0, 3.0]])
        h, alpha = OperatorHandle.dense(m), 1.0
        x = np.linalg.eigh(m.T @ m)[1][:, 1].astype(complex)   # carries rounding noise
        ax = m @ x
    nx, ncx = np.linalg.norm(x), np.linalg.norm(ax)
    t_star = nx / ncx
    if math.isinf(q):
        want = ncx ** theta * nx ** (1 - theta)
    else:
        want = (ncx ** q * t_star ** ((1 - theta) * q) / ((1 - theta) * q)
                + nx ** q * t_star ** (-theta * q) / (theta * q)) ** (1.0 / q)
    got = interpolation_norm(CoupleSpec(h, alpha, theta, q), x).value
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_bound_covers_the_quadrature_discretization(monkeypatch, q):
    # the reported bound must carry the quadrature's tails and its last
    # step-halving difference through the 1/q power
    import fracbesov.interpolation as interp
    seen = []

    def recording(*args, **kwargs):
        total, diag = integrate_multiplicative(*args, **kwargs)
        seen.append(diag)
        return total, diag

    monkeypatch.setattr(interp, "integrate_multiplicative", recording)
    x = np.array([1.0, 0.5 - 0.25j, 2.0], dtype=complex)
    c = CoupleSpec(OperatorHandle.diagonal([0.05, 1.0, 30.0]), 1.0, 0.4, q)
    res = interpolation_norm(c, x)
    (diag,) = seen
    assert diag.discretization > 0.0
    spill = diag.tail_bound + diag.discretization
    assert res.tail_bound >= 0.999 * ((res.value ** q + spill) ** (1.0 / q) - res.value)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("a", [0.3, 0.7, 1.6])
def test_couple_geometry_without_eigen_data_matches_scipy(seed, a):
    # sigma are the squared singular values of A^a, here on a 5x5 non-normal
    # upper-triangular handle drawn as the nonnormal_upper ensemble draws them
    from scipy.linalg import fractional_matrix_power as fmp
    rng = np.random.default_rng(seed)
    diag = np.sort(np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=5)))
    m = np.diag(diag) + 0.4 * np.triu(rng.normal(size=(5, 5)), 1)
    h = OperatorHandle.dense(m)
    assert h.spectral is None
    sigma = np.sort(_CoupleGeometry(CoupleSpec(h, a, 0.5, 2.0)).sigma)
    want = np.sort(np.linalg.svd(fmp(m, a), compute_uv=False) ** 2)
    assert np.abs(sigma - want).max() <= 1e-12 * want.max()


def test_curve_sup_tent_bound_covers_random_cells(monkeypatch):
    # the cell bound of the q = inf sup, taken from its cell_sup call, against
    # 201 points inside each of 30 random cells of 40 random 2-8 point
    # diagonals; the sup itself against a 200001-point scan of the curve
    import fracbesov.interpolation as interp
    seen = []

    def recording(evaluate, bound, lo, hi, cells, tol):
        seen.append((evaluate, bound, lo, hi))
        return cell_sup(evaluate, bound, lo, hi, cells, tol)

    monkeypatch.setattr(interp, "cell_sup", recording)
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        eigs = np.exp(rng.uniform(-4.0, 4.0, n))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta = float(rng.uniform(0.2, 0.8))
        res = interpolation_norm(CoupleSpec(OperatorHandle.diagonal(eigs),
                                            float(rng.uniform(0.3, 1.5)), theta, math.inf), x)
        evaluate, bound, lo, hi = seen.pop()
        scan = float(np.exp(evaluate(np.linspace(lo, hi, 200001))[0].max()))
        assert scan <= (res.value + res.tail_bound) * (1.0 + 1e-13)
        ua = rng.uniform(lo, hi, 30)
        ub = np.minimum(ua + np.exp(rng.uniform(-6.0, 1.0, 30)), hi)
        tops = bound(ua, ub, evaluate(ua), evaluate(ub))
        inside = evaluate(np.linspace(ua, ub, 201).ravel())[0].reshape(201, 30)
        assert np.all(inside.max(axis=0) <= tops + 1e-13)


def test_sup_on_a_diagonal_imports_no_scipy():
    # the q = inf sup is a branch and bound on the curve's own records, with
    # no root solve, so a diagonal couple loads no scipy module
    script = ("import math, sys\n"
              "import numpy as np\n"
              "from fracbesov.interpolation import CoupleSpec, interpolation_norm\n"
              "from fracbesov.operators import OperatorHandle\n"
              "h = OperatorHandle.diagonal([0.5, 1, 2, 4, 8, 16, 32])\n"
              "r = interpolation_norm(CoupleSpec(h, 0.75, 0.5, math.inf), np.ones(7))\n"
              "assert r.value > 0 and r.tail_bound <= 1e-9 * r.value\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
