"""The brute-force interpolation oracle's lower-envelope scan against the
dense lines x t-grid minimum it replaces, and the continuous oracle's q = 2
closed form and cut q = inf scan against quadrature and the full scan."""

import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from fracbesov import reference as ref
from fracbesov.harness import DEFAULT_SEED, _cal_diag, _REF, draw_samples

EPS = np.finfo(float).eps


def _lines(eigs, absx2, alpha, n_mu):
    """The oracle's mu-node lines d + t g for a diagonal spectrum."""
    sig = eigs ** (2 * alpha)
    r = np.geomspace(1e-14, 1e14, n_mu)[:, None] * sig[None, :]
    d = np.sqrt((absx2[None, :] * (r / (1.0 + r)) ** 2).sum(axis=1))
    g = np.sqrt((absx2[None, :] * sig[None, :] / (1.0 + r) ** 2).sum(axis=1))
    return d, g


def _dense_min(d, g, ts):
    return (d[:, None] + ts * g[:, None]).min(axis=0)


def _random_case(rng, case):
    n = 1 if case % 10 == 0 else int(rng.integers(2, 10))
    eigs = np.exp(rng.uniform(-8.0, 8.0, n))
    if case % 3 == 1:
        eigs[rng.random(n) < 0.4] = 0.0        # zero eigenvalues
    if case % 25 == 2:
        eigs[:] = 0.0                          # all-zero spectrum: every line is 0
    x = rng.normal(size=n)
    if case % 4 == 3:
        x *= 1e-8
    if case % 5 == 4:
        x[rng.random(n) < 0.4] = 0.0           # x with zero entries
    return eigs, x ** 2, float(rng.uniform(0.2, 2.0))


@pytest.mark.parametrize("n_mu", [1000, 4000])
def test_envelope_matches_the_dense_scan(n_mu):
    rng = np.random.default_rng(16)
    ts = np.geomspace(1e-16, 1e16, 1000)
    for case in range(200):
        eigs, absx2, alpha = _random_case(rng, case)
        d, g = _lines(eigs, absx2, alpha, n_mu)
        dense = _dense_min(d, g, ts)
        got = ref._lower_envelope_min(d, g, ts)
        # the same float expression over a subset of the lines: never below
        assert np.all(got >= dense), case
        assert np.all(got - dense <= 4 * EPS * dense), case


def test_envelope_degenerate_line_sets():
    ts = np.geomspace(1e-3, 1e3, 7)
    one = ref._lower_envelope_min(np.array([2.0]), np.array([3.0]), ts)
    assert np.array_equal(one, 2.0 + ts * 3.0)
    zeros = ref._lower_envelope_min(np.zeros(5), np.zeros(5), ts)
    assert np.array_equal(zeros, np.zeros(7))
    equal = ref._lower_envelope_min(np.ones(4), np.full(4, 0.5), ts)
    assert np.array_equal(equal, 1.0 + ts * 0.5)


def _dense_interpolation_norm(eigs, x, alpha, theta, q, n_t=1000, n_mu=1000):
    """The oracle with its minimum over mu taken on the dense array."""
    absx2 = np.abs(np.asarray(x)) ** 2
    sig = np.asarray(eigs, dtype=float) ** (2 * alpha)
    cx = math.sqrt(float((absx2 * sig).sum()))
    nx = math.sqrt(float(absx2.sum()))
    # the oracle's grid: from t0 = cx / ||A^{2 alpha} x|| to t_inf = ||A^{-alpha} x|| / nx
    us = np.linspace(math.log(cx) - 0.5 * math.log(float((absx2 * sig ** 2).sum())),
                     0.5 * math.log(float((absx2 / sig).sum())) - math.log(nx), n_t)
    ts = np.exp(us)
    d, g = _lines(np.asarray(eigs, dtype=float), absx2, alpha, n_mu)
    ks = np.minimum(_dense_min(d, g, ts), np.minimum(nx, ts * cx))
    prof = np.exp(-theta * us) * ks
    core = float(np.trapezoid(prof ** q, us))
    tail_lo = (cx ** q) * math.exp((1 - theta) * q * us[0]) / ((1 - theta) * q)
    tail_hi = (nx ** q) * math.exp(-theta * q * us[-1]) / (theta * q)
    return (core + tail_lo + tail_hi) ** (1.0 / q)


def test_interpolation_norm_on_the_calibration_draws():
    # the 40 draws the interpolation check calibrates its ceiling on at the
    # default seed, shifted and evaluated exactly as the check does
    check_seed = (DEFAULT_SEED ^ zlib.crc32(b"interpolation")) & 0x7FFFFFFF
    samples = draw_samples(replace(_cal_diag(), seed=check_seed + 7919))
    assert len(samples) == 40
    for s in samples:
        eigs, c = _REF._data(_REF.shifted_sample(s, 0.05))
        for alpha in (0.8, 1.4):
            for theta in (0.3, 0.6):
                for q in (1.0, 2.0):
                    got = ref.interpolation_norm(eigs, c, alpha, theta, q)
                    want = _dense_interpolation_norm(eigs, c, alpha, theta, q)
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("eigs, x", [([0.5, 2.0, 3.0], [0.0, 0.0, 0.0]),
                                     ([0.0, 1.0], [1.0, 0.0])])
def test_interpolation_norm_is_zero_when_the_seminorm_vanishes(eigs, x, q):
    # A^alpha x = 0 lets x1 = x cost nothing, so K(t, x) = 0 at every t
    assert ref.interpolation_norm(eigs, x, 0.8, 0.4, q) == 0.0


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_interpolation_norm_drops_the_kernel_part(q):
    # x1 takes the kernel part of x at no cost, so K(t, x) is that of the rest
    eigs, x = [0.0, 0.5, 2.0, 30.0], np.array([3.0, 1.0, -0.5j, 0.2])
    assert ref.interpolation_norm(eigs, x, 0.8, 0.4, q) == \
        ref.interpolation_norm(eigs[1:], x[1:], 0.8, 0.4, q)


def _continuous_cases(count, seed, n_max):
    """(eigs, x, s, k, alpha, beta) draws of admissible continuous indices,
    some with a zero eigenvalue and some with beta = 0."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, n_max + 1))
        eigs = np.exp(rng.uniform(-5.0, 7.0, n))
        if case % 4 == 0:
            eigs[0] = 0.0
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha = float(rng.uniform(0.1, 1.5))
        beta = 0.0 if case % 5 == 3 else float(rng.uniform(0.3, 2.5))
        s = float(rng.uniform(-alpha + 0.02, beta - 0.02))
        yield eigs, x, s, int(rng.integers(-3, 4)), alpha, beta


def test_continuous_sum_part_closed_form_at_q2():
    # the q = 2 integral per eigen-term, by quadrature in the log-parameter u
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for eigs, x, s, k, alpha, beta in _continuous_cases(12, 40, 4):
            terms = [(mpmath.mpf(float(m)), mpmath.mpf(float(abs(c)) ** 2))
                     for m, c in zip(eigs, x) if m > 0 or beta == 0]

            def integrand(u):
                return mpmath.exp(-2 * (beta - s) * u) * mpmath.fsum(
                    c * (m ** (2 * beta) if m else 1) * (1 + mpmath.exp(-u) * m) ** (-2 * (alpha + beta))
                    for m, c in terms)

            u0 = k * mpmath.log(2)
            breaks = sorted({u0} | {mpmath.log(m) for m, _ in terms if m and mpmath.log(m) > u0})
            want = float(mpmath.sqrt(mpmath.quad(integrand, breaks + [mpmath.inf])))
            got = ref.continuous_sum_part(eigs, x, s, 2.0, k, alpha, beta)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_continuous_sum_part_cut_scan_is_the_full_scan():
    # the q = inf scan stops early; its maximum is the full grid's, bit for bit
    for eigs, x, s, k, alpha, beta in _continuous_cases(60, 41, 32):
        absx2 = np.abs(x) ** 2
        gap = beta - s
        top = math.log(max(eigs.max(initial=1.0), 1.0)) + 60.0 / max(gap, 0.25)
        us = np.arange(k * math.log(2.0), top, 2e-3)
        prof2 = ((1.0 + np.exp(-us)[:, None] * eigs) ** (-2 * (alpha + beta))
                 * (eigs ** (2 * beta) * absx2)).sum(axis=1)
        full = float((np.exp(-us * gap) * np.sqrt(prof2)).max(initial=0.0))
        assert ref.continuous_sum_part(eigs, x, s, math.inf, k, alpha, beta) == full
