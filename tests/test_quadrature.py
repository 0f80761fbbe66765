"""Log-substituted quadrature: exactness anchors and tail certification."""

import math

import numpy as np
import pytest

from fracbesov.gammafn import balakrishnan_prefactor, reciprocal_beta_prefactor
from fracbesov.quadrature import (
    QuadratureError,
    TailCertificationError,
    cell_sup,
    integrate_multiplicative,
)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.5])
@pytest.mark.parametrize("n", [2, 3])
def test_beta_integral_anchor(alpha, n):
    # pref * int lam^a (1+lam)^{-n} dlam/lam == 1
    pref = balakrishnan_prefactor(alpha, n)
    val, diag = integrate_multiplicative(
        lambda lam: lam ** alpha * (1 + lam) ** (-n), 1.0, 1.0,
        1e-10, decay_lo=alpha, decay_hi=n - alpha)
    assert abs(pref * val - 1.0) <= 1e-8
    assert diag.tail_bound <= 1e-9 * abs(val)
    assert diag.discretization <= 1e-10 * abs(val)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_resolvent_weight_anchor(alpha, lam):
    # pref * int lam mu^a / (lam^2 + 2 lam mu^a cos(pi a) + mu^{2a}) dmu/mu == 1
    pref = reciprocal_beta_prefactor(alpha).real
    cosa = math.cos(math.pi * alpha)

    def f(mus):
        return lam * mus ** alpha / (lam * lam + 2 * lam * mus ** alpha * cosa
                                     + mus ** (2 * alpha))

    val, _ = integrate_multiplicative(f, lam, lam,
                                      decay_lo=alpha, decay_hi=alpha)
    assert abs(pref * val - 1.0) <= 1e-6


def test_vector_valued_integrand():
    # per-component beta integrals with different exponents
    def f(lams):
        return np.stack([lams ** 0.5 * (1 + lams) ** -2,
                         lams ** 1.5 * (1 + lams) ** -2], axis=1)

    val, _ = integrate_multiplicative(f, 1.0, 1.0,
                                      decay_lo=0.5, decay_hi=0.5)
    assert val[0].real == pytest.approx(1.0 / balakrishnan_prefactor(0.5, 2).real, rel=1e-8)
    assert val[1].real == pytest.approx(1.0 / balakrishnan_prefactor(1.5, 2).real, rel=1e-8)


def test_widening_happens_for_wide_spectra():
    # scales spanning 1e6 force the initial window open; answer stays exact
    pref = balakrishnan_prefactor(0.5, 2)
    val, diag = integrate_multiplicative(
        lambda lam: lam ** 0.5 * (1 + lam) ** (-2), 1e-3, 1e3,
        decay_lo=0.5, decay_hi=1.5)
    assert abs(pref * val - 1.0) <= 1e-8


def test_zero_integrand_short_circuits():
    val, diag = integrate_multiplicative(lambda lam: 0.0 * lam, 1.0, 1.0,
                                         decay_lo=1.0, decay_hi=1.0)
    assert val == 0.0
    assert diag.tail_bound == 0.0


def test_uncertifiable_tail_raises():
    # integrand ~ 1/log-decay only: no exponential tail in u, certification fails
    with pytest.raises(TailCertificationError):
        integrate_multiplicative(
            lambda lam: 1.0 / (1.0 + np.log(lam) ** 2), 1.0, 1.0,
            decay_lo=1.0, decay_hi=1.0)


def test_unresolvable_integrand_raises():
    # relative noise of 1e-4 never lets two halving levels agree to 1e-9
    rng = np.random.default_rng(0)

    def f(lam):
        return lam ** 0.5 * (1 + lam) ** (-2) * (1.0 + 1e-4 * rng.standard_normal(lam.shape))

    with pytest.raises(QuadratureError, match="discretization"):
        integrate_multiplicative(f, 1.0, 1.0, decay_lo=0.5, decay_hi=1.5)


def test_window_recertified_against_the_converged_value():
    # a bump narrow in ln(lambda) makes the step-1 level overestimate the
    # integral; the window certified against it is too narrow for the
    # converged value and must be widened, not rejected
    def f(lam):
        return np.exp(-((np.log(lam) - 0.5) / 0.08) ** 2) + 1e-7 * lam ** 0.5 / (1 + lam)

    val, diag = integrate_multiplicative(f, 1.0, 1.0, 1e-10,
                                         decay_lo=0.5, decay_hi=0.5)
    exact = 0.08 * math.sqrt(math.pi) + 1e-7 * math.pi
    assert max(diag.tail_low, diag.tail_high) <= 1e-10 * abs(val)
    assert abs(val - exact) <= diag.tail_bound + diag.discretization


_BETA_GRID = [(a, n) for a in (0.05, 0.25, 0.5, 0.75, 1.5, 2.5) for n in (1, 2, 3, 4) if n > a]


@pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-12])
@pytest.mark.parametrize("a, n", _BETA_GRID)
def test_tails_match_the_exact_beta_remainders(a, n, tol):
    # int lam^a (1+lam)^{-n} dlam/lam beyond lam_end is an incomplete beta
    # integral in s = lam/(1+lam); the rates a and n-a are its exact powers
    from scipy.special import beta, betainc

    _, diag = integrate_multiplicative(
        lambda lam: lam ** a * (1 + lam) ** (-n), 1.0, 1.0,
        tol, decay_lo=a, decay_hi=n - a)
    b = beta(a, n - a)
    below = b * betainc(a, n - a, 1.0 / (1.0 + math.exp(-diag.u_min)))
    above = b * betainc(n - a, a, 1.0 / (1.0 + math.exp(diag.u_max)))
    assert diag.tail_low / below == pytest.approx(1.0, abs=1e-6)
    assert diag.tail_high / above == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_decay_rates_must_be_positive_and_finite(bad):
    f = lambda lam: lam ** 0.5 * (1 + lam) ** (-2)
    with pytest.raises(ValueError, match="decay rates"):
        integrate_multiplicative(f, 1.0, 1.0, decay_lo=bad, decay_hi=1.5)
    with pytest.raises(ValueError, match="decay rates"):
        integrate_multiplicative(f, 1.0, 1.0, decay_lo=0.5, decay_hi=bad)


# ------------------------------------------------------------------ cell_sup ----

def _two_peaks(us):
    # a wide peak of height 1 at 0 and a narrow one of height 1.5 at 0.3,
    # 1e-3 wide: the 8 initial cells on [-2, 2] see only the wide one
    return np.array([np.exp(-us ** 2) + 1.5 * np.exp(-((us - 0.3) / 1e-3) ** 2)])


def _lipschitz_bound(ua, ub, ra, rb):
    # |f'| <= 1 + 1.5 sqrt(2/e) / 1e-3 < 1300, so the sup on a cell is at most
    # the mean of its ends plus 1300 times half its width
    return 0.5 * (ra[0] + rb[0]) + 650.0 * (ub - ua)


def test_cell_sup_finds_a_narrow_peak_the_initial_cells_miss():
    assert _two_peaks(np.linspace(-2.0, 2.0, 9))[0].max() < 1.1
    best, slack = cell_sup(_two_peaks, _lipschitz_bound, -2.0, 2.0, 8, 1e-6)
    # the narrow peak at spacing 1e-9, which misses its top by at most 4e-13
    sup = _two_peaks(0.3 + np.linspace(-1e-4, 1e-4, 200001))[0].max()
    assert sup > 2.4
    assert 0.0 <= slack <= 1e-6
    assert sup - 1e-6 <= best <= sup + 1e-12
    assert sup <= best + slack + 1e-15


def test_cell_sup_slack_covers_a_known_sup():
    # f = -(u - 1/3)^2 has sup 0 at a point no halving reaches, and f'' = -2
    # puts f below the larger end value plus w^2 / 4 on a cell of width w
    def chord(ua, ub, ra, rb):
        return np.maximum(ra[0], rb[0]) + (ub - ua) ** 2 / 4.0

    best, slack = cell_sup(lambda us: np.array([-(us - 1.0 / 3.0) ** 2]), chord,
                           -1.0, 2.0, 3, 1e-9)
    assert best < 0.0 <= best + slack
    assert slack <= 1e-9


def test_cell_sup_raises_when_a_bound_never_tightens():
    def loose(ua, ub, ra, rb):
        return np.maximum(ra[0], rb[0]) + 1.0

    with pytest.raises(QuadratureError, match="sup not certified"):
        cell_sup(_two_peaks, loose, -2.0, 2.0, 1, 1e-6)
