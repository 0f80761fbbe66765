"""Log-substituted quadrature: exactness anchors and tail certification."""

import math

import numpy as np
import pytest

from fracbesov.gammafn import balakrishnan_prefactor, reciprocal_beta_prefactor
from fracbesov.quadrature import (
    QuadratureError,
    QuadratureScheme,
    TailCertificationError,
    integrate_multiplicative,
)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.5])
@pytest.mark.parametrize("n", [2, 3])
def test_beta_integral_anchor(alpha, n):
    # pref * int lam^a (1+lam)^{-n} dlam/lam == 1
    pref = balakrishnan_prefactor(alpha, n)
    val, diag = integrate_multiplicative(
        lambda lam: lam ** alpha * (1 + lam) ** (-n), 1.0, 1.0,
        QuadratureScheme(tail_tolerance=1e-10), decay_lo=alpha, decay_hi=n - alpha)
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

    val, _ = integrate_multiplicative(f, lam, lam, QuadratureScheme(),
                                      decay_lo=alpha, decay_hi=alpha)
    assert abs(pref * val - 1.0) <= 1e-6


def test_vector_valued_integrand():
    # per-component beta integrals with different exponents
    def f(lams):
        return np.stack([lams ** 0.5 * (1 + lams) ** -2,
                         lams ** 1.5 * (1 + lams) ** -2], axis=1)

    val, _ = integrate_multiplicative(f, 1.0, 1.0, QuadratureScheme(),
                                      decay_lo=0.5, decay_hi=0.5)
    assert val[0].real == pytest.approx(1.0 / balakrishnan_prefactor(0.5, 2).real, rel=1e-8)
    assert val[1].real == pytest.approx(1.0 / balakrishnan_prefactor(1.5, 2).real, rel=1e-8)


def test_widening_happens_for_wide_spectra():
    # scales spanning 1e6 force the initial window open; answer stays exact
    pref = balakrishnan_prefactor(0.5, 2)
    val, diag = integrate_multiplicative(
        lambda lam: lam ** 0.5 * (1 + lam) ** (-2), 1e-3, 1e3,
        QuadratureScheme(), decay_lo=0.5, decay_hi=1.5)
    assert abs(pref * val - 1.0) <= 1e-8


def test_zero_integrand_short_circuits():
    val, diag = integrate_multiplicative(lambda lam: 0.0 * lam, 1.0, 1.0,
                                         QuadratureScheme(), decay_lo=1.0, decay_hi=1.0)
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

    val, diag = integrate_multiplicative(f, 1.0, 1.0, QuadratureScheme(tail_tolerance=1e-10),
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
        QuadratureScheme(tail_tolerance=tol), decay_lo=a, decay_hi=n - a)
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
