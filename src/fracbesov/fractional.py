"""Fractional powers, fractional resolvents, semigroups and reproducing
formulas for non-negative operator handles.

The workhorse is the real-integral representation

    A^a x = G(n)/(G(a) G(n-a)) * int_0^inf l^a [A (l+A)^{-1}]^n x dl/l

with n the smallest integer above Re a, discretized by the log-substituted
quadrature of :mod:`fracbesov.quadrature` to a relative ``tail_tolerance``
(1e-9 by default) in every evaluator that integrates. A spectral route
(multiplier calculus through the handle's eigen-transform) serves as the
independent oracle, and :func:`subordinated_semigroup_via_kernel` as the
cross-check of the subordinated semigroup. On handles without spectral
data, A^z and the compositions A^b (l+A)^{-g} are one Cauchy integral over a
contour around the spectrum, whose nodes serve every shift l and every
exponent at once.

On handles with eigen-data every evaluator works in eigen-coordinates
(:func:`_coordinates`): it maps x to coefficients once at entry, every
quadrature node weights coefficient rows by scalar multipliers of the
eigenvalues, and the integral (linear in the rows) is mapped back once at
exit. The multipliers l^pre mu^b (l+mu)^{-g} are combined in log space
(:func:`_log_multiplier_rows`), in real arithmetic when the exponents are
real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammafn import (
    balakrishnan_prefactor,
    gamma,
    reciprocal_beta_prefactor,
    unified_prefactor,
)
from .operators import OperatorHandle, as_array
from .quadrature import QuadratureError, integrate_multiplicative


class SemigroupUnavailableError(RuntimeError):
    """Raised when an operation needs e^{-tA} but no spectral route exists."""


def _is_integer(v: float) -> bool:
    return abs(v - round(v)) < 1e-14


def _cpow(base: np.ndarray, z: complex) -> np.ndarray:
    """Principal power b^z for b >= 0 (0^z := 0, requires Re z > 0 when hit)."""
    b = np.asarray(base, dtype=float)
    out = np.zeros(b.shape, dtype=complex)
    pos = b > 0
    out[pos] = np.exp(z * np.log(b[pos]))
    if np.any(~pos) and z.real <= 0 and z != 0:
        raise ValueError("zero eigenvalue with Re z <= 0 has no principal power")
    if z == 0:
        out[~pos] = 1.0
    return out


_DECAY_MARGIN = 0.4


def _representation_order(alpha: complex) -> int:
    """Integer n > Re alpha for the real-integral representation; bumped by
    one when the lambda^{Re alpha - n} decay at infinity would be too slow
    to truncate (the representation is independent of n > Re alpha)."""
    n = int(math.floor(alpha.real)) + 1
    if n - alpha.real < _DECAY_MARGIN:
        n += 1
    return n


def _log_multiplier_rows(eigs: np.ndarray, lams: np.ndarray, pre: complex, beta: complex,
                         gamma_exp: complex, coeff: np.ndarray) -> np.ndarray:
    """Coefficient rows lam_i^pre * mu_j^beta * (lam_i + mu_j)^{-gamma} * coeff_j
    over the eigenvalues mu_j (:func:`_multiplier_rows`), in real arithmetic
    when all three exponents are real and in complex arithmetic otherwise.
    ``coeff`` is one coefficient vector (rows (len(lams), n)) or a block
    (k, n) (rows (len(lams), k, n))."""
    exps = [complex(pre), complex(beta), complex(gamma_exp)]
    if all(e.imag == 0 for e in exps):
        exps = [e.real for e in exps]
    return _multiplier_rows(eigs, lams, *exps, coeff)


def _multiplier_rows(eigs, lams, pre, beta, gamma_exp, coeff):
    """The rows of :func:`_log_multiplier_rows` in the arithmetic of the
    exponents as given. Each weight is the exponential of
    pre ln lam + beta ln mu - gamma ln(lam + mu), so wide quadrature windows
    cannot overflow. At mu = 0 the weight is lam^{pre - gamma} for beta = 0
    and 0 for Re beta > 0; any other beta raises."""
    zero = eigs <= 0
    has_zero = bool(zero.any())
    if has_zero and beta != 0 and beta.real <= 0:
        raise ValueError("zero eigenvalue needs Re beta > 0 or beta = 0")
    lam = lams.reshape((-1,) + (1,) * coeff.ndim)
    # ln mu := 0 at mu = 0, where beta = 0 leaves lam^{pre - gamma}
    log_mu = np.log(np.where(zero, 1.0, eigs)) if has_zero else np.log(eigs)
    e = pre * np.log(lam) + beta * log_mu - gamma_exp * np.log(lam + eigs)
    if has_zero and beta != 0:
        e[..., zero] = -np.inf      # Re beta > 0: the zero modes contribute nothing
    return np.exp(e) * coeff


def _coordinates(handle: OperatorHandle, x: np.ndarray):
    """(v, back): ``x`` in the coordinates an evaluator computes in, and the
    map of its result back. With eigen-data these are the eigen-coordinates
    (v = to_coeff(x), back = from_coeff), so an evaluation makes one
    transform at entry and one at exit; otherwise ``x`` itself."""
    s = handle.spectral
    if s is None:
        return x, lambda y: y
    return s.to_coeff(x), s.from_coeff


def _shifted_rows(handle: OperatorHandle, lams: np.ndarray, v: np.ndarray,
                  companion: bool) -> np.ndarray:
    """Rows (lam_i + A)^{-1} v, or A (lam_i + A)^{-1} v with ``companion``,
    one per shift, in the coordinates of :func:`_coordinates`."""
    s = handle.spectral
    if s is not None:
        eig = s.eigenvalues
        return ((eig if companion else 1.0) / (lams[:, None] + eig)) * v
    if companion:
        return handle.l_compose_batch(lams, np.tile(v, (len(lams), 1)))
    return handle.resolvent_many(lams, v)


def _power_integrand(compose, a: complex, n: int, x: np.ndarray):
    """Integrand l^a [compose(l)]^n x of the real-integral representation,
    where compose(lams, rows) maps row_i -> B (lam_i + B)^{-1} row_i. ``x`` is
    one vector (values (nodes, n)) or a block (k, n) (values (nodes, k, n));
    a block is repeated over the nodes so each power is one compose call."""
    k = 1 if x.ndim == 1 else x.shape[0]

    def integrand(lams: np.ndarray) -> np.ndarray:
        node_lams = np.repeat(lams, k)
        rows = np.tile(x, (len(lams), 1))
        for _ in range(n):
            rows = compose(node_lams, rows)
        weights = _cpow(lams, a).reshape((-1,) + (1,) * x.ndim)
        return weights * rows.reshape((len(lams),) + x.shape)
    return integrand


# --------------------------------------------------------------------------
# Balakrishnan power
# --------------------------------------------------------------------------

def frac_power(
    handle: OperatorHandle,
    alpha,
    x,
    tail_tolerance: float = 1e-9,
    with_diagnostics: bool = False,
):
    """A^alpha x by the real-integral representation, Re alpha > 0; ``x`` is
    a vector (n,) or a block (k, n) of row vectors.

    Real-integer alpha falls through to repeated application (the Gamma
    prefactor degenerates there); integer real part with nonzero imaginary
    part is rejected for quadrature and served only by the spectral route.
    """
    a = complex(alpha)
    x = as_array(x)
    if a == 0 or (_is_integer(a.real) and a.imag == 0 and a.real > 0):
        y = x.copy()
        for _ in range(int(round(a.real))):
            y = handle.apply(y)
        return (y, None) if with_diagnostics else y
    if a.real <= 0:
        raise ValueError("frac_power needs Re alpha > 0")
    if _is_integer(a.real):
        raise ValueError(
            "integer Re alpha with nonzero Im alpha is outside the quadrature "
            "representation; use spectral_frac_power")
    n = _representation_order(a)
    pref = balakrishnan_prefactor(a, n)
    lo, hi = handle.scales()
    s = handle.spectral
    v, back = _coordinates(handle, x)

    if s is not None:
        def integrand(lams: np.ndarray) -> np.ndarray:
            return _log_multiplier_rows(s.eigenvalues, lams, a, n, n, v)
    else:
        integrand = _power_integrand(handle.l_compose_batch, a, n, v)

    val, diag = integrate_multiplicative(integrand, lo, hi, tail_tolerance,
                                         decay_lo=a.real, decay_hi=n - a.real)
    result = back(pref * val)
    return (result, diag) if with_diagnostics else result


def spectral_frac_power(handle: OperatorHandle, z, x) -> np.ndarray:
    """A^z x through the eigen-transform; the oracle for every quadrature route."""
    z = complex(z)
    if handle.spectral is None:
        raise ValueError("spectral_frac_power needs spectral data")
    x = as_array(x)
    s = handle.spectral
    return s.from_coeff(s.to_coeff(x) * _cpow(s.eigenvalues, z))


def power_apply(handle: OperatorHandle, z, x) -> np.ndarray:
    """A^z x for any complex z: eigen-multipliers when the handle has
    spectral data, otherwise the contour integral of :func:`_contour_apply`."""
    z = complex(z)
    x = as_array(x)
    if z == 0:
        return x.copy()
    if handle.spectral is not None:
        return spectral_frac_power(handle, z, x)
    return _contour_apply(handle, z, 0.0, np.ones(1), x)[0]


# --------------------------------------------------------------------------
# compositions A^beta (lam + A)^{-gamma}
# --------------------------------------------------------------------------

_CONTOUR_MARGIN = 1.5     # real semi-axis beyond the half-range of log|eigenvalues|
_CONTOUR_HEIGHT = 2.2     # imaginary semi-axis, below pi: clear of z <= 0 and z <= -lam
_CONTOUR_RTOL = 1e-12
_CONTOUR_START = 32
_CONTOUR_MIN_CAP = 1024
_CONTOUR_NODES_PER_RADIUS = 128


def _contour_apply(handle: OperatorHandle, b: complex, g: complex, lams: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Rows A^b (lam_i + A)^{-g} x, one per shift, for a handle without
    spectral data: the Cauchy integral (1/2 pi i) oint f(z) (z - A)^{-1} x dz
    with f(z) = z^b (lam + z)^{-g}, on an ellipse in w = log z around the
    logs of the Schur eigenvalues (|Im w| < pi keeps f analytic inside). The
    trapezoid rule in the angle converges geometrically (Hale, Higham &
    Trefethen, SIAM J. Numer. Anal. 46(5), 2008) and its nodes depend only
    on A, so one block of Schur solves serves every shift. Node counts
    double, solving only at the new nodes, until each shift's last two sums
    agree to _CONTOUR_RTOL; ``x`` is a vector (n,) or a block (k, n).

    The angle strip where the integrand stays analytic narrows like
    (pi - _CONTOUR_HEIGHT) / radius, so the nodes for a fixed accuracy grow
    linearly with the radius: the cap is _CONTOUR_NODES_PER_RADIUS per unit
    of radius, never below _CONTOUR_MIN_CAP. (Spectra up to [1e-12, 1e12]
    with shifts four decades beyond certify within about 100 per unit.)"""
    eigs = np.diag(handle._schur()[1])
    if np.any((eigs.imag == 0) & (eigs.real <= 0)):
        raise ValueError("the contour route needs every eigenvalue off (-inf, 0]")
    logs = np.log(eigs)
    lo, hi = logs.real.min(), logs.real.max()
    centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo) + _CONTOUR_MARGIN
    cap = max(_CONTOUR_MIN_CAP, _CONTOUR_NODES_PER_RADIUS * radius)
    if np.any(((logs.real - centre) / radius) ** 2 + (logs.imag / _CONTOUR_HEIGHT) ** 2 >= 1.0):
        raise ValueError("an eigenvalue lies outside the contour: too close to (-inf, 0]")
    rows = x.reshape(-1, handle.dim)
    out = np.empty((len(lams), rows.size), dtype=complex)
    active = np.arange(len(lams))      # shifts not yet certified
    sums = np.zeros_like(out)
    prev = None
    nodes, ks = _CONTOUR_START, np.arange(_CONTOUR_START)
    while True:
        t = 2.0 * np.pi * ks / nodes
        w = centre + radius * np.cos(t) + 1j * _CONTOUR_HEIGHT * np.sin(t)
        z = np.exp(w)
        dz = z * (-radius * np.sin(t) + 1j * _CONTOUR_HEIGHT * np.cos(t))
        # (z - A)^{-1} = -(-z + A)^{-1}, one row of the block per node
        res = -handle._schur_solve(np.repeat(-z, len(rows)), np.tile(rows, (len(z), 1)))
        f = np.exp(b * w[None, :] - g * np.log(lams[active, None] + z[None, :]))
        sums += (f * dz[None, :]) @ res.reshape(len(z), -1)
        value = sums / (1j * nodes)
        if prev is not None:
            done = np.linalg.norm(value - prev, axis=1) <= \
                _CONTOUR_RTOL * np.linalg.norm(value, axis=1)
            out[active[done]] = value[done]
            active, sums, value = active[~done], sums[~done], value[~done]
            if len(active) == 0:
                return out.reshape((len(lams),) + x.shape)
            if nodes >= cap:
                raise QuadratureError(
                    f"contour integral not certified at {nodes} nodes for "
                    f"{len(active)} of {len(lams)} shifts")
        prev = value
        ks = 2 * np.arange(nodes) + 1      # the new, odd-indexed nodes
        nodes *= 2


def phi_apply(handle: OperatorHandle, beta, gamma_exp, lam, x) -> np.ndarray:
    """A^beta (lam + A)^{-gamma} x with 0 <= Re beta <= Re gamma and lam > 0.

    ``x`` is a vector (n,) or a block (k, n) of row vectors. ``lam`` is one
    shift, giving the shape of ``x``, or a 1-D array of shifts, giving one
    leading row (or (k, n) block) per shift. Handles with eigen-data use
    spectral multipliers; all others use one contour integral for all shifts
    (:func:`_contour_apply`), which raises ValueError when a Schur eigenvalue
    lies on (-inf, 0], singular handles included.
    """
    b = complex(beta)
    g = complex(gamma_exp)
    x = as_array(x)
    if b.real < 0 or g.real < b.real:
        raise ValueError("phi_apply needs 0 <= Re beta <= Re gamma")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a scalar or a 1-D array")
    if not np.all(lams > 0):
        raise ValueError("phi_apply needs lam > 0")
    v, back = _coordinates(handle, x)
    y = back(_weighted_rows(handle, 0.0, b, g, np.atleast_1d(lams), v))
    return y[0] if lams.ndim == 0 else y


def _weighted_rows(handle: OperatorHandle, pre: complex, b: complex, g: complex,
                   lams: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows (or blocks) lam_i^pre A^b (lam_i + A)^{-g} v in the coordinates
    of :func:`_coordinates`: multiplier rows with eigen-data, else
    :func:`_contour_apply`."""
    s = handle.spectral
    if s is not None:
        return _log_multiplier_rows(s.eigenvalues, lams, pre, b, g, v)
    rows = _contour_apply(handle, b, g, lams, v)
    return rows if pre == 0 else _cpow(lams, pre).reshape((-1,) + (1,) * v.ndim) * rows


# --------------------------------------------------------------------------
# unified representation
# --------------------------------------------------------------------------

def frac_power_unified(
    handle: OperatorHandle,
    z,
    alpha,
    beta,
    x,
    tail_tolerance: float = 1e-9,
) -> np.ndarray:
    """A^z x from the two-parameter integral over l^{z+a} A^b (l+A)^{-a-b}.

    Admissibility: -Re alpha < Re z < Re beta; A must be injective for
    Re z <= 0. ``x`` is a vector (n,) or a block (k, n) of row vectors.
    """
    zc, a, b = complex(z), complex(alpha), complex(beta)
    x = as_array(x)
    if not (-a.real < zc.real < b.real):
        raise ValueError(
            f"admissibility violated: need -Re alpha < Re z < Re beta, "
            f"got alpha={a}, z={zc}, beta={b}")
    if a.real < 0 or b.real < 0:
        raise ValueError("alpha, beta must have nonnegative real part")
    if zc.real <= 0 and not handle.injective():
        raise ValueError("Re z <= 0 needs an injective operator")
    pref = unified_prefactor(zc, a, b)
    lo, hi = handle.scales()
    v, back = _coordinates(handle, x)

    def integrand(lams):
        return _weighted_rows(handle, zc + a, b, a + b, lams, v)

    val, _ = integrate_multiplicative(integrand, lo, hi, tail_tolerance,
                                      decay_lo=zc.real + a.real,
                                      decay_hi=b.real - zc.real)
    return back(pref * val)


# --------------------------------------------------------------------------
# fractional resolvents
# --------------------------------------------------------------------------

def frac_resolvent(
    handle: OperatorHandle,
    alpha: float,
    lam: float,
    x,
    tail_tolerance: float = 1e-9,
    companion: bool = False,
) -> np.ndarray:
    """(lam + A^alpha)^{-1} x for 0 < alpha < 1 via the explicit kernel

        mu^{alpha+1} / (lam^2 + 2 lam mu^alpha cos(pi alpha) + mu^{2 alpha})

    integrated against (mu + A)^{-1} x. With ``companion=True`` the
    A^alpha (lam + A^alpha)^{-1} variant (kernel lam mu^alpha / (...) against
    A (mu + A)^{-1} x) is returned instead.

    The integrand in u = ln mu is analytic in the strip |Im u| < d with
    d = min(pi, pi (1 - alpha)/alpha): the kernel's poles sit at distance
    pi (1 - alpha)/alpha, the resolvent's at pi. The quadrature halves its
    step until the discretization is certified, so the step shrinks as alpha
    nears 1; on a spectrum spanning 1e-2 to 1e3 it raises QuadratureError at
    its node cap from about alpha = 0.9995. The a-priori trapezoid error
    exp(-2 pi d / h) at the final spacing h is checked as an independent
    cross-check and raises QuadratureError when it exceeds the tolerance.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("frac_resolvent needs alpha in (0, 1)")
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = as_array(x)
    pref = reciprocal_beta_prefactor(alpha).real
    cosa = math.cos(math.pi * alpha)
    lo, hi = handle.scales()
    v, back = _coordinates(handle, x)

    def integrand(mus):
        denom = lam * lam + 2.0 * lam * mus ** alpha * cosa + mus ** (2 * alpha)
        if companion:
            kern = lam * mus ** alpha / denom
        else:
            kern = mus ** (alpha + 1.0) / denom
        return kern[:, None] * _shifted_rows(handle, mus, v, companion)

    val, diag = integrate_multiplicative(integrand, lo, hi, tail_tolerance,
                                         decay_lo=alpha, decay_hi=alpha)
    strip = min(math.pi, math.pi * (1.0 - alpha) / alpha)
    h = (diag.u_max - diag.u_min) / (diag.nodes - 1)
    discretization = math.exp(-2.0 * math.pi * strip / h)
    if discretization > tail_tolerance:
        raise QuadratureError(
            f"frac_resolvent at alpha={alpha}: trapezoid error estimate "
            f"{discretization:.1e} exceeds {tail_tolerance:.1e} "
            f"(pole strip {strip:.2e}, node spacing {h:.2e})")
    return back(pref * val)


# --------------------------------------------------------------------------
# semigroups
# --------------------------------------------------------------------------

def semigroup_apply(handle: OperatorHandle, t: float, x) -> np.ndarray:
    """e^{-tA} x via eigen-multipliers (matrix-exponential fallback disabled)."""
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    x = as_array(x)
    if t == 0:
        return x.copy()
    s = handle.spectral
    if s is None:
        raise SemigroupUnavailableError(
            "semigroup action needs spectral data (dense matrix exponential is disabled)")
    return s.from_coeff(s.to_coeff(x) * np.exp(-t * s.eigenvalues))


def frac_power_via_semigroup(
    handle: OperatorHandle,
    alpha,
    beta,
    x,
    tail_tolerance: float = 1e-9,
) -> np.ndarray:
    """A^alpha x = 1/G(beta-alpha) * int t^{-alpha} (tA)^beta e^{-tA} x dt/t."""
    a, b = complex(alpha), complex(beta)
    x = as_array(x)
    if a == 0:
        return x.copy()
    if not (0 < a.real < b.real):
        raise ValueError("needs 0 < Re alpha < Re beta")
    s = handle.spectral
    if s is None:
        raise SemigroupUnavailableError("semigroup route needs spectral data")
    lo, hi = handle.scales()
    pref = 1.0 / gamma(b - a)
    v, back = _coordinates(handle, x)

    def integrand(ts):
        mult = _cpow(ts[:, None] * s.eigenvalues[None, :], b) * \
            np.exp(-ts[:, None] * s.eigenvalues[None, :])
        return _cpow(ts, -a)[:, None] * (mult * v[None, :])

    val, _ = integrate_multiplicative(integrand, 1.0 / hi, 1.0 / max(lo, 1e-300),
                                      tail_tolerance, decay_lo=b.real - a.real, decay_hi=1.0)
    return back(pref * val)


_SERIES_SWITCH = 0.5    # w^{-alpha} below which the stable density is a series
_SERIES_TERMS = 60


def _stable_density(alpha: float, w: float) -> float:
    """One-sided alpha-stable density g with Laplace transform e^{-lam^alpha}.

    Where w^{-alpha} < _SERIES_SWITCH it sums the convergent series

        g(w) = (1/pi) sum_{k>=1} (-1)^{k+1} G(k a + 1)/k! sin(k pi a) w^{-k a - 1}.

    Elsewhere it integrates the non-oscillatory angular representation

        g(w) = a/(1-a) w^{-1/(1-a)} (1/pi) int_0^pi A(phi) e^{-w^{-a/(1-a)} A(phi)} dphi,
        A(phi) = [sin(a phi)^a sin((1-a) phi)^{1-a} / sin(phi)]^{1/(1-a)},

    in logarithms, as (a/(1-a)) (1/(pi w)) int_0^pi E e^{-E} dphi with
    E = w^{-a/(1-a)} A(phi). At large w that integrand peaks too sharply at
    phi = pi for adaptive quadrature, which is where the series takes over.
    """
    if w <= 0.0:
        return 0.0
    x = w ** (-alpha)
    if x < _SERIES_SWITCH:
        return sum((-1) ** (k + 1) * math.exp(math.lgamma(k * alpha + 1.0) - math.lgamma(k + 1.0))
                   * math.sin(k * math.pi * alpha) * x ** k
                   for k in range(1, _SERIES_TERMS)) / (math.pi * w)
    from scipy.integrate import quad

    r = alpha / (1.0 - alpha)
    log_w = math.log(w)

    def f(phi):
        e = (alpha * math.log(math.sin(alpha * phi))
             + (1.0 - alpha) * math.log(math.sin((1.0 - alpha) * phi))
             - math.log(math.sin(phi))) / (1.0 - alpha) - r * log_w    # log E
        return math.exp(e - math.exp(e)) if e < 6.5 else 0.0

    val, _ = quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-12, limit=200)
    return r * val / (math.pi * w)


def subordination_kernel(alpha: float, t: float, s: float) -> float:
    """Density k_alpha(t, s) of the semigroup generated by -A^alpha against
    the base semigroup: int_0^inf k_alpha(t, s) e^{-s mu} ds = e^{-t mu^alpha}.

    Evaluated through the scaling k_alpha(t, s) = t^{-1/alpha} g(s t^{-1/alpha})
    of the one-sided stable density g (:func:`_stable_density`), whose series
    and angular integral stay bounded at every alpha. (The Fourier form
    exp(-s r - t r^alpha cos(pi alpha)) grows once alpha > 1/2.)
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("subordination needs alpha in (0, 1)")
    if t <= 0 or s <= 0:
        raise ValueError("t and s must be positive")
    scale = t ** (-1.0 / alpha)
    return scale * _stable_density(alpha, s * scale)


def _subordination_args(handle: OperatorHandle, alpha: float, t: float, x) -> np.ndarray:
    """``x`` as an array, once alpha, t and (for t > 0) the eigen-data are checked."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("needs alpha in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > 0 and handle.spectral is None:
        raise SemigroupUnavailableError("subordinated semigroup needs spectral data")
    return as_array(x)


def subordinated_semigroup(handle: OperatorHandle, alpha: float, t: float, x) -> np.ndarray:
    """e^{-t A^alpha} x, 0 < alpha < 1, by the multiplier e^{-t mu^alpha} per eigenvalue."""
    x = _subordination_args(handle, alpha, t, x)
    if t == 0:
        return x.copy()
    s = handle.spectral
    return s.from_coeff(s.to_coeff(x) * np.exp(-t * _cpow(s.eigenvalues, alpha).real))


def subordinated_semigroup_via_kernel(handle: OperatorHandle, alpha: float, t: float, x,
                                      tail_tolerance: float = 1e-9) -> np.ndarray:
    """e^{-t A^alpha} x = int_0^inf k_alpha(t, s) e^{-sA} x ds, the subordination
    density (:func:`subordination_kernel`) against the base semigroup: the
    cross-check of :func:`subordinated_semigroup`."""
    x = _subordination_args(handle, alpha, t, x)
    if t == 0:
        return x.copy()
    eig = handle.spectral.eigenvalues
    v, back = _coordinates(handle, x)

    def integrand(ss):
        kern = np.array([subordination_kernel(alpha, t, si) for si in ss]) * ss   # ds = s du
        return kern[:, None] * np.exp(-ss[:, None] * eig[None, :]) * v[None, :]

    center = t ** (1.0 / alpha)
    val, _ = integrate_multiplicative(integrand, center, center, tail_tolerance,
                                      decay_lo=1.0, decay_hi=alpha)
    return back(val)


# --------------------------------------------------------------------------
# ergodic limits
# --------------------------------------------------------------------------

@dataclass
class ErgodicLimits:
    limit_at_infinity: np.ndarray     # of t^a (t+A)^{-a} x as t -> inf
    limit_at_zero: np.ndarray         # of t^a (t+A)^{-a} x as t -> 0 (kernel part)
    range_component: np.ndarray       # limit of A^a (t+A)^{-a} x as t -> 0
    converged_at_infinity: bool
    converged_at_zero: bool
    t_grid: np.ndarray
    trace_m: np.ndarray               # ||t^a (t+A)^{-a} x - extrapolant||
    trace_l: np.ndarray


_ERGODIC_RTOL = 1e-6      # convergence toward infinity; its square root toward zero


def ergodic_limits(handle: OperatorHandle, alpha, x) -> ErgodicLimits:
    """Evaluate t^a (t+A)^{-a} x and A^a (t+A)^{-a} x across both ergodic
    regimes, on 33 log-spaced t from 1e-8 to 1e8 times the spectral scales,
    and extrapolate the kernel/range splitting."""
    a = complex(alpha)
    x = as_array(x)
    lo, hi = handle.scales()
    t_grid = np.geomspace(1e-8 * lo, 1e8 * hi, 33)

    m_rows = (t_grid ** a)[:, None] * phi_apply(handle, 0.0, a, t_grid, x)
    l_rows = phi_apply(handle, a, a, t_grid, x)

    scale = np.linalg.norm(x) or 1.0
    # one Richardson step at the known approach rates: O(1/t) toward
    # infinity, O(t^{min(Re a, 1)}) for the kernel split toward zero
    ratio = t_grid[-1] / t_grid[-2]
    lim_inf = m_rows[-1] + (m_rows[-1] - m_rows[-2]) / (ratio - 1.0)
    rate0 = min(max(a.real, 1e-6), 1.0)
    rho0 = (t_grid[1] / t_grid[0]) ** rate0
    lim_zero = m_rows[0] - (m_rows[1] - m_rows[0]) / (rho0 - 1.0)
    rho1 = t_grid[1] / t_grid[0]
    range_comp = l_rows[0] - (l_rows[1] - l_rows[0]) / (rho1 - 1.0)
    conv_inf = bool(np.linalg.norm(m_rows[-1] - lim_inf) <= _ERGODIC_RTOL * scale)
    loose = math.sqrt(_ERGODIC_RTOL) * scale
    conv_zero = bool(np.linalg.norm(m_rows[0] - lim_zero) <= loose
                     and np.linalg.norm(l_rows[0] - range_comp) <= loose)
    trace_m = np.linalg.norm(m_rows - lim_inf[None, :], axis=1)
    trace_l = np.linalg.norm(l_rows - range_comp[None, :], axis=1)
    return ErgodicLimits(lim_inf, lim_zero, range_comp, conv_inf, conv_zero,
                         t_grid, trace_m, trace_l)


# --------------------------------------------------------------------------
# reproducing formulas
# --------------------------------------------------------------------------

def reproducing_residual(
    handle: OperatorHandle,
    alpha,
    m: int,
    lam_cut: float,
    x,
    tail_tolerance: float = 1e-9,
) -> float:
    """Relative residual of the truncated reproducing identity

        x = G(a+m)/(G(a) G(m)) int_{lam}^inf t^a A^m (t+A)^{-a-m} x dt/t
            + sum_{k<m} G(a+k)/(G(a) G(k+1)) [A(lam+A)^{-1}]^k lam^a (lam+A)^{-a} x.

    ``lam_cut = 0`` selects the boundary-free full-line variant (injective
    operators only). For ``lam_cut > 0`` the substitution
    t = lam_cut (1 + mu) moves the lower limit to 0:

        int_{lam}^inf F(t) dt/t = int_0^inf F(lam (1 + mu)) mu/(1 + mu) dmu/mu,

    an integrand decaying like mu at 0 and like mu^{-m} at infinity, analytic
    in the same strip |Im ln mu| < pi, so the one quadrature rule serves both
    variants. ``x`` is one vector (n,): the residual is one relative norm.
    """
    a = complex(alpha)
    if a.real <= 0:
        raise ValueError("needs Re alpha > 0")
    if m < 1:
        raise ValueError("m must be a positive integer")
    x = as_array(x)
    if x.ndim != 1:
        raise ValueError("reproducing_residual takes one vector (n,), not a block")
    lo, hi = handle.scales()
    v, back = _coordinates(handle, x)

    def tail_integrand(ts):
        return _weighted_rows(handle, a, complex(m), a + m, ts, v)

    pref_tail = gamma(a + m) / (gamma(a) * gamma(m))
    if lam_cut == 0:
        if not handle.injective():
            raise ValueError("the boundary-free variant needs an injective operator")
        val, _ = integrate_multiplicative(tail_integrand, lo, hi, tail_tolerance,
                                          decay_lo=a.real, decay_hi=m)
        y = pref_tail * val
    else:
        def shifted(mus):
            return (mus / (1.0 + mus))[:, None] * tail_integrand(lam_cut * (1.0 + mus))

        val, _ = integrate_multiplicative(shifted, 1.0, max(hi / lam_cut, 1.0), tail_tolerance,
                                          decay_lo=1.0, decay_hi=m)
        y = pref_tail * val
        cut = np.array([lam_cut], dtype=float)
        term = lam_cut ** a * _weighted_rows(handle, 0.0, 0.0, a, cut, v)[0]
        boundary = np.zeros_like(v)
        for k in range(m):
            coeff = gamma(a + k) / (gamma(a) * gamma(k + 1))
            boundary = boundary + coeff * term
            if k + 1 < m:
                term = _shifted_rows(handle, cut, term, True)[0]
        y = y + boundary
    y = back(y)
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(x), 1e-300))

