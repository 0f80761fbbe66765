"""Fractional powers, fractional resolvents, semigroups and reproducing
formulas for non-negative operator handles.

The workhorse is the real-integral representation

    A^a x = G(n)/(G(a) G(n-a)) * int_0^inf l^a [A (l+A)^{-1}]^n x dl/l

with n the smallest integer above Re a, discretized by the log-substituted
quadrature of :mod:`fracbesov.quadrature`. A spectral route (multiplier
calculus through the handle's eigen-transform) serves as the independent
oracle. On handles without spectral data, A^z and the compositions
A^b (l+A)^{-g} are one Cauchy integral over a contour around the spectrum,
whose nodes serve every shift l and every exponent at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gammafn import (
    balakrishnan_prefactor,
    gamma,
    reciprocal_beta_prefactor,
    unified_prefactor,
)
from .operators import OperatorHandle, as_array
from .quadrature import (
    DEFAULT_SCHEME,
    QuadratureError,
    QuadratureScheme,
    integrate_multiplicative,
)


class SemigroupUnavailableError(RuntimeError):
    """Raised when an operation needs e^{-tA} but no spectral route exists."""


@dataclass(frozen=True)
class Exponent:
    """A power exponent z together with the Balakrishnan witness integer."""
    value: complex

    @property
    def witness_n(self) -> int:
        re = complex(self.value).real
        if re < 0:
            raise ValueError("witness integer is defined for Re z >= 0")
        return int(math.floor(re)) + 1


def _as_complex(z) -> complex:
    if isinstance(z, Exponent):
        return complex(z.value)
    return complex(z)


def _is_integer(v: float) -> bool:
    return abs(v - round(v)) < 1e-14


def _witness(alpha: complex) -> int:
    return Exponent(alpha).witness_n


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
    n = _witness(alpha)
    if n - alpha.real < _DECAY_MARGIN:
        n += 1
    return n


def _log_multiplier_rows(sdata, lams: np.ndarray, pre: complex, beta: complex,
                         gamma_exp: complex, coeff: np.ndarray) -> np.ndarray:
    """Rows lam_i^pre * mu_j^beta * (lam_i + mu_j)^{-gamma} * coeff_j, combined
    in log space so wide quadrature windows cannot overflow. ``coeff`` is one
    coefficient vector (rows (len(lams), n)) or a block (k, n) (rows
    (len(lams), k, n))."""
    pre, beta, gamma_exp = complex(pre), complex(beta), complex(gamma_exp)
    eigs = sdata.eigenvalues
    lu = np.log(lams).reshape((-1,) + (1,) * coeff.ndim)
    out = np.zeros((len(lams),) + coeff.shape, dtype=complex)
    pos = eigs > 0
    if np.any(pos):
        lm = np.log(eigs[pos])
        lsum = np.logaddexp(lu, lm)
        out[..., pos] = np.exp(pre * lu + beta * lm - gamma_exp * lsum) * coeff[..., pos]
    if np.any(~pos):
        if beta == 0:
            out[..., ~pos] = np.exp((pre - gamma_exp) * lu) * coeff[..., ~pos]
        elif beta.real <= 0:
            raise ValueError("zero eigenvalue needs Re beta > 0 or beta = 0")
        # Re beta > 0: the zero modes contribute nothing
    return sdata.from_coeff(out)


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
    scheme: QuadratureScheme = DEFAULT_SCHEME,
    with_diagnostics: bool = False,
):
    """A^alpha x by the real-integral representation, Re alpha > 0; ``x`` is
    a vector (n,) or a block (k, n) of row vectors.

    Real-integer alpha falls through to repeated application (the Gamma
    prefactor degenerates there); integer real part with nonzero imaginary
    part is rejected for quadrature and served only by the spectral route.
    """
    a = _as_complex(alpha)
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

    if s is not None:
        coeff = s.to_coeff(x)

        def integrand(lams: np.ndarray) -> np.ndarray:
            return _log_multiplier_rows(s, lams, a, n, n, coeff)
    else:
        integrand = _power_integrand(handle.l_compose_batch, a, n, x)

    val, diag = integrate_multiplicative(integrand, lo, hi, scheme,
                                         decay_lo=a.real, decay_hi=n - a.real)
    result = pref * val
    return (result, diag) if with_diagnostics else result


def spectral_frac_power(handle: OperatorHandle, z, x) -> np.ndarray:
    """A^z x through the eigen-transform; the oracle for every quadrature route."""
    z = _as_complex(z)
    if handle.spectral is None:
        raise ValueError("spectral_frac_power needs spectral data")
    x = as_array(x)
    s = handle.spectral
    return s.from_coeff(s.to_coeff(x) * _cpow(s.eigenvalues, z))


def power_apply(handle: OperatorHandle, z, x) -> np.ndarray:
    """A^z x for any complex z: eigen-multipliers when the handle has
    spectral data, otherwise the contour integral of :func:`_contour_apply`."""
    z = _as_complex(z)
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
    b = _as_complex(beta)
    g = _as_complex(gamma_exp)
    x = as_array(x)
    if b.real < 0 or g.real < b.real:
        raise ValueError("phi_apply needs 0 <= Re beta <= Re gamma")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a scalar or a 1-D array")
    if not np.all(lams > 0):
        raise ValueError("phi_apply needs lam > 0")
    scalar = lams.ndim == 0
    lams = np.atleast_1d(lams)
    s = handle.spectral
    if s is not None:
        y = _log_multiplier_rows(s, lams, 0.0, b, g, s.to_coeff(x))
    else:
        y = _contour_apply(handle, b, g, lams, x)
    return y[0] if scalar else y


# --------------------------------------------------------------------------
# unified representation
# --------------------------------------------------------------------------

def frac_power_unified(
    handle: OperatorHandle,
    z,
    alpha,
    beta,
    x,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
) -> np.ndarray:
    """A^z x from the two-parameter integral over l^{z+a} A^b (l+A)^{-a-b}.

    Admissibility: -Re alpha < Re z < Re beta; A must be injective for
    Re z <= 0. ``x`` is a vector (n,) or a block (k, n) of row vectors.
    """
    zc, a, b = _as_complex(z), _as_complex(alpha), _as_complex(beta)
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
    s = handle.spectral

    if s is not None:
        coeff = s.to_coeff(x)

        def integrand(lams):
            return _log_multiplier_rows(s, lams, zc + a, b, a + b, coeff)
    else:
        def integrand(lams):
            weights = _cpow(lams, zc + a).reshape((-1,) + (1,) * x.ndim)
            return weights * phi_apply(handle, b, a + b, lams, x)

    val, _ = integrate_multiplicative(integrand, lo, hi, scheme,
                                      decay_lo=zc.real + a.real,
                                      decay_hi=b.real - zc.real)
    return pref * val


# --------------------------------------------------------------------------
# fractional resolvents
# --------------------------------------------------------------------------

def frac_resolvent(
    handle: OperatorHandle,
    alpha: float,
    lam: float,
    x,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
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

    def integrand(mus):
        denom = lam * lam + 2.0 * lam * mus ** alpha * cosa + mus ** (2 * alpha)
        if companion:
            kern = lam * mus ** alpha / denom
            rows = handle.l_compose_batch(mus, np.tile(x, (len(mus), 1)))
        else:
            kern = mus ** (alpha + 1.0) / denom
            rows = handle.resolvent_many(mus, x)
        return kern[:, None] * rows

    val, diag = integrate_multiplicative(integrand, lo, hi, scheme,
                                         decay_lo=alpha, decay_hi=alpha)
    strip = min(math.pi, math.pi * (1.0 - alpha) / alpha)
    h = (diag.u_max - diag.u_min) / (diag.nodes - 1)
    discretization = math.exp(-2.0 * math.pi * strip / h)
    if discretization > scheme.tail_tolerance:
        raise QuadratureError(
            f"frac_resolvent at alpha={alpha}: trapezoid error estimate "
            f"{discretization:.1e} exceeds {scheme.tail_tolerance:.1e} "
            f"(pole strip {strip:.2e}, node spacing {h:.2e})")
    return pref * val


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


def _semigroup_rows(handle: OperatorHandle, ts: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = handle.spectral
    if s is None:
        raise SemigroupUnavailableError("semigroup action needs spectral data")
    return s.from_coeff(np.exp(-ts[:, None] * s.eigenvalues[None, :]) * s.to_coeff(x)[None, :])


def frac_power_via_semigroup(
    handle: OperatorHandle,
    alpha,
    beta,
    x,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
) -> np.ndarray:
    """A^alpha x = 1/G(beta-alpha) * int t^{-alpha} (tA)^beta e^{-tA} x dt/t."""
    a, b = _as_complex(alpha), _as_complex(beta)
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
    coeff = s.to_coeff(x)

    def integrand(ts):
        mult = _cpow(ts[:, None] * s.eigenvalues[None, :], b) * \
            np.exp(-ts[:, None] * s.eigenvalues[None, :])
        rows = s.from_coeff(mult * coeff[None, :])
        return _cpow(ts, -a)[:, None] * rows

    val, _ = integrate_multiplicative(integrand, 1.0 / hi, 1.0 / max(lo, 1e-300),
                                      scheme, decay_lo=b.real - a.real, decay_hi=1.0)
    return pref * val


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


def subordinated_semigroup(
    handle: OperatorHandle,
    alpha: float,
    t: float,
    x,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
    route: str = "spectral",
) -> np.ndarray:
    """e^{-t A^alpha} x, 0 < alpha < 1.

    The spectral route applies e^{-t mu^alpha} per eigenvalue; the kernel
    route integrates the subordination density against the base semigroup
    and exists as a cross-check.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("needs alpha in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    x = as_array(x)
    if t == 0:
        return x.copy()
    s = handle.spectral
    if s is None:
        raise SemigroupUnavailableError("subordinated semigroup needs spectral data")
    if route == "spectral":
        return s.from_coeff(s.to_coeff(x) * np.exp(-t * _cpow(s.eigenvalues, alpha).real))
    if route != "kernel":
        raise ValueError("route must be 'spectral' or 'kernel'")

    def integrand(ss):
        kern = np.array([subordination_kernel(alpha, t, si) for si in ss])
        return (kern * ss)[:, None] * _semigroup_rows(handle, ss, x)  # ds = s du

    center = t ** (1.0 / alpha)
    val, _ = integrate_multiplicative(integrand, center, center, scheme,
                                      decay_lo=1.0, decay_hi=alpha)
    return val


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


def ergodic_limits(
    handle: OperatorHandle,
    alpha,
    x,
    t_grid: Optional[np.ndarray] = None,
    rtol: float = 1e-6,
) -> ErgodicLimits:
    """Evaluate t^a (t+A)^{-a} x and A^a (t+A)^{-a} x across both ergodic
    regimes and extrapolate the kernel/range splitting."""
    a = _as_complex(alpha)
    x = as_array(x)
    if t_grid is None:
        lo, hi = handle.scales()
        t_grid = np.geomspace(1e-8 * lo, 1e8 * hi, 33)
    t_grid = np.asarray(t_grid, dtype=float)

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
    conv_inf = bool(np.linalg.norm(m_rows[-1] - lim_inf) <= rtol * scale)
    conv_zero = bool(np.linalg.norm(m_rows[0] - lim_zero) <= math.sqrt(rtol) * scale
                     and np.linalg.norm(l_rows[0] - range_comp) <= math.sqrt(rtol) * scale)
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
    scheme: QuadratureScheme = DEFAULT_SCHEME,
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
    a = _as_complex(alpha)
    if a.real <= 0:
        raise ValueError("needs Re alpha > 0")
    if m < 1:
        raise ValueError("m must be a positive integer")
    x = as_array(x)
    if x.ndim != 1:
        raise ValueError("reproducing_residual takes one vector (n,), not a block")
    lo, hi = handle.scales()

    def tail_integrand(ts):
        s = handle.spectral
        if s is not None:
            return _log_multiplier_rows(s, ts, a, m, a + m, s.to_coeff(x))
        return _cpow(ts, a)[:, None] * phi_apply(handle, float(m), a + m, ts, x)

    pref_tail = gamma(a + m) / (gamma(a) * gamma(m))
    if lam_cut == 0:
        if not handle.injective():
            raise ValueError("the boundary-free variant needs an injective operator")
        val, _ = integrate_multiplicative(tail_integrand, lo, hi, scheme,
                                          decay_lo=a.real, decay_hi=m)
        y = pref_tail * val
    else:
        def shifted(mus):
            return (mus / (1.0 + mus))[:, None] * tail_integrand(lam_cut * (1.0 + mus))

        val, _ = integrate_multiplicative(shifted, 1.0, max(hi / lam_cut, 1.0), scheme,
                                          decay_lo=1.0, decay_hi=m)
        y = pref_tail * val
        w = lam_cut ** a * phi_apply(handle, 0.0, a, lam_cut, x)
        boundary = np.zeros_like(x)
        term = w
        for k in range(m):
            coeff = gamma(a + k) / (gamma(a) * gamma(k + 1))
            boundary = boundary + coeff * term
            if k + 1 < m:
                term = handle.l_compose_batch(np.array([lam_cut]), term[None, :])[0]
        y = y + boundary
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(x), 1e-300))

