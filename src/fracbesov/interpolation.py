"""The K-functional of the couple (X, dom(A^alpha)) and the real-interpolation
quasi-norms it generates.

K(t, x) = inf over x = x0 + x1 of ||x0|| + t ||A^alpha x1||. In euclidean
geometry the minimizer lies on the one-parameter curve
y_mu = (I + mu B)^{-1} x with B = (A^alpha)^H (A^alpha): first-order
stationarity of ||x - y|| + t ||A^alpha y|| forces
(I + (t ||x-y|| / ||A^alpha y||) B) y = x. With d = ||x - y_mu|| and
g = ||A^alpha y_mu||, the curve therefore reaches

    t(mu) = mu g / d,        K(t(mu)) = d + mu g^2 / d,

and K is linear outside [t0, t_inf]: K(t) = t ||A^alpha x|| for t <= t0 =
||A^alpha x|| / ||B x|| (minimizer y = x) and K(t) = ||x|| for
t >= t_inf = ||(A^alpha)^{-H} x|| / ||x|| (minimizer y = 0).

In the eigenbasis of B (eigenvalues sigma_i, weights w_i = |x_i|^2) put
a_i = w_i sigma_i / (1 + mu sigma_i)^2 and b_i = a_i / (1 + mu sigma_i). Then
t(mu)^2 = sum a / sum a sigma and

    d ln t / d ln mu = mu (sum b) sum b_i (sigma_i - sigma_b)^2 / (sum a  sum a sigma),

sigma_b the b-weighted mean of sigma. The right side is >= 0 (zero only when
x lies in one eigenspace of B, where t0 = t_inf), so t(mu) is monotone: the
scalar K is one bracketed root solve, and the interpolation integral over t is
one quadrature over mu with this Jacobian, plus both tails in closed form.
The sup (q = inf) sits where the elasticity d ln K / d ln t = mu g^2 / (d^2 +
mu g^2) crosses theta; it can cross several times, so the crossings are
isolated by a certified bisection in ln mu and compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import NormResult
# frac_power is not called here; perfbench's tracer test looks it up on this
# module as its example of a name patched where it is looked up
from .fractional import frac_power, power_apply  # noqa: F401
from .operators import EUCLIDEAN, NormKind, OperatorHandle, as_array
from .quadrature import DEFAULT_SCHEME, QuadratureScheme, integrate_multiplicative


@dataclass(frozen=True)
class CoupleSpec:
    """Couple (X, dom(A^alpha)) with seminorm ||A^alpha .|| on the right slot."""
    handle: OperatorHandle
    alpha: complex
    theta: float
    q: float

    def __post_init__(self):
        if complex(self.alpha).real <= 0:
            raise ValueError("couple needs Re alpha > 0")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.q > 0:
            raise ValueError("q must be positive (inf allowed)")


class _CoupleGeometry:
    """Diagonalized data: sigma_i >= 0 and coefficients c_i with
    ||x - y_mu|| and ||A^alpha y_mu|| expressible per coordinate."""

    def __init__(self, couple: CoupleSpec):
        handle, alpha = couple.handle, complex(couple.alpha)
        if not handle.injective():
            raise ValueError(
                "K-functional evaluation is restricted to injective operators "
                "(the seminorm degenerates otherwise); shift the operator first")
        s = handle.spectral
        if s is not None:
            self.sigma = np.exp(2.0 * alpha.real * np.log(s.eigenvalues))
            self._to = s.to_coeff
            self._from = s.from_coeff
        else:
            # rows of the block are the images of the basis vectors
            cmat = power_apply(handle, alpha, np.eye(handle.dim, dtype=complex)).T
            bmat = cmat.conj().T @ cmat
            sig, u = np.linalg.eigh(0.5 * (bmat + bmat.conj().T))
            self.sigma = np.clip(sig.real, 0.0, None)
            self._to = lambda v: u.conj().T @ v
            self._from = lambda c: u @ c

    def coords(self, x: np.ndarray) -> np.ndarray:
        return self._to(x)

    def reconstruct(self, c: np.ndarray) -> np.ndarray:
        return self._from(c)


class _Curve:
    """The minimizer curve of one vector x, on the coordinates where x lives."""

    def __init__(self, couple: CoupleSpec, x: np.ndarray):
        self.geo = _CoupleGeometry(couple)
        self.c = self.geo.coords(x)
        w = np.abs(self.c) ** 2
        keep = w > 0
        self.w, self.sig = w[keep], self.geo.sigma[keep]
        self.nx = float(np.linalg.norm(x))
        self.ncx = math.sqrt(float((self.w * self.sig).sum()))     # ||A^alpha x||
        if np.ptp(self.sig) == 0.0:
            # x in one eigenspace of B: the curve collapses onto t* = ||x|| / ||A^alpha x||
            self.t0 = self.t_inf = self.nx / self.ncx
        else:
            self.t0 = self.ncx / math.sqrt(float((self.w * self.sig ** 2).sum()))
            self.t_inf = math.sqrt(float((self.w / self.sig).sum())) / self.nx

    def at(self, mu):
        """t(mu), d = ||x - y_mu||, g = ||A^alpha y_mu|| and d ln t / d ln mu."""
        mu = np.asarray(mu, dtype=float)
        one = 1.0 + mu[..., None] * self.sig
        a = self.w * self.sig / one ** 2
        b = a / one
        sa, sas, sb = a.sum(-1), (a * self.sig).sum(-1), b.sum(-1)
        sig_b = (b * self.sig).sum(-1) / sb
        spread = (b * (self.sig - sig_b[..., None]) ** 2).sum(-1)
        return np.sqrt(sa / sas), mu * np.sqrt(sas), np.sqrt(sa), mu * sb * spread / (sa * sas)

    def log_profile(self, u: float, theta: float) -> tuple[float, float]:
        """ln(t^-theta K(t)) at t = t(e^u), and the elasticity d ln K / d ln t."""
        t, d, g, _ = self.at(math.exp(u))
        k = d + t * g
        return float(math.log(k) - theta * math.log(t)), float(t * g / k)


def k_functional(
    couple: CoupleSpec,
    t: float,
    x,
    validate: bool = False,
    norm: NormKind = EUCLIDEAN,
) -> float:
    """K(t, x) for the couple, by the minimizer-curve parametrization."""
    if norm.kind != "euclidean":
        raise ValueError("the K-functional minimizer parametrization assumes "
                         "the euclidean ambient norm")
    if t <= 0:
        raise ValueError("t must be positive")
    x = as_array(x)
    if np.linalg.norm(x) == 0.0:
        return 0.0
    curve = _Curve(couple, x)
    nx, ncx = curve.nx, curve.ncx
    if t <= curve.t0:
        k_val, y = t * ncx, x
    elif t >= curve.t_inf:
        k_val, y = nx, np.zeros_like(x)
    else:
        mu = math.exp(_log_mu_at(curve, t))
        _, d, g, _ = curve.at(mu)
        k_val = min(float(d + t * g), nx, t * ncx)
        y = curve.geo.reconstruct(curve.c / (1.0 + mu * curve.geo.sigma))

    if validate:
        _validate_minimizer(couple, curve.geo, t, x, y, k_val)
    return float(k_val)


def _log_mu_at(curve: _Curve, t: float) -> float:
    """ln mu where t(mu) = t: Newton on ln t(e^u) - ln t, whose slope is the
    fourth value of ``curve.at``, bisecting whenever a step leaves the bracket."""
    def f(u):
        tm, _, _, slope = curve.at(math.exp(u))
        return math.log(float(tm) / t), float(slope)

    # d ln t / d ln mu <= min(mu max(sigma), 1/(mu min(sigma))): beyond this
    # bracket t(mu) is within e^-40 of t0 or t_inf, and so is K
    lo = -math.log(curve.sig.max()) - 40.0
    hi = -math.log(curve.sig.min()) + 40.0
    if f(lo)[0] >= 0:
        return lo
    if f(hi)[0] <= 0:
        return hi
    u = 0.5 * (lo + hi)
    for _ in range(200):
        gap, slope = f(u)
        lo, hi = (u, hi) if gap < 0.0 else (lo, u)
        nxt = u - gap / slope if slope > 0.0 else math.inf
        nxt = nxt if lo <= nxt <= hi else 0.5 * (lo + hi)
        if abs(nxt - u) <= 2e-12 + 8.9e-16 * abs(u):    # brentq's default tolerance
            return nxt
        u = nxt
    return u


def _validate_minimizer(couple, geo, t, x, y, k_val, directions: int = 64,
                        slack: float = 1e-9):
    """Perturb the minimizer in random directions; convexity forbids any
    improvement beyond numerical slack."""
    rng = np.random.default_rng(20240611)
    n = x.size
    scale = max(np.linalg.norm(y), np.linalg.norm(x))

    def objective(z):
        cz = geo.coords(z)
        gn = math.sqrt(float((geo.sigma * np.abs(cz) ** 2).sum()))
        return float(np.linalg.norm(x - z)) + t * gn

    for _ in range(directions):
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d *= scale / np.linalg.norm(d)
        for step in (1e-4, 1e-2):
            cand = objective(y + step * d)
            if cand < k_val - slack * max(k_val, 1.0):
                raise RuntimeError(
                    f"minimizer failed the perturbation check: {cand} < {k_val}")


def _curve_sup(curve: _Curve, theta: float, tol: float) -> tuple[float, float]:
    """max over mu of L = ln(t^-theta K) on the curve, and a bound on its error.

    The maxima are downward crossings of the elasticity e(u) = d ln K / d ln t
    through theta (u = ln mu), and there can be several, one per separated
    cluster of sigma. Since |de/du| <= 1/4 and dL/du = (e - theta) J with
    0 <= J <= 1, a cell of width w whose ends sit s = |e_a - theta| +
    |e_b - theta| from theta holds sign excursions at most D = (w/4 - s)/2
    deep, and L inside it exceeds its ends and its downward root by at most
    w D. Cells that could still beat the best value by more than tol are halved.
    """
    from scipy.optimize import brentq

    c = (1.0 - theta) / theta
    # mu sigma_min <= mu / t^2 = 1/e - 1 <= mu sigma_max: e > theta below lo, < theta above hi
    lo = math.log(0.5 * c / curve.sig.max())
    hi = math.log(2.0 * c / curve.sig.min())
    best, slack = -math.inf, 0.0
    cells = [(lo, hi, *curve.log_profile(lo, theta), *curve.log_profile(hi, theta), None)]
    while cells:
        ua, ub, la, ea, lb, eb, root = cells.pop()
        top = max(la, lb)
        if root is None and ea > theta > eb:
            root = brentq(lambda u: curve.log_profile(u, theta)[1] - theta, ua, ub)
        if root is not None:
            top = max(top, curve.log_profile(root, theta)[0])
        best = max(best, top)
        width = ub - ua
        gain = width * max(0.0, width / 4.0 - abs(ea - theta) - abs(eb - theta)) / 2.0
        if top + gain <= best + tol:
            slack = max(slack, top + gain - best)
            continue
        um = 0.5 * (ua + ub)
        lm, em = curve.log_profile(um, theta)
        left = root is not None and root <= um
        cells.append((ua, um, la, ea, lm, em, root if left else None))
        cells.append((um, ub, lm, em, lb, eb, root if root is not None and not left else None))
    return best, slack


def interpolation_norm(
    couple: CoupleSpec,
    x,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
    norm: NormKind = EUCLIDEAN,
) -> NormResult:
    """( int_0^inf (t^{-theta} K(t, x))^q dt/t )^{1/q} (sup for q = inf).

    K(t) = t ||A^alpha x|| below t0 and ||x|| above t_inf, so both tails
    integrate in closed form; between them t runs along the minimizer curve,
    and the integral becomes one quadrature over mu with Jacobian
    d ln t / d ln mu. ``j_lo``/``j_hi`` are floor(log2 t0) and ceil(log2 t_inf).
    """
    if norm.kind != "euclidean":
        raise ValueError("interpolation norms assume the euclidean ambient norm")
    x = as_array(x)
    if np.linalg.norm(x) == 0.0:
        return NormResult(0.0, 0.0, 0.0, 0, 0, 0.0)
    theta, q = couple.theta, couple.q
    curve = _Curve(couple, x)
    nx, ncx, t0, t_inf = curve.nx, curve.ncx, curve.t0, curve.t_inf
    curved = t0 < t_inf

    if math.isinf(q):
        value = max(ncx * t0 ** (1.0 - theta), nx * t_inf ** -theta)
        bound = 0.0
        if curved:
            top, slack = _curve_sup(curve, theta, scheme.tail_tolerance)
            value = max(value, math.exp(top))
            bound = value * math.expm1(slack)
    else:
        tails = (ncx ** q * t0 ** ((1.0 - theta) * q) / ((1.0 - theta) * q)
                 + nx ** q * t_inf ** (-theta * q) / (theta * q))
        integral, spill = 0.0, 0.0
        if curved:
            def integrand(mu):
                t, d, g, jac = curve.at(mu)
                return (t ** -theta * (d + t * g)) ** q * jac

            total, diag = integrate_multiplicative(
                integrand, 1.0 / curve.sig.max(), 1.0 / curve.sig.min(), scheme,
                decay_lo=1.0, decay_hi=1.0)
            integral, spill = float(total), diag.tail_bound + diag.discretization
        value = (integral + tails) ** (1.0 / q)
        bound = (integral + tails + spill) ** (1.0 / q) - value
    j_lo = int(math.floor(math.log2(t0)))
    j_hi = int(math.ceil(math.log2(t_inf)))
    return NormResult(float(value), 0.0, float(value), j_lo, j_hi, float(bound))
