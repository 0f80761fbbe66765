"""Quadrature for improper integrals with respect to d(lambda)/lambda.

Every fractional-power integral in this package has the form
``int_0^inf F(lambda) dlambda/lambda`` with F smooth and decaying at both
ends at a known power rate. The substitution ``lambda = exp(u)`` turns the
measure into plain ``du`` and the integrand into an analytic function with
exponential tails, where the composite trapezoid rule converges
super-algebraically. Truncation limits are widened automatically until the
estimated tails fall below the scheme's declared tolerance; failure to
certify raises instead of returning a silently truncated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_MAX_NODES = 1 << 18
_MAX_WIDENINGS = 60
_SLOPE_WINDOW = 9
_MIN_RATE = 1e-3
_U_ABS_CAP = 690.0  # exp() overflow guard


class QuadratureError(Exception):
    pass


class TailCertificationError(QuadratureError):
    """Raised when the integrand tails cannot be certified below tolerance."""


@dataclass(frozen=True)
class QuadratureScheme:
    u_min: Optional[float] = None        # limits after lambda = e^u; None = auto
    u_max: Optional[float] = None
    nodes: int = 2048
    tail_tolerance: float = 1e-9

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError("scheme needs at least 16 nodes")
        if self.u_min is not None and self.u_max is not None and not self.u_min < self.u_max:
            raise ValueError("u_min must be < u_max")


DEFAULT_SCHEME = QuadratureScheme()


@dataclass
class QuadratureDiagnostics:
    u_min: float = 0.0
    u_max: float = 0.0
    nodes: int = 0
    tail_low: float = 0.0
    tail_high: float = 0.0
    widenings: int = 0
    value_norm: float = 0.0

    @property
    def tail_bound(self) -> float:
        return self.tail_low + self.tail_high


def _legendre_panels(u_min: float, u_max: float, panels: int):
    """Nodes and weights of ``panels`` equal-width panels on [u_min, u_max],
    with a 16-point Gauss-Legendre rule on each: the rule for integrals with
    a fixed endpoint, where the trapezoid rule would pay an O(h^2) penalty."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(u_min, u_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return u, w


def _end_rate(u: np.ndarray, mags: np.ndarray, left: bool) -> tuple[float, bool]:
    """Least-squares log-slope of the magnitude profile at one end.

    Returns (outward decay rate, decaying flag). Rate is positive when the
    integrand shrinks toward the boundary.
    """
    w = min(_SLOPE_WINDOW, len(u))
    idx = slice(0, w) if left else slice(len(u) - w, len(u))
    uu, mm = u[idx], mags[idx]
    pos = mm > 0
    if pos.sum() < 3:
        return np.inf, True  # numerically zero tail
    lu, lm = uu[pos], np.log(mm[pos])
    slope = np.polyfit(lu, lm, 1)[0]
    rate = slope if left else -slope
    end_val = mm[0] if left else mm[-1]
    peak = mags.max()
    decaying = end_val <= peak * 1e-2 or rate > 0
    return rate, decaying


def integrate_multiplicative(
    f: Callable[[np.ndarray], np.ndarray],
    scale_lo: float,
    scale_hi: float,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
    decay_lo: Optional[float] = None,
    decay_hi: Optional[float] = None,
) -> tuple[np.ndarray, QuadratureDiagnostics]:
    """Compute int_0^inf f(lambda) dlambda/lambda with certified tails.

    ``f`` maps an array of lambda values to integrand values (last axis may
    be a vector dimension). ``scale_lo``/``scale_hi`` set the initial window
    [1e-8*scale_lo, 1e8*scale_hi]; ``decay_lo``/``decay_hi`` are analytic
    decay-rate hints (powers of lambda at 0 and infinity) used when the
    measured slope at an end is unreliable.
    """
    if not (scale_lo > 0 and scale_hi > 0):
        raise ValueError("scales must be positive")
    u_min = scheme.u_min if scheme.u_min is not None else np.log(scale_lo) + np.log(1e-8)
    u_max = scheme.u_max if scheme.u_max is not None else np.log(scale_hi) + np.log(1e8)
    if u_min >= u_max:
        u_min, u_max = u_max - 1.0, u_min + 1.0
    nodes = scheme.nodes
    h_target = (u_max - u_min) / (nodes - 1)

    diag = QuadratureDiagnostics()
    for widening in range(_MAX_WIDENINGS + 1):
        if u_min < -_U_ABS_CAP or u_max > _U_ABS_CAP:
            raise TailCertificationError(
                f"window [{u_min:.1f}, {u_max:.1f}] exceeds the exp() range; "
                "integrand decays too slowly for this representation")
        u = np.linspace(u_min, u_max, nodes)
        w = np.full(nodes, (u_max - u_min) / (nodes - 1))
        w[[0, -1]] *= 0.5
        vals = np.asarray(f(np.exp(u)))
        if vals.shape[0] != len(u):
            raise QuadratureError("integrand must return one value per node")
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand overflowed (non-finite values)")
        mags = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=tuple(range(1, vals.ndim)))
        total = np.tensordot(w, vals, axes=(0, 0))
        ref = float(np.linalg.norm(np.atleast_1d(total)))

        if mags.max() == 0.0:
            diag = QuadratureDiagnostics(u_min, u_max, len(u), 0.0, 0.0, widening, 0.0)
            return total, diag

        rate_lo, dec_lo = _end_rate(u, mags, left=True)
        rate_hi, dec_hi = _end_rate(u, mags, left=False)
        if not np.isfinite(rate_lo) or rate_lo <= _MIN_RATE:
            rate_lo = decay_lo if (decay_lo and dec_lo) else _MIN_RATE
        if not np.isfinite(rate_hi) or rate_hi <= _MIN_RATE:
            rate_hi = decay_hi if (decay_hi and dec_hi) else _MIN_RATE
        tail_lo = float(mags[0]) / max(rate_lo, _MIN_RATE)
        tail_hi = float(mags[-1]) / max(rate_hi, _MIN_RATE)
        if np.isinf(rate_lo):
            tail_lo = 0.0
        if np.isinf(rate_hi):
            tail_hi = 0.0

        diag = QuadratureDiagnostics(u_min, u_max, len(u), tail_lo, tail_hi, widening, ref)
        budget = scheme.tail_tolerance * max(ref, 1e-300)
        if tail_lo <= budget and tail_hi <= budget:
            return total, diag

        # widen the failing side(s), keeping node spacing
        grew = 0.0
        if tail_lo > budget:
            step = max(4.0 / max(rate_lo, 0.05), 0.25 * (u_max - u_min))
            u_min -= step
            grew += step
        if tail_hi > budget:
            step = max(4.0 / max(rate_hi, 0.05), 0.25 * (u_max - u_min))
            u_max += step
            grew += step
        nodes = int(np.ceil((u_max - u_min) / h_target)) + 1
        if nodes > _MAX_NODES:
            raise TailCertificationError(
                f"tail not certifiable: tails=({tail_lo:.3e},{tail_hi:.3e}) "
                f"budget={budget:.3e} window=[{u_min:.2f},{u_max:.2f}]"
            )
    raise TailCertificationError(
        f"tail not certifiable after {_MAX_WIDENINGS} widenings: "
        f"tails=({diag.tail_low:.3e},{diag.tail_high:.3e}) value={diag.value_norm:.3e}"
    )


def golden_section_max(f: Callable[[float], float], lo: float,
                       hi: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [lo, hi].

    Stops after 60 steps or once the bracket is narrower than
    ``1e-12 * max(1, |lo|)``; returns the midpoint of the final bracket and
    f there.
    """
    if hi <= lo:
        return float(lo), float(f(lo))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if hi - lo < 1e-12 * max(1.0, abs(lo)):
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return float(mid), float(f(mid))
