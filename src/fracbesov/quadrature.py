"""Quadrature for improper integrals with respect to d(lambda)/lambda.

Every fractional-power integral in this package has the form
``int_0^inf F(lambda) dlambda/lambda`` with F smooth and decaying at both
ends at a known power rate. The substitution ``lambda = exp(u)`` turns the
measure into plain ``du`` and the integrand into an analytic function with
exponential tails, where the trapezoid rule with step h errs by about
``exp(-2 pi d / h)`` for an integrand analytic in the strip ``|Im u| < d``
(Trefethen & Weideman, SIAM Review 56(3), 2014).

:func:`integrate_multiplicative` is the one rule. It widens the truncation
window until the estimated tails fall below the scheme's tolerance, then
halves the step, reusing every node, until two successive levels agree to
the same tolerance. A window or a step that cannot be certified raises
instead of returning a silently truncated or under-resolved value.

Each tail is bounded by ``|f(end)| / rate``, with the caller's power of
lambda at that end as the rate. That holds when the local log-decay past the
end is at least the rate. Callers pass exact powers, but for three lower
bounds: ``frac_resolvent`` at 0 (alpha; alpha + 1 for an injective A),
``frac_power_via_semigroup`` at infinity (1; the decay is exponential) and
the subordination kernel at 0 (1; the stable density is flat to all orders).

Other ranges are mapped onto (0, inf) first: a fixed lower limit by
``lambda = c (1 + mu)``, a finite range [u_min, u_max] of length L by
``u = u_min + ln((1 + mu) / (1 + mu e^{-L}))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_H_START = 1.0       # node spacing at which the window is certified
_MAX_NODES = 1 << 18
_CHUNK = 1 << 12     # midpoints per integrand call
_MAX_WIDENINGS = 60
_U_ABS_CAP = 690.0  # exp() overflow guard


class QuadratureError(Exception):
    pass


class TailCertificationError(QuadratureError):
    """Raised when the integrand tails cannot be certified below tolerance."""


@dataclass(frozen=True)
class QuadratureScheme:
    tail_tolerance: float = 1e-9    # relative bound on each tail and on the discretization


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
    discretization: float = 0.0     # last |T_h - T_2h|

    @property
    def tail_bound(self) -> float:
        return self.tail_low + self.tail_high


def integrate_multiplicative(
    f: Callable[[np.ndarray], np.ndarray],
    scale_lo: float,
    scale_hi: float,
    scheme: QuadratureScheme = DEFAULT_SCHEME,
    *,
    decay_lo: float,
    decay_hi: float,
) -> tuple[np.ndarray, QuadratureDiagnostics]:
    """Compute int_0^inf f(lambda) dlambda/lambda with certified tails and
    a certified discretization error, or raise QuadratureError.

    ``f`` maps an array of lambda values to integrand values (last axis may
    be a vector dimension). ``scale_lo``/``scale_hi`` set the initial window
    [1e-8*scale_lo, 1e8*scale_hi]; ``decay_lo``/``decay_hi`` are the powers
    of lambda at which f vanishes at 0 and infinity, the rates of the tails.

    The window is widened at node spacing ``_H_START`` until both tails fall
    below ``scheme.tail_tolerance`` times the value. The step is then halved,
    evaluating ``f`` only at the midpoints, until two successive levels agree
    to the same relative tolerance; the finer level is returned. If the
    tails then exceed the tolerance against that converged value (the step-1
    level overestimated the integral), the window is certified again against
    it and the step halved again, within the same ``_MAX_WIDENINGS``.
    """
    if not (scale_lo > 0 and scale_hi > 0):
        raise ValueError("scales must be positive")
    if not (0 < decay_lo < math.inf and 0 < decay_hi < math.inf):
        raise ValueError("decay rates must be positive and finite")
    u_min = np.log(scale_lo) + np.log(1e-8)
    u_max = np.log(scale_hi) + np.log(1e8)
    if u_min >= u_max:
        u_min, u_max = u_max - 1.0, u_min + 1.0
    tol = scheme.tail_tolerance
    ref_conv = math.inf     # converged value of an earlier pass, if its tails failed
    widening = 0

    while True:
        if u_min < -_U_ABS_CAP or u_max > _U_ABS_CAP:
            raise TailCertificationError(
                f"window [{u_min:.1f}, {u_max:.1f}] exceeds the exp() range; "
                "integrand decays too slowly for this representation")
        nodes = int(np.ceil((u_max - u_min) / _H_START)) + 1
        u = np.linspace(u_min, u_max, nodes)
        h = (u_max - u_min) / (nodes - 1)
        vals = _evaluate(f, u)
        mags = np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=tuple(range(1, vals.ndim)))
        total = h * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))
        ref = float(np.linalg.norm(np.atleast_1d(total)))

        if mags.max() == 0.0:
            return total, QuadratureDiagnostics(u_min, u_max, nodes, 0.0, 0.0, widening, 0.0)

        tail_lo = float(mags[0]) / decay_lo
        tail_hi = float(mags[-1]) / decay_hi

        budget = tol * max(min(ref, ref_conv), 1e-300)
        if tail_lo > budget or tail_hi > budget:
            if widening == _MAX_WIDENINGS:
                raise TailCertificationError(
                    f"tail not certifiable after {_MAX_WIDENINGS} widenings: "
                    f"tails=({tail_lo:.3e},{tail_hi:.3e}) value={min(ref, ref_conv):.3e}")
            # widen the failing side(s) at the same spacing
            widening += 1
            if tail_lo > budget:
                u_min -= max(4.0 / max(decay_lo, 0.05), 0.25 * (u_max - u_min))
            if tail_hi > budget:
                u_max += max(4.0 / max(decay_hi, 0.05), 0.25 * (u_max - u_min))
            continue

        # nested halving: the midpoints of level h are the new nodes of level h/2
        diff = math.inf
        while True:
            if 2 * nodes - 1 > _MAX_NODES:
                raise QuadratureError(
                    f"discretization not certified at {nodes} nodes: last level "
                    f"difference {diff:.3e} against value {ref:.3e} (tolerance {tol:.1e})")
            mid = u_min + h * (np.arange(nodes - 1) + 0.5)
            fine = 0.5 * total + 0.5 * h * sum(
                _evaluate(f, mid[i:i + _CHUNK]).sum(axis=0) for i in range(0, len(mid), _CHUNK))
            diff = float(np.linalg.norm(np.atleast_1d(fine - total)))
            ref = float(np.linalg.norm(np.atleast_1d(fine)))
            total, h, nodes = fine, 0.5 * h, 2 * nodes - 1
            if diff <= tol * ref:
                break
        if max(tail_lo, tail_hi) <= tol * ref:
            return total, QuadratureDiagnostics(u_min, u_max, nodes, tail_lo, tail_hi,
                                                widening, ref, diff)
        # the step-1 level overestimated the integral, so the window was
        # certified against too large a value: certify it against this one
        ref_conv = ref


def _evaluate(f, u: np.ndarray) -> np.ndarray:
    """f at lambda = e^u, checked for one finite value per node."""
    vals = np.asarray(f(np.exp(u)))
    if vals.shape[0] != len(u):
        raise QuadratureError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand overflowed (non-finite values)")
    return vals


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
