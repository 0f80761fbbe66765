"""Brute-force reference evaluations for diagonal spectra.

Everything here is plain scalar arithmetic with long direct sums and dense
grids: no tail models, no operator handles, no shared code with the
production evaluators. These are the oracles used to calibrate the
equivalence-ratio ceilings and to pin expected values in tests.

The level sums work with the logs of their terms: each block is a
log-sum-exp over the eigen-terms and the l_q aggregate a logaddexp over the
blocks, so neither 2^{j(s+alpha)} nor the resolvent factor can overflow or
underflow over the 500-level span.
"""

from __future__ import annotations

import math

import numpy as np

_J_SPAN = 500


def _log_terms(eigs, absx2, re_b):
    """log(eigs^{2 re_b} |x|^2) per eigen-term, with 0^0 = 1, and log eigs
    (-inf where an eigenvalue is not positive)."""
    with np.errstate(divide="ignore"):
        log_e = np.log(np.where(eigs > 0, eigs, 0.0))
        return (2 * re_b * log_e if re_b else 0.0) + np.log(absx2), log_e


def _log_row_norms(terms):
    """log sqrt(sum_i exp(terms_i)) per row: a log-sum-exp shifted by each
    row's largest term."""
    top = terms.max(axis=1)
    top = np.where(top > -np.inf, top, 0.0)
    with np.errstate(divide="ignore"):
        return 0.5 * (top + np.log(np.exp(terms - top[:, None]).sum(axis=1)))


def _blocks(eigs, absx2, s, re_a, re_b, js):
    """Logs of the exact dyadic block magnitudes on a diagonal spectrum
    (euclidean norm); -inf for a zero block."""
    ju = np.asarray(js, dtype=float) * math.log(2.0)
    base, log_e = _log_terms(eigs, absx2, re_b)
    rows = base - 2 * (re_a + re_b) * np.logaddexp(ju[:, None], log_e)
    return ju * (s + re_a) + _log_row_norms(rows)


def _aggregate(log_terms, q, low=False, high=False):
    """l_q mass of the terms with the given logs.

    At each decaying end listed (``low``, ``high``) the terms below a floor
    under the peak are dropped and an empirical geometric remainder is
    added. The l_q mass of a dropped term is (b/peak)^q, so the floor is
    q-aware: small q (heavy-tailed aggregation) keeps more terms.
    """
    lt = np.asarray(log_terms, dtype=float)
    lpeak = lt.max(initial=-np.inf)
    if math.isinf(q) or lpeak == -np.inf:
        return float(np.exp(lpeak))
    keep = np.nonzero(lt > lpeak + math.log(10.0) * max(-22.0 / min(q, 1.0), -280.0))[0]
    lt = lt[keep[0] if low else 0: keep[-1] + 1 if high else None]
    total = float(np.logaddexp.reduce(q * lt))
    for t in ([lt] if high else []) + ([lt[::-1]] if low else []):
        if len(t) >= 2 and t[-1] < t[-2]:
            lrq = q * (t[-1] - t[-2])
            total = np.logaddexp(total, q * t[-1] + lrq - math.log(-math.expm1(lrq)))
    return float(np.exp(total / q))


def sum_part(eigs, x, s, q, k, alpha, beta) -> float:
    """Direct sum over j >= k until the terms are negligible."""
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_a, re_b = complex(alpha).real, complex(beta).real
    b = _blocks(eigs, absx2, s, re_a, re_b, np.arange(k, k + _J_SPAN))
    return _aggregate(b, q, high=True)


def leading_term(eigs, x, k, alpha) -> float:
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_a = complex(alpha).real
    return float(np.sqrt((absx2 * (2.0 ** k + eigs) ** (-2 * re_a)).sum()))


def inhom_norm(eigs, x, s, q, k=0, alpha=0.0, beta=1.0) -> float:
    return leading_term(eigs, x, k, alpha) + sum_part(eigs, x, s, q, k, alpha, beta)


def homog_norm(eigs, x, s, q, alpha=0.0, beta=1.0) -> float:
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_a, re_b = complex(alpha).real, complex(beta).real
    b = _blocks(eigs, absx2, s, re_a, re_b, np.arange(-_J_SPAN, _J_SPAN))
    return _aggregate(b, q, low=True, high=True)


def breve_norm(eigs, x, s, q, k=0, alpha=0.0, beta=1.0) -> float:
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_a, re_b = complex(alpha).real, complex(beta).real
    b = _blocks(eigs, absx2, s, re_a, re_b, np.arange(k - _J_SPAN, k + 1))
    lead = float(np.sqrt((absx2 * (eigs ** re_b * (2.0 ** k + eigs) ** (-re_b)) ** 2).sum()))
    return lead + _aggregate(b, q, low=True)


def continuous_sum_part(eigs, x, s, q, k, alpha, beta, du=2e-3) -> float:
    """Dense-trapezoid continuous profile integral from 2^k upward.

    The profile is taken as e^{-(beta - s) u} ||A^beta (1 + e^{-u} A)^{-alpha-beta} x||,
    which cannot underflow at large u. Past the cut it equals
    ||A^beta x|| e^{-(beta - s) u} to within a factor 1 + O(max(eigs) e^{-u}),
    so for finite q the integral beyond the last node is closed-form:
    g^q / (q (beta - s)) at that node."""
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_a, re_b = complex(alpha).real, complex(beta).real
    gap = re_b - s
    top = math.log(max(eigs.max(initial=1.0), 1.0)) + 60.0 / max(gap, 0.25)
    us = np.arange(k * math.log(2.0), top, du)
    prof2 = ((1.0 + np.exp(-us)[:, None] * eigs) ** (-2 * (re_a + re_b))
             * (eigs ** (2 * re_b) * absx2)).sum(axis=1)
    g = np.exp(-us * gap) * np.sqrt(prof2)
    if math.isinf(q):
        return float(g.max(initial=0.0))
    remainder = g[-1] ** q / (q * gap)
    return float((np.trapezoid(g ** q, us) + remainder) ** (1.0 / q))


def semigroup_sum_part(eigs, x, s, q, k, beta) -> float:
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_b = complex(beta).real
    js = np.arange(k, k + _J_SPAN)
    base, _ = _log_terms(eigs, absx2, re_b)
    rows = base - 2.0 * np.exp2(-js.astype(float))[:, None] * eigs
    terms = js * math.log(2.0) * (s - re_b) + _log_row_norms(rows)
    return _aggregate(terms, q, high=True)


def k_functional(eigs, x, alpha, t, n_mu=1200) -> float:
    """Dense mu-scan of the minimizer curve plus the trivial decompositions."""
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    sig = eigs ** (2 * complex(alpha).real)
    cx = math.sqrt(float((absx2 * sig).sum()))
    nx = math.sqrt(float(absx2.sum()))
    best = min(nx, t * cx)
    mus = np.geomspace(1e-14, 1e14, n_mu)[:, None]
    r = mus * sig[None, :]
    d = np.sqrt((absx2[None, :] * (r / (1.0 + r)) ** 2).sum(axis=1))
    g = np.sqrt((absx2[None, :] * sig[None, :] / (1.0 + r) ** 2).sum(axis=1))
    return float(min(best, (d + t * g).min()))


def interpolation_norm(eigs, x, alpha, theta, q, n_t=1000, n_mu=1000) -> float:
    """Brute t-grid x mu-scan interpolation quasi-norm with analytic tails."""
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    sig = eigs ** (2 * complex(alpha).real)
    cx = math.sqrt(float((absx2 * sig).sum()))
    nx = math.sqrt(float(absx2.sum()))
    t_star = nx / max(cx, 1e-300)
    us = np.linspace(math.log(t_star) - 28.0, math.log(t_star) + 28.0, n_t)
    ts = np.exp(us)
    mus = np.geomspace(1e-14, 1e14, n_mu)[:, None]
    r = mus * sig[None, :]
    d = np.sqrt((absx2[None, :] * (r / (1.0 + r)) ** 2).sum(axis=1))
    g = np.sqrt((absx2[None, :] * sig[None, :] / (1.0 + r) ** 2).sum(axis=1))
    ks = np.minimum((d[:, None] + ts[None, :] * g[:, None]).min(axis=0),
                    np.minimum(nx, ts * cx))
    prof = np.exp(-theta * us) * ks
    if math.isinf(q):
        return float(prof.max())
    core = float(np.trapezoid(prof ** q, us))
    tail_lo = (cx ** q) * math.exp((1 - theta) * q * us[0]) / ((1 - theta) * q)
    tail_hi = (nx ** q) * math.exp(-theta * q * us[-1]) / (theta * q)
    return (core + tail_lo + tail_hi) ** (1.0 / q)


def power_coeffs(eigs, x, z) -> np.ndarray:
    """A^z x on a diagonal spectrum (principal powers, 0^z = 0 for Re z > 0)."""
    eigs = np.asarray(eigs, dtype=float)
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    pos = eigs > 0
    out[pos] = np.exp(complex(z) * np.log(eigs[pos])) * x[pos]
    if complex(z) == 0:
        out[~pos] = x[~pos]
    return out
