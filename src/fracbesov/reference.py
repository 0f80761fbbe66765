"""Brute-force reference evaluations for diagonal spectra.

Everything here is plain scalar arithmetic with long direct sums, dense
grids and, for the continuous integral at q = 2, a closed form in the
incomplete beta function: no tail models, no operator handles, no shared
code with the production evaluators. These are the oracles used to
calibrate the equivalence-ratio ceilings and to pin expected values in
tests.

The level sums work with the logs of their terms: each block is a
log-sum-exp over the eigen-terms and the l_q aggregate a logaddexp over the
blocks, so neither 2^{j(s+alpha)} nor the resolvent factor can overflow or
underflow over the 500-level span.

The interpolation oracle's mu-scan stays brute force over all its nodes:
every node gives a line d_mu + t g_mu, and the minimum over the nodes at
each t is read off the lower envelope of those lines.
"""

from __future__ import annotations

import math

import numpy as np

_J_SPAN = 500
_SCAN_CHUNK = 256     # grid nodes per step of the q = inf profile scan


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
    """Continuous profile integral from 2^k upward.

    The profile is taken as e^{-(beta - s) u} ||A^beta (1 + e^{-u} A)^{-alpha-beta} x||,
    which cannot underflow at large u. At q = 2 the integral is closed-form:
    each eigen-term is |x_j|^2 mu_j^{2s} B(2(s+alpha), 2(beta-s)) times the
    regularized incomplete beta function I_{mu_j/(2^k+mu_j)}(2(beta-s), 2(s+alpha)).
    Otherwise a dense trapezoid grid runs from 2^k upward. Past its cut the
    profile equals ||A^beta x|| e^{-(beta - s) u} to within a factor
    1 + O(max(eigs) e^{-u}), so for finite q the integral beyond the last
    node is closed-form: g^q / (q (beta - s)) at that node. At q = inf the
    grid is scanned in chunks from the left and the scan stops once
    e^{-(beta - s) u} ||A^beta x||, a bound on the profile from u on (for
    alpha + beta >= 0), falls below the largest node value so far; the
    result is the full scan's maximum."""
    eigs = np.asarray(eigs, dtype=float)
    absx2 = np.abs(np.asarray(x)) ** 2
    re_a, re_b = complex(alpha).real, complex(beta).real
    gap = re_b - s
    if q == 2:
        from scipy.special import beta as beta_fn, betainc

        a, b = 2.0 * (s + re_a), 2.0 * gap
        pos = eigs > 0
        mu = eigs[pos]
        total = float((absx2[pos] * mu ** (2 * s)).dot(betainc(b, a, mu / (2.0 ** k + mu))))
        total *= beta_fn(a, b)
        if re_b == 0:   # a zero eigenvalue's term is |x_j|^2 e^{-2 (beta - s) u} (0^0 = 1)
            total += float(absx2[~pos].sum()) * 2.0 ** (-k * b) / b
        return math.sqrt(total)
    top = math.log(max(eigs.max(initial=1.0), 1.0)) + 60.0 / max(gap, 0.25)
    us = np.arange(k * math.log(2.0), top, du)
    weights = eigs ** (2 * re_b) * absx2

    def profile(u):
        prof2 = ((1.0 + np.exp(-u)[:, None] * eigs) ** (-2 * (re_a + re_b)) * weights).sum(axis=1)
        return np.exp(-u * gap) * np.sqrt(prof2)

    if math.isinf(q):
        # the bound carries a margin for the rounding of its own sum and exp
        bound = math.sqrt(float(weights.sum())) * (1.0 + 1e-12)
        best = 0.0
        for lo in range(0, len(us), _SCAN_CHUNK):
            if math.exp(-gap * us[lo]) * bound < best:
                break
            best = max(best, float(profile(us[lo:lo + _SCAN_CHUNK]).max()))
        return best
    g = profile(us)
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


def _lower_envelope_min(d, g, ts) -> np.ndarray:
    """min_i (d_i + t g_i) for every t in ts, read off the lower envelope of
    the lines instead of a dense lines x ts array.

    Sorted by falling slope, a line survives only if its intercept is below
    every later one's (otherwise a later line dominates it), and then only
    while its breakpoints with its neighbours increase. Each entry is the
    least of d_i + t * g_i over the envelope line at t and its two
    neighbours: the dense scan's own float whenever its argmin lies on the
    envelope, and never below the dense minimum."""
    order = np.lexsort((-d, -g))
    d, g = d[order], g[order]
    keep = np.append(d[:-1] < np.minimum.accumulate(d[::-1])[::-1][1:], True)
    d, g = d[keep], g[keep]
    while True:
        tau = (d[1:] - d[:-1]) / (g[:-1] - g[1:])
        bad = np.flatnonzero(tau[:-1] >= tau[1:]) + 1
        if not bad.size:
            break
        d, g = np.delete(d, bad), np.delete(g, bad)
    i = np.searchsorted(tau, ts)
    near = np.clip(i + np.arange(-1, 2)[:, None], 0, len(d) - 1)
    return (d[near] + ts * g[near]).min(axis=0)


def interpolation_norm(eigs, x, alpha, theta, q, n_t=1000, n_mu=1000) -> float:
    """Brute t-grid x mu-scan interpolation quasi-norm with analytic tails.

    The kernel part of x costs nothing in x1, so K(t, x) is K(t) of the rest.
    K(t) = t ||A^alpha x|| up to t0 = ||A^alpha x|| / ||A^{2 alpha} x|| and
    ||x|| from t_inf = ||A^{-alpha} x|| / ||x|| on, so both tails are closed
    forms and the uniform ln t grid runs from kink to kink. On the grid K(t)
    is the least of the trivial decompositions and d_mu + t g_mu over every
    mu-node, taken on the lower envelope of those lines."""
    sig = np.asarray(eigs, dtype=float) ** (2 * complex(alpha).real)
    keep = sig > 0
    absx2, sig = np.abs(np.asarray(x)[keep]) ** 2, sig[keep]
    cx = math.sqrt(float((absx2 * sig).sum()))
    if cx == 0.0:
        return 0.0      # x0 = 0, x1 = x costs t ||A^alpha x|| = 0 at every t
    nx = math.sqrt(float(absx2.sum()))
    us = np.linspace(math.log(cx) - 0.5 * math.log(float((absx2 * sig ** 2).sum())),
                     0.5 * math.log(float((absx2 / sig).sum())) - math.log(nx), n_t)
    ts = np.exp(us)
    mus = np.geomspace(1e-14, 1e14, n_mu)[:, None]
    r = mus * sig[None, :]
    d = np.sqrt((absx2[None, :] * (r / (1.0 + r)) ** 2).sum(axis=1))
    g = np.sqrt((absx2[None, :] * sig[None, :] / (1.0 + r) ** 2).sum(axis=1))
    ks = np.minimum(_lower_envelope_min(d, g, ts), np.minimum(nx, ts * cx))
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
