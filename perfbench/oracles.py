"""Independent checks of every output the benchmark times.

Spectral powers and resolvents are compared with eigen-multipliers that the
benchmark computes itself from the operator's construction (FFT multipliers
for the tori, the drawn spectrum and basis otherwise). Quasi-norms, the
K-functional and interpolation norms are compared with the brute-force
evaluators of ``fracbesov.reference``, which share no code with the
production routes. Non-normal routes are compared with scipy's Schur-Pade
fractional powers (``expm(z logm A)`` for complex z) and direct dense solves.

Tolerances come from the worst errors measured over many seeds (see
README.md), not from the program's nominal 1e-9: the quadratures certify
their truncation tails only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as sla

from . import inputs

# relative tolerances, about ten times the worst error measured (README.md);
# a ".q<1" entry applies to quasi-norms with q < 1, where the reference's
# level sums lose accuracy (CHANGES.md)
TOLERANCES = {
    "spectral.frac_power": 2e-8,
    "spectral.frac_power_unified": 1e-8,
    "spectral.frac_resolvent": 1e-8,
    "spectral.inhom_quasi_norm": 1e-7,
    "spectral.inhom_quasi_norm.q<1": 3e-3,
    "spectral.homog_quasi_norm": 1e-8,
    "spectral.homog_quasi_norm.q<1": 1e-3,
    "spectral.breve_quasi_norm": 1e-8,
    "spectral.semigroup_quasi_norm": 1e-8,
    "spectral.continuous_quasi_norm": 5e-6,
    "spectral.continuous_quasi_norm.q<1": 2e-3,
    "spectral.interpolation_norm": 5e-4,
    "spectral.k_functional.below": 1e-12,
    "spectral.k_functional.gap": 2e-4,
    "composed.frac_power": 1e-8,
    "composed.phi_apply": 3e-8,
    "composed.frac_resolvent": 2e-8,
    "composed.constants.above": 1e-9,
    "composed.constants.gap": 5e-2,
    "composed.ergodic_limits": 1e-7,
    "composed.inhom_quasi_norm": 1e-8,
}
# each NormResult.tail_bound must stay below its certification budget
TAIL_TOLERANCE = 1e-8
CONTINUOUS_TAIL_TOLERANCE = 1e-9


class Mismatch(AssertionError):
    """An output disagrees with its oracle beyond the tolerance."""


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _expect(key: str, err: float) -> float:
    tol = TOLERANCES[key]
    if not err <= tol:
        raise Mismatch(f"{key}: relative error {err:.3e} above tolerance {tol:.1e}")
    return err


def _cpow(mu: np.ndarray, z: complex) -> np.ndarray:
    out = np.zeros(mu.shape, dtype=complex)
    pos = mu > 0
    out[pos] = np.exp(complex(z) * np.log(mu[pos]))
    return out


def multiplier_apply(data: inputs.OperatorData, mult: np.ndarray, x) -> np.ndarray:
    return data.from_coeffs(mult * data.coeffs(x))


def matrix_power(a: np.ndarray, z: complex) -> np.ndarray:
    z = complex(z)
    if z == 0:
        return np.eye(a.shape[0], dtype=complex)
    if z.imag == 0:
        return np.asarray(sla.fractional_matrix_power(a, z.real), dtype=complex)
    return sla.expm(z * sla.logm(a))


# --------------------------------------------------------------------------
# evals
# --------------------------------------------------------------------------

def _norm_key(op: str, q: float) -> str:
    key = "spectral." + op
    return key + ".q<1" if q < 1 and key + ".q<1" in TOLERANCES else key


def _norm_reference(op: str, data: inputs.OperatorData, x, p: dict) -> float:
    from fracbesov import reference as ref
    eigs, c = data.eigs, data.coeffs(x)
    if op == "inhom_quasi_norm":
        return ref.inhom_norm(eigs, c, p["s"], p["q"], p["k"], p["alpha"], p["beta"])
    if op == "homog_quasi_norm":
        return ref.homog_norm(eigs, c, p["s"], p["q"], p["alpha"], p["beta"])
    if op == "breve_quasi_norm":
        return ref.breve_norm(eigs, c, p["s"], p["q"], p["k"], p["alpha"], p["beta"])
    if op == "continuous_quasi_norm":
        return ref.leading_term(eigs, c, p["k"], p["alpha"]) + ref.continuous_sum_part(
            eigs, c, p["s"], p["q"], p["k"], p["alpha"], p["beta"])
    if op == "semigroup_quasi_norm":
        return float(np.linalg.norm(c)) + ref.semigroup_sum_part(
            eigs, c, p["s"], p["q"], p["k"], p["beta"])
    raise ValueError(op)


def check_spectral(case: inputs.EvalCase, data: inputs.OperatorData, result) -> float:
    """Compare one spectral-handle result with its oracle; return the error."""
    op, p, x = case.op, case.params, case.x
    key = "spectral." + op
    mu = data.eigs
    if op == "frac_power":
        return _expect(key, rel_err(result, multiplier_apply(data, _cpow(mu, p["alpha"]), x)))
    if op == "frac_power_unified":
        return _expect(key, rel_err(result, multiplier_apply(data, _cpow(mu, p["z"]), x)))
    if op == "frac_resolvent":
        mua = _cpow(mu, p["alpha"]).real
        mult = (mua if p["companion"] else 1.0) / (p["lam"] + mua)
        return _expect(key, rel_err(result, multiplier_apply(data, mult, x)))
    from fracbesov import reference as ref
    if op == "interpolation_norm":
        want = ref.interpolation_norm(mu, data.coeffs(x), p["alpha"], p["theta"], p["q"])
        _check_tail(result, TAIL_TOLERANCE)
        return _expect(key, abs(result.value - want) / want)
    if op == "k_functional":
        # the reference scans a finite mu grid, so its value can only lie
        # above the true infimum: the program's K must not exceed it
        want = ref.k_functional(mu, data.coeffs(x), p["alpha"], p["t"])
        _expect(key + ".below", max(0.0, (result - want) / want))
        return _expect(key + ".gap", (want - result) / want)
    want = _norm_reference(op, data, x, p)
    _check_tail(result, CONTINUOUS_TAIL_TOLERANCE if op == "continuous_quasi_norm"
                else TAIL_TOLERANCE)
    return _expect(_norm_key(op, p["q"]), abs(result.value - want) / want)


def _check_tail(result, tol: float) -> None:
    if not result.tail_bound <= tol * result.value:
        raise Mismatch(f"tail_bound {result.tail_bound:.3e} above {tol:.0e} x value "
                       f"{result.value:.6e}")


def constants_exact(a: np.ndarray, points: int = 481) -> tuple[float, float]:
    """sup over a fine lambda grid of the exact 2-norms of lam (lam+A)^{-1}
    and A (lam+A)^{-1}, with the boundary limits 1 (injective A)."""
    n = a.shape[0]
    hi = float(np.linalg.svd(a, compute_uv=False).max())
    lams = np.geomspace(1e-6 * hi, 1e6 * hi, points)
    res = np.linalg.inv(lams[:, None, None] * np.eye(n)[None] + a[None])
    m = np.linalg.norm(lams[:, None, None] * res, 2, axis=(1, 2)).max()
    l_ = np.linalg.norm(a[None] @ res, 2, axis=(1, 2)).max()
    return max(float(m), 1.0), max(float(l_), 1.0)


def check_composed(case: inputs.EvalCase, data: inputs.OperatorData, result) -> float:
    op, p, x = case.op, case.params, case.x
    key = "composed." + op
    a = data.matrix
    n = a.shape[0]
    eye = np.eye(n)
    if op == "frac_power":
        return _expect(key, rel_err(result, matrix_power(a, p["alpha"]) @ x))
    if op == "phi_apply":
        want = matrix_power(a, p["beta"]) @ (matrix_power(p["lam"] * eye + a, -p["gamma"]) @ x)
        return _expect(key, rel_err(result, want))
    if op == "frac_resolvent":
        aa = matrix_power(a, p["alpha"])
        want = np.linalg.solve(p["lam"] * eye + aa, x)
        if p["companion"]:
            want = aa @ want
        return _expect(key, rel_err(result, want))
    if op == "estimate_nonnegativity_constants":
        m_ex, l_ex = constants_exact(a)
        # the program's grid is a sub-grid of the exact one: never above it,
        # and close below it
        above = max(0.0, result.M / m_ex - 1.0, result.L / l_ex - 1.0)
        _expect("composed.constants.above", above)
        return _expect("composed.constants.gap",
                       max(1.0 - result.M / m_ex, 1.0 - result.L / l_ex))
    if op == "ergodic_limits":
        # injective A: t^a (t+A)^{-a} x -> x (t -> inf) and -> 0 (t -> 0);
        # A^a (t+A)^{-a} x -> x (t -> 0). The t -> 0 limits are claimed only
        # when flagged converged (at small a the default grid cannot reach
        # them); interior rows are compared with scipy in every case
        nx = float(np.linalg.norm(x))
        if not result.converged_at_infinity:
            raise Mismatch("ergodic_limits reports no convergence as t -> inf")
        errs = [rel_err(result.limit_at_infinity, x)]
        if result.converged_at_zero:
            errs += [rel_err(result.range_component, x),
                     float(np.linalg.norm(result.limit_at_zero)) / nx]
        alpha = p["alpha"]
        for i in (len(result.t_grid) // 4, len(result.t_grid) // 2, 3 * len(result.t_grid) // 4):
            t = result.t_grid[i]
            row = matrix_power(eye + a / t, -alpha) @ x
            want = float(np.linalg.norm(row - result.limit_at_infinity))
            errs.append(abs(result.trace_m[i] - want) / nx)
        return _expect(key, max(errs))
    raise ValueError(op)


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def dense_inhom_norm(a: np.ndarray, x, s: float, q: float) -> float:
    """||x|| + (sum_{j>=0} ||2^{js} A (2^j+A)^{-1} x||^q)^{1/q} (alpha=0,
    beta=1, k=0) by direct dense solves and a geometric remainder."""
    n = a.shape[0]
    terms = []
    for j in range(0, 400):
        lam = 2.0 ** j
        y = a @ np.linalg.solve(lam * np.eye(n) + a, x)
        terms.append(2.0 ** (j * s) * float(np.linalg.norm(y)))
        if j > 20 and terms[-1] < 1e-20 * max(terms):
            break
    t = np.asarray(terms)
    total = float((t ** q).sum())
    rq = (t[-1] / t[-2]) ** q
    total += t[-1] ** q * rq / (1.0 - rq)
    return float(np.linalg.norm(x)) + total ** (1.0 / q)


def check_cli(case: inputs.CliCase, payload: dict) -> float:
    cfg, data, x = case.config, case.operator, case.x
    command = cfg["command"]
    if command == "power":
        got = np.array([complex(re, im) for re, im in payload["result"]])
        if data.spectral:
            return _expect("spectral.frac_power",
                           rel_err(got, multiplier_apply(data, _cpow(data.eigs, cfg["exponent"]), x)))
        return _expect("composed.frac_power", rel_err(got, matrix_power(data.matrix, cfg["exponent"]) @ x))
    if command == "norm":
        q = math.inf if cfg["q"] == "inf" else float(cfg["q"])
        if not payload["tail_bound"] <= (CONTINUOUS_TAIL_TOLERANCE if cfg["variant"] == "continuous"
                                         else TAIL_TOLERANCE) * payload["value"]:
            raise Mismatch(f"tail_bound {payload['tail_bound']:.3e} above its budget")
        if not data.spectral:
            want = dense_inhom_norm(data.matrix, x, cfg["s"], q)
            return _expect("composed.inhom_quasi_norm", abs(payload["value"] - want) / want)
        op = {"inhomogeneous": "inhom_quasi_norm", "continuous": "continuous_quasi_norm",
              "homogeneous": "homog_quasi_norm", "breve": "breve_quasi_norm",
              "semigroup": "semigroup_quasi_norm"}[cfg["variant"]]
        p = {"s": cfg["s"], "q": q, "k": cfg["k"], "alpha": cfg["alpha"], "beta": cfg["beta"]}
        want = _norm_reference(op, data, x, p)
        return _expect(_norm_key(op, q), abs(payload["value"] - want) / want)
    from fracbesov import reference as ref
    worst = 0.0
    for t, k_val in payload["table"]:
        want = ref.k_functional(data.eigs, data.coeffs(x), cfg["alpha"], t)
        _expect("spectral.k_functional.below", max(0.0, (k_val - want) / want))
        worst = max(worst, _expect("spectral.k_functional.gap", (want - k_val) / want))
    return worst
