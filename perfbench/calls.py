"""The program calls each workload times.

Every call goes through a module attribute looked up at call time
(``fractional.frac_power``, not a name bound at import), so that the
tracer's patched functions are the ones that run in a traced run.
"""

from __future__ import annotations

from . import inputs


def eval_case(case: inputs.EvalCase, handle):
    """Run one evals case on its handle and return the program's result."""
    from fracbesov import besov, fractional, interpolation, operators
    op, p, x = case.op, case.params, case.x
    if op == "frac_power":
        return fractional.frac_power(handle, p["alpha"], x)
    if op == "frac_power_unified":
        return fractional.frac_power_unified(handle, p["z"], p["alpha"], p["beta"], x)
    if op == "frac_resolvent":
        return fractional.frac_resolvent(handle, p["alpha"], p["lam"], x,
                                         companion=p["companion"])
    if op == "phi_apply":
        return fractional.phi_apply(handle, p["beta"], p["gamma"], p["lam"], x)
    if op == "ergodic_limits":
        return fractional.ergodic_limits(handle, p["alpha"], x)
    if op == "estimate_nonnegativity_constants":
        return operators.estimate_nonnegativity_constants(handle)
    if op == "interpolation_norm":
        couple = interpolation.CoupleSpec(handle, p["alpha"], p["theta"], p["q"])
        return interpolation.interpolation_norm(couple, x)
    if op == "k_functional":
        couple = interpolation.CoupleSpec(handle, p["alpha"], 0.5, 2.0)
        return interpolation.k_functional(couple, p["t"], x)
    if op == "semigroup_quasi_norm":
        return besov.semigroup_quasi_norm(handle, p["s"], p["q"], p["k"], p["beta"], x)
    idx = besov.BesovIndex(p["s"], p["q"], p["k"], p["alpha"], p["beta"])
    return getattr(besov, op)(handle, idx, x)
