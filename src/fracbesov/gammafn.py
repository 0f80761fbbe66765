"""Complex Gamma function and the Gamma-factor prefactors used throughout
the fractional-power integrals."""

from __future__ import annotations

import math


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z off the non-positive integers; raises
    ZeroDivisionError at a pole.

    Real arguments go through ``math.gamma``, which is exact at the positive
    integers up to 23 and raises OverflowError past the float range. Complex
    ones go through ``scipy.special.gamma``, imported on first use."""
    z = complex(z)
    if z.imag == 0.0:
        if z.real <= 0.0 and z.real == int(z.real):
            raise ZeroDivisionError(f"Gamma pole at z = {z}")
        return complex(math.gamma(z.real))
    from scipy.special import gamma as _scipy_gamma

    return complex(_scipy_gamma(z))


def balakrishnan_prefactor(alpha: complex, n: int) -> complex:
    """Gamma(n) / (Gamma(alpha) Gamma(n - alpha)); 0 < Re alpha < n."""
    return gamma(n) / (gamma(alpha) * gamma(n - alpha))


def unified_prefactor(z: complex, alpha: complex, beta: complex) -> complex:
    """Gamma(alpha+beta) / (Gamma(alpha+z) Gamma(beta-z)); -Re a < Re z < Re b."""
    return gamma(alpha + beta) / (gamma(alpha + z) * gamma(beta - z))


def reciprocal_beta_prefactor(alpha: complex) -> complex:
    """1 / (Gamma(alpha) Gamma(1 - alpha)), i.e. sin(pi alpha)/pi; 0 < Re alpha < 1."""
    return 1.0 / (gamma(alpha) * gamma(1.0 - alpha))


def composition_bound_constant(alpha: complex, n: int) -> float:
    """C_{alpha,n} = Gamma(Re a) Gamma(n - Re a) / |Gamma(a) Gamma(n - a)|.

    The constant in the uniform bounds for t^a (t+A)^{-a}, A^a (t+A)^{-a}
    and (s+A)^a (t+A)^{-a}. Requires 0 < Re alpha < n.
    """
    a = complex(alpha)
    if not (0.0 < a.real < n):
        raise ValueError(f"need 0 < Re alpha < n, got alpha={alpha}, n={n}")
    num = gamma(a.real) * gamma(n - a.real)
    den = abs(gamma(a) * gamma(n - a))
    return (num / den).real


def moment_constant(alpha: complex, n: int, m_const: float) -> float:
    """Explicit constant in the moment inequality
    ||A^a x|| <= C ||A^n x||^{Re a / n} ||x||^{1 - Re a / n}.

    C = Gamma(n+1)/|Gamma(a) Gamma(n-a)| * M^{Re a} (M+1)^{n-Re a} / (Re a (n-Re a)).
    """
    a = complex(alpha)
    if not (0.0 < a.real < n):
        raise ValueError(f"need 0 < Re alpha < n, got alpha={alpha}, n={n}")
    lead = gamma(n + 1).real / abs(gamma(a) * gamma(n - a))
    return lead * m_const ** a.real * (m_const + 1.0) ** (n - a.real) / (a.real * (n - a.real))
