"""Fractional powers of non-negative operators and operator-adapted Besov
quasi-norms on finite-dimensional spaces. The randomized verification
harness for the structural identities connecting them is
``fracbesov.harness``, which this package does not import."""

from .besov import (
    BesovIndex,
    NormResult,
    TailError,
    aoki_rolewicz_p,
    breve_quasi_norm,
    continuous_quasi_norm,
    dyadic_block,
    dyadic_blocks,
    homog_quasi_norm,
    inhom_quasi_norm,
    semigroup_quasi_norm,
)
from .fractional import (
    ErgodicLimits,
    SemigroupUnavailableError,
    ergodic_limits,
    frac_power,
    frac_power_unified,
    frac_power_via_semigroup,
    frac_resolvent,
    phi_apply,
    power_apply,
    reproducing_residual,
    semigroup_apply,
    spectral_frac_power,
    subordinated_semigroup,
    subordinated_semigroup_via_kernel,
    subordination_kernel,
)
from .gammafn import gamma
from .interpolation import CoupleSpec, interpolation_norm, k_functional
from .operators import (
    EUCLIDEAN,
    NormKind,
    OperatorHandle,
    build_operator,
    estimate_nonnegativity_constants,
    vector_norm,
)
from .quadrature import TailCertificationError, integrate_multiplicative

__version__ = "0.1.0"
