"""Fractional powers: quadrature routes against the spectral oracle and
closed forms."""

import cmath
import math

import numpy as np
import pytest

from fracbesov.fractional import (
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
from fracbesov.operators import OperatorHandle, build_operator
from fracbesov.quadrature import QuadratureError

DIAG14 = OperatorHandle.diagonal([1.0, 4.0])
ONES2 = np.array([1.0, 1.0], dtype=complex)
UPPER6 = np.diag(np.geomspace(0.3, 8.0, 6)) \
    + 0.7 * np.triu(np.random.default_rng(5).normal(size=(6, 6)), 1)


def _complex_pair():
    """Dense, non-normal, eigenvalues {1 +- 2i, 0.5, 2, 3} (as in test_operators)."""
    block = np.zeros((5, 5))
    block[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    block[2:, 2:] = np.diag([0.5, 2.0, 3.0])
    s = np.eye(5) + 0.3 * np.random.default_rng(22).normal(size=(5, 5))
    return s @ block @ np.linalg.inv(s)


def _spd(rng, n, lo=0.3, hi=30.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return OperatorHandle.dense(q @ np.diag(np.geomspace(lo, hi, n)) @ q.T)


# ------------------------------------------------------------ frac_power ----

def test_scalar_square_root():
    h = OperatorHandle.diagonal([2.0])
    y = frac_power(h, 0.5, np.array([1.0 + 0j]))
    assert abs(y[0] - math.sqrt(2.0)) <= 1e-8


def test_diag_square_root():
    assert np.abs(frac_power(DIAG14, 0.5, ONES2) - [1.0, 2.0]).max() <= 1e-8


def test_integer_exponent_falls_through_to_apply():
    y = frac_power(DIAG14, 2.0, ONES2)
    assert np.allclose(y, [1.0, 16.0])       # exact, no quadrature involved


def test_integer_re_with_imaginary_rejected():
    with pytest.raises(ValueError, match="spectral"):
        frac_power(DIAG14, 1.0 + 0.5j, ONES2)


def test_spd_matches_spectral_oracle():
    rng = np.random.default_rng(0)
    h = _spd(rng, 16)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    z = 0.7 + 0.3j
    got = frac_power(h, z, x)
    want = spectral_frac_power(h, z, x)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_nonnormal_against_matrix_power():
    from scipy.linalg import fractional_matrix_power as fmp
    m = np.array([[1.0, 0.8], [0.0, 2.5]])
    h = OperatorHandle.dense(m)
    assert h.spectral is None
    x = np.array([1.0, 1.0], dtype=complex)
    got = frac_power(h, 0.7, x)
    assert np.abs(got - fmp(m, 0.7) @ x).max() <= 1e-7


def test_additivity():
    rng = np.random.default_rng(1)
    h = _spd(rng, 8)
    x = rng.normal(size=8) + 0j
    a, b = 0.6, 0.75
    lhs = frac_power(h, a, frac_power(h, b, x))
    rhs = frac_power(h, a + b, x)
    assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_multiplicativity_spectral_exact():
    h = OperatorHandle.frac_power(DIAG14, 0.5)
    hh = OperatorHandle.frac_power(h, 3.0)
    assert np.allclose(np.sort(hh.spectral.eigenvalues),
                       np.sort(DIAG14.spectral.eigenvalues ** 1.5))


# -------------------------------------------------------- spectral route ----

def test_imaginary_power_unimodular():
    h = OperatorHandle.diagonal([1.0, 2.0, 4.0])
    x = np.array([0.3, -0.7, 0.2], dtype=complex)
    y = spectral_frac_power(h, 1j, x)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-13)


def test_spectral_consistency_at_one():
    t = OperatorHandle.torus_laplacian(16)
    x = np.random.default_rng(2).normal(size=16) + 0j
    assert np.linalg.norm(spectral_frac_power(t, 1.0, x) - t.apply(x)) \
        <= 1e-12 * np.linalg.norm(t.apply(x))


def test_scalar_principal_power():
    e2 = np.array([0.0, 1.0], dtype=complex)
    y = spectral_frac_power(DIAG14, 0.5 + 0.5j, e2)
    want = 2.0 * cmath.exp(0.5j * math.log(4.0))
    assert abs(y[1] - want) <= 1e-13


def test_zero_eigenvalue_negative_power_rejected():
    h = OperatorHandle.diagonal([0.0, 1.0])
    with pytest.raises(ValueError):
        spectral_frac_power(h, -0.5, np.array([1.0, 1.0], dtype=complex))
    # positive real part: zero maps to zero
    y = spectral_frac_power(h, 0.5, np.array([1.0, 1.0], dtype=complex))
    assert np.allclose(y, [0.0, 1.0])


# ---------------------------------------------------------------- unified ----

def test_unified_reproducing_at_zero():
    y = frac_power_unified(DIAG14, 0.0, 1.0, 1.0, ONES2)
    assert np.abs(y - ONES2).max() <= 1e-8


def test_unified_inverse_square_root():
    y = frac_power_unified(DIAG14, -0.5, 1.0, 0.5, ONES2)
    assert np.abs(y - [1.0, 0.5]).max() <= 1e-7


def test_unified_complex_oracle():
    rng = np.random.default_rng(3)
    h = _spd(rng, 8)
    x = rng.normal(size=8) + 0j
    z = 0.5 + 0.2j
    got = frac_power_unified(h, z, 1.2, 1.7, x)
    want = spectral_frac_power(h, z, x)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_unified_admissibility():
    with pytest.raises(ValueError, match="admissibility"):
        frac_power_unified(DIAG14, 1.5, 0.5, 1.0, ONES2)
    with pytest.raises(ValueError, match="injective"):
        frac_power_unified(OperatorHandle.diagonal([0.0, 1.0]), -0.2, 1.0, 1.0,
                           ONES2)


def test_unified_and_reproducing_on_a_nonnormal_matrix():
    from scipy.linalg import fractional_matrix_power as fmp
    h = OperatorHandle.dense(UPPER6)
    x = np.random.default_rng(8).normal(size=6) + 0j
    want = fmp(UPPER6, 0.4) @ x
    got = frac_power_unified(h, 0.4, 0.5, 1.0, x)
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
    assert reproducing_residual(h, 0.5, 1, 1.0, x) <= 1e-9


@pytest.mark.parametrize("handle", [OperatorHandle.diagonal(np.geomspace(0.3, 8.0, 6)),
                                    OperatorHandle.dense(UPPER6)], ids=["diagonal", "dense"])
def test_unified_takes_blocks_and_reproducing_takes_one_vector(handle):
    block = np.random.default_rng(12).normal(size=(2, 6)) + 0j
    got = frac_power_unified(handle, 0.4, 0.5, 1.0, block)
    want = power_apply(handle, 0.4, block)
    assert got.shape == (2, 6)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    for lam_cut in (0.0, 1.0):
        with pytest.raises(ValueError, match="one vector"):
            reproducing_residual(handle, 0.5, 1, lam_cut, block)


def test_unified_nonspectral_composition():
    from scipy.linalg import fractional_matrix_power as fmp
    m = np.array([[1.0, 0.6], [0.0, 2.0]])
    h = OperatorHandle.dense(m)
    x = np.array([1.0, -1.0], dtype=complex)
    got = frac_power_unified(h, 0.4, 0.6, 1.3, x)
    want = fmp(m, 0.4) @ x
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


# -------------------------------------------------------------- phi_apply ----

def test_phi_apply_matches_scipy():
    from scipy.linalg import fractional_matrix_power as fmp
    m = np.array([[1.0, 0.8], [0.0, 2.5]])
    h = OperatorHandle.dense(m)
    x = np.array([1.0, 1.0], dtype=complex)
    lam = 1.7
    got = phi_apply(h, 0.6, 1.3, lam, x)
    want = fmp(m, 0.6) @ fmp(lam * np.eye(2) + m, -1.3) @ x
    assert np.abs(got - want).max() <= 1e-7


def test_phi_apply_and_frac_power_on_a_block():
    from scipy.linalg import fractional_matrix_power as fmp
    rng = np.random.default_rng(31)
    m = np.diag([0.4, 1.0, 3.0]) + 0.8 * np.triu(rng.normal(size=(3, 3)), 1)
    block = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    lam = 0.9
    for h in (OperatorHandle.dense(m), _spd(rng, 3)):
        a = h.matrix()
        got = phi_apply(h, 0.6, 1.3, lam, block)
        want = block @ (fmp(a, 0.6) @ fmp(lam * np.eye(3) + a, -1.3)).T
        assert got.shape == block.shape
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()
        for row, g in zip(block, got):
            assert np.abs(phi_apply(h, 0.6, 1.3, lam, row) - g).max() <= 1e-9 * np.abs(g).max()
        got = frac_power(h, 0.7, block)
        want = block @ fmp(a, 0.7).T
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


@pytest.mark.parametrize("handle", [
    OperatorHandle.diagonal(np.geomspace(0.2, 9.0, 6)),
    OperatorHandle.dense(UPPER6),
], ids=["diagonal", "upper6"])
@pytest.mark.parametrize("b, g", [(1.0, 2.0), (0.6, 1.3)])
@pytest.mark.parametrize("shape", [(6,), (3, 6)], ids=["vector", "block"])
def test_phi_apply_over_an_array_of_shifts(handle, b, g, shape):
    rng = np.random.default_rng(8)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    lams = np.array([0.05, 0.9, 3.0, 40.0])
    got = phi_apply(handle, b, g, lams, x)
    want = np.stack([phi_apply(handle, b, g, lam, x) for lam in lams])
    assert want.shape == (len(lams),) + shape
    assert got.shape == want.shape
    for row, w in zip(got, want):
        assert np.abs(row - w).max() <= 1e-13 * np.abs(w).max()


# (0.0294, 0.5614) at lam = 9.62: fractional parts of beta and gamma - beta
# below 0.04, too slow a decay for a real-integral representation to truncate
@pytest.mark.parametrize("make", [lambda: UPPER6, _complex_pair], ids=["upper6", "complex_pair"])
@pytest.mark.parametrize("b, g", [(0.6, 1.3), (1.0, 2.0), (0.0, 0.5), (1.4, 1.4),
                                  (0.0294, 0.5614)])
def test_phi_apply_without_eigen_data_matches_scipy(make, b, g):
    from scipy.linalg import fractional_matrix_power as fmp
    m = make()
    h = OperatorHandle.dense(m)
    assert h.spectral is None
    x = np.random.default_rng(9).normal(size=len(m)) + 0j
    lams = np.append(np.geomspace(1e-4, 1e4, 9), 9.62)
    for lam, got in zip(lams, phi_apply(h, b, g, lams, x)):
        want = fmp(m, b) @ fmp(lam * np.eye(len(m)) + m, -g) @ x
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [[[0.0, 1.0], [0.0, 1.0]], [[-1.0, 1.0], [0.0, 2.0]],
                               [[-1.0, -0.5], [0.5, -1.0]]],
                         ids=["singular", "negative", "near_negative_axis"])
def test_contour_route_rejects_eigenvalues_near_the_negative_axis(m):
    h = OperatorHandle.dense(m)
    with pytest.raises(ValueError, match="eigenvalue"):
        phi_apply(h, 0.5, 1.0, 1.0, ONES2)
    with pytest.raises(ValueError, match="eigenvalue"):
        power_apply(h, 0.5, ONES2)


@pytest.mark.parametrize("handle", [DIAG14, OperatorHandle.dense([[1.0, 0.5], [0.0, 4.0]])],
                         ids=["spectral", "dense"])
@pytest.mark.parametrize("lam", [0.0, -1.0, np.array([1.0, 0.0])], ids=["zero", "negative", "array"])
def test_phi_apply_rejects_nonpositive_shifts(handle, lam):
    with pytest.raises(ValueError, match="lam > 0"):
        phi_apply(handle, 0.5, 1.0, lam, ONES2)


def test_power_apply_routes():
    x = np.array([1.0, 1.0], dtype=complex)
    assert np.allclose(power_apply(DIAG14, 0.0, x), x)
    assert np.abs(power_apply(DIAG14, -0.5, x) - [1.0, 0.5]).max() <= 1e-12
    m = np.array([[1.0, 0.8], [0.0, 2.5]])
    h = OperatorHandle.dense(m)
    from scipy.linalg import fractional_matrix_power as fmp
    got = power_apply(h, 1.3, x)
    assert np.abs(got - fmp(m, 1.3) @ x).max() <= 1e-6


@pytest.mark.parametrize("z", [-0.6, 1.0 + 0.5j, 0.5 + 0.8j])
def test_power_apply_without_eigen_data(z):
    from scipy.linalg import expm, logm
    h = OperatorHandle.dense(UPPER6)
    x = np.random.default_rng(10).normal(size=6) + 0j
    want = expm(z * logm(UPPER6)) @ x
    got = power_apply(h, z, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_contour_reach_on_a_spectrum_over_sixteen_decades():
    # spectrum [1e-8, 1e8], shifts four decades beyond it: certifies within
    # the radius-derived node cap (a fixed cap of 1024 nodes fell short)
    from scipy.linalg import fractional_matrix_power as fmp
    d = np.geomspace(1e-8, 1e8, 6)
    m = np.diag(d) + 0.4 * np.triu(np.random.default_rng(7).normal(size=(6, 6)), 1) \
        * np.sqrt(np.outer(d, d))
    lams = np.geomspace(1e-12, 1e12, 9)
    got = phi_apply(OperatorHandle.dense(m), 0.6, 0.6, lams, np.eye(6))
    for lam, block in zip(lams, got):
        want = fmp(m, 0.6) @ fmp(lam * np.eye(6) + m, -0.6)
        # rows of the block are the images of the basis vectors
        assert np.linalg.norm(block.T - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


# -------------------------------------------------------- frac resolvent ----

def test_frac_resolvent_scalar_identity():
    h = OperatorHandle.diagonal([1.0])
    y = frac_resolvent(h, 0.5, 1.0, np.array([1.0 + 0j]))
    assert abs(y[0] - 0.5) <= 1e-8


def test_frac_resolvent_diag():
    y = frac_resolvent(DIAG14, 0.5, 2.0, ONES2)
    assert np.abs(y - [1.0 / 3.0, 1.0 / 4.0]).max() <= 1e-8


def test_frac_resolvent_companion():
    y = frac_resolvent(DIAG14, 0.5, 2.0, ONES2, companion=True)
    assert np.abs(y - [1.0 / 3.0, 0.5]).max() <= 1e-8


def test_frac_resolvent_matches_powered_handle():
    rng = np.random.default_rng(4)
    h = _spd(rng, 8)
    x = rng.normal(size=8) + 0j
    alpha, lam = 0.7, 1.3
    got = frac_resolvent(h, alpha, lam, x)
    powered = OperatorHandle.frac_power(h, alpha)
    want = powered.resolvent(lam, x)
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)


@pytest.mark.parametrize("alpha", [0.9, 0.97, 0.99, 0.999, 0.9999])
def test_frac_resolvent_near_one_certifies_or_raises(alpha):
    eigs = np.geomspace(1e-2, 1e3, 32)
    h = OperatorHandle.diagonal(eigs)
    x = np.ones(32, dtype=complex)
    if alpha > 0.9995:
        with pytest.raises(QuadratureError, match="discretization"):
            frac_resolvent(h, alpha, 1.0, x)
        return
    want = x / (1.0 + eigs ** alpha)
    got = frac_resolvent(h, alpha, 1.0, x)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_frac_resolvent_range():
    with pytest.raises(ValueError):
        frac_resolvent(DIAG14, 1.2, 1.0, ONES2)


# --------------------------------------------------------------- semigroup ----

def test_semigroup_identity_and_values():
    assert np.allclose(semigroup_apply(DIAG14, 0.0, ONES2), ONES2)
    y = semigroup_apply(DIAG14, math.log(2.0), ONES2)
    assert np.abs(y - [0.5, 1.0 / 16.0]).max() <= 1e-14


def test_semigroup_property():
    rng = np.random.default_rng(5)
    t_op = OperatorHandle.torus_laplacian(8)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    for (s, t) in ((0.1, 0.2), (1.0, 2.5)):
        lhs = semigroup_apply(t_op, s, semigroup_apply(t_op, t, x))
        rhs = semigroup_apply(t_op, s + t, x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1e-30)


def test_semigroup_needs_spectral():
    h = OperatorHandle.dense([[1.0, 0.5], [0.0, 2.0]])
    with pytest.raises(SemigroupUnavailableError):
        semigroup_apply(h, 1.0, np.array([1.0, 1.0], dtype=complex))


def test_frac_power_via_semigroup_diag():
    y = frac_power_via_semigroup(DIAG14, 0.5, 1.0, ONES2)
    assert np.abs(y - [1.0, 2.0]).max() <= 1e-7


def test_frac_power_via_semigroup_scalar_normalization():
    h = OperatorHandle.diagonal([1.0])
    y = frac_power_via_semigroup(h, 0.3, 2.0, np.array([1.0 + 0j]))
    assert abs(y[0] - 1.0) <= 1e-8


def test_frac_power_via_semigroup_alpha_zero():
    y = frac_power_via_semigroup(DIAG14, 0.0, 1.0, ONES2)
    assert np.array_equal(y, ONES2)


# ----------------------------------------------------------- subordination ----

def test_subordinated_spectral_multipliers():
    y = subordinated_semigroup(DIAG14, 0.5, 1.0, ONES2)
    assert np.abs(y - [math.exp(-1.0), math.exp(-2.0)]).max() <= 1e-14


def test_subordination_kernel_closed_form():
    t, s = 1.0, 0.7
    want = t / (2.0 * math.sqrt(math.pi)) * s ** -1.5 * math.exp(-t * t / (4 * s))
    assert subordination_kernel(0.5, t, s) == pytest.approx(want, rel=1e-10)


def test_kernel_route_cross_check():
    h = OperatorHandle.diagonal([1.0])
    y = subordinated_semigroup_via_kernel(h, 0.5, 1.0, np.array([1.0 + 0j]))
    assert abs(y[0] - math.exp(-1.0)) <= 1e-4
    y2 = subordinated_semigroup_via_kernel(DIAG14, 0.3, 0.8, ONES2)
    want = subordinated_semigroup(DIAG14, 0.3, 0.8, ONES2)
    assert np.abs(y2 - want).max() <= 1e-4
    # alpha > 1/2, where cos(pi alpha) < 0; and a spectrum down to 1e-4,
    # where the kernel's slow s^{-alpha} tail reaches s ~ 1e6 and beyond
    small = OperatorHandle.diagonal([1e-4, 1e-2, 1.0])
    ones3 = np.ones(3, dtype=complex)
    for h, x, alpha, t in ((DIAG14, ONES2, 0.6, 0.8), (DIAG14, ONES2, 0.7, 0.3),
                           (DIAG14, ONES2, 0.9, 1.0), (small, ones3, 0.3, 1.0),
                           (small, ones3, 0.5, 1.0)):
        got = subordinated_semigroup_via_kernel(h, alpha, t, x)
        want = subordinated_semigroup(h, alpha, t, x)
        assert np.abs(got - want).max() <= 1e-8


def test_subordinated_small_time_limit():
    y = subordinated_semigroup(DIAG14, 0.5, 1e-6, ONES2)
    assert np.abs(y - ONES2).max() <= 1e-6 * 4.0


# ------------------------------------------------------------- ergodicity ----

def test_ergodic_kernel_range_split():
    h = OperatorHandle.diagonal([0.0, 1.0])
    lim = ergodic_limits(h, 1.0, ONES2)
    assert np.abs(lim.limit_at_zero - [1.0, 0.0]).max() <= 1e-6
    assert np.abs(lim.range_component - [0.0, 1.0]).max() <= 1e-6


def test_ergodic_injective_zero_limit():
    lim = ergodic_limits(DIAG14, 0.5, ONES2)
    assert np.abs(lim.limit_at_zero).max() <= 1e-6
    assert np.abs(lim.limit_at_infinity - ONES2).max() <= 1e-6
    assert lim.converged_at_infinity and lim.converged_at_zero


def test_kernel_identity_under_powers():
    h = OperatorHandle.diagonal([0.0, 2.0])
    e_ker = np.array([1.0, 0.0], dtype=complex)
    for a in (0.5, 1.3, 0.7 + 0.4j):
        assert np.linalg.norm(spectral_frac_power(h, a, e_ker)) == 0.0


# ----------------------------------------------------------- reproducing ----

def test_reproducing_residual_diag():
    assert reproducing_residual(DIAG14, 1.0, 1, 1.0, ONES2) <= 1e-8


def test_reproducing_residual_spd():
    rng = np.random.default_rng(6)
    h = _spd(rng, 8)
    x = rng.normal(size=8) + 0j
    assert reproducing_residual(h, 2.0, 3, 1.0, x) <= 1e-6


def test_reproducing_homogeneous_variant():
    rng = np.random.default_rng(7)
    h = _spd(rng, 8)
    x = rng.normal(size=8) + 0j
    assert reproducing_residual(h, 1.5, 2, 0.0, x) <= 1e-6


def test_reproducing_homogeneous_needs_injectivity():
    h = OperatorHandle.diagonal([0.0, 1.0])
    with pytest.raises(ValueError, match="injective"):
        reproducing_residual(h, 1.0, 1, 0.0, ONES2)


# ------------------------------------------------- uniform bounds / moment ----

def test_uniform_composition_bounds_hold_on_grid():
    from fracbesov.gammafn import composition_bound_constant
    rng = np.random.default_rng(8)
    m = np.diag([0.5, 1.5, 4.0]) + 0.3 * np.triu(rng.normal(size=(3, 3)), 1)
    h = OperatorHandle.dense(m)
    m_const, l_const = h.constants()
    a = 0.6
    c_bound = composition_bound_constant(a, 1)
    for lam in np.geomspace(1e-3, 1e3, 13):
        mat_m = np.stack([lam ** a * phi_apply(h, 0.0, a, lam, e)
                          for e in np.eye(3, dtype=complex)], axis=1)
        assert np.linalg.norm(mat_m, 2) <= c_bound * m_const * (1 + 1e-8)
        mat_l = np.stack([phi_apply(h, a, a, lam, e)
                          for e in np.eye(3, dtype=complex)], axis=1)
        assert np.linalg.norm(mat_l, 2) <= c_bound * l_const * (1 + 1e-8)


def test_moment_inequality_sample():
    from fracbesov.gammafn import moment_constant
    rng = np.random.default_rng(9)
    for _ in range(50):
        n_dim = int(rng.integers(2, 9))
        eigs = np.exp(rng.uniform(-2, 2, n_dim))
        h = OperatorHandle.diagonal(eigs)
        x = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
        n_w = int(rng.integers(1, 4))
        a = float(rng.uniform(0.1, n_w - 0.05))
        lhs = np.linalg.norm(spectral_frac_power(h, a, x))
        y = x.copy()
        for _ in range(n_w):
            y = h.apply(y)
        rhs = moment_constant(a, n_w, 1.0) * \
            np.linalg.norm(y) ** (a / n_w) * np.linalg.norm(x) ** (1 - a / n_w)
        assert lhs <= rhs * (1 + 1e-9)


# ------------------------------------------------------ eigen-coordinates ----

def _counted_spd(n=8):
    """An SPD handle whose eigen-transform pair counts its calls."""
    from fracbesov.operators import SpectralData
    q, _ = np.linalg.qr(np.random.default_rng(40).normal(size=(n, n)))
    calls = {"to": 0, "from": 0}

    def to(x):
        calls["to"] += 1
        return np.asarray(x, dtype=complex) @ q

    def fr(c):
        calls["from"] += 1
        return np.asarray(c, dtype=complex) @ q.T

    sd = SpectralData(np.geomspace(0.3, 30.0, n), to, fr)
    return OperatorHandle("dense", n, spectral=sd), calls


_X8 = np.random.default_rng(41).normal(size=8) + 0j
_BLOCK8 = np.random.default_rng(42).normal(size=(3, 8)) + 0j


@pytest.mark.parametrize("evaluate", [
    lambda h: frac_power(h, 0.6, _X8),
    lambda h: frac_power(h, 1.4, _BLOCK8),
    lambda h: frac_power_unified(h, 0.3, 0.5, 1.0, _X8),
    lambda h: frac_resolvent(h, 0.5, 2.0, _X8),
    lambda h: frac_resolvent(h, 0.5, 2.0, _X8, companion=True),
    lambda h: reproducing_residual(h, 0.7, 2, 0.0, _X8),
    lambda h: reproducing_residual(h, 0.7, 2, 1.3, _X8),
    lambda h: frac_power_via_semigroup(h, 0.4, 1.0, _X8),
    lambda h: subordinated_semigroup_via_kernel(h, 0.5, 0.3, _X8),
    lambda h: phi_apply(h, 0.6, 1.3, np.array([0.5, 2.0, 9.0]), _BLOCK8),
], ids=["frac_power", "frac_power_block", "unified", "resolvent", "resolvent_companion",
        "reproducing_full_line", "reproducing_cut", "via_semigroup", "subordinated_kernel",
        "phi_apply"])
def test_one_eigen_transform_each_way_per_evaluation(evaluate):
    h, calls = _counted_spd()
    evaluate(h)
    assert calls == {"to": 1, "from": 1}


def test_evaluators_on_the_counted_handle_match_the_spectral_oracle():
    h, _ = _counted_spd()
    want = spectral_frac_power(h, 0.6, _X8)
    assert np.linalg.norm(frac_power(h, 0.6, _X8) - want) <= 1e-8 * np.linalg.norm(want)
    want = spectral_frac_power(h, 0.3, _BLOCK8)
    got = frac_power_unified(h, 0.3, 0.5, 1.0, _BLOCK8)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
    for lam_cut in (0.0, 1.3):
        assert reproducing_residual(h, 0.7, 2, lam_cut, _X8) <= 1e-8


_EIGS = np.geomspace(1e-2, 1e3, 7)
_LAMS = np.geomspace(1e-3, 1e4, 9)


def _coeffs(shape):
    rng = np.random.default_rng(43)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _closed_form(eigs, pre, beta, g, coeff):
    lam = _LAMS.reshape((-1,) + (1,) * coeff.ndim)
    return lam ** pre * eigs ** beta * (lam + eigs) ** (-g) * coeff


@pytest.mark.parametrize("shape", [(7,), (3, 7)], ids=["vector", "block"])
@pytest.mark.parametrize("pre, beta, g", [(0.7, 0.4, 1.3), (-0.6, 2.0, 2.0), (1.3, 0.0, 0.5)])
def test_real_multiplier_rows_match_the_closed_form_and_the_complex_path(shape, pre, beta, g):
    from fracbesov.fractional import _log_multiplier_rows, _multiplier_rows
    coeff = _coeffs(shape)
    got = _log_multiplier_rows(_EIGS, _LAMS, pre, beta, g, coeff)
    want = _closed_form(_EIGS, pre, beta, g, coeff)
    assert got.shape == (len(_LAMS),) + shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    cpx = _multiplier_rows(_EIGS, _LAMS, complex(pre), complex(beta), complex(g), coeff)
    assert np.all(np.abs(got - cpx) <= 1e-14 * np.abs(cpx))
    # complex exponents with zero imaginary parts take the real path
    assert np.array_equal(_log_multiplier_rows(_EIGS, _LAMS, complex(pre), beta, g, coeff), got)
    # real exponents give real weights: a real coefficient vector stays real
    assert _log_multiplier_rows(_EIGS, _LAMS, pre, beta, g, coeff.real).dtype == np.float64
    assert _log_multiplier_rows(_EIGS, _LAMS, pre + 0.1j, beta, g, coeff.real).dtype == complex


@pytest.mark.parametrize("shape", [(5,), (2, 5)], ids=["vector", "block"])
@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real", "complex"])
def test_multiplier_rows_on_a_spectrum_with_zero(shape, imag):
    from fracbesov.fractional import _log_multiplier_rows
    eigs = np.array([0.0, 0.5, 0.0, 2.0, 7.0])
    pos = eigs > 0
    coeff = _coeffs(shape)
    lam = _LAMS.reshape((-1,) + (1,) * coeff.ndim)
    pre, g = 0.4 + imag * 1j, 1.1
    # beta = 0: the zero modes keep lam^{pre - gamma}
    got = _log_multiplier_rows(eigs, _LAMS, pre, 0.0, g, coeff)
    want = lam ** pre * (lam + eigs) ** (-g) * coeff
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    # Re beta > 0: the zero modes contribute nothing
    beta = 0.8 + imag * 1j
    got = _log_multiplier_rows(eigs, _LAMS, pre, beta, g, coeff)
    assert np.all(got[..., ~pos] == 0)
    want = lam ** pre * eigs[pos] ** beta * (lam + eigs[pos]) ** (-g) * coeff[..., pos]
    assert np.all(np.abs(got[..., pos] - want) <= 1e-14 * np.abs(want))
    # any other beta has no value at mu = 0
    for beta in (-0.5, -0.5 + imag * 1j, 1j):
        with pytest.raises(ValueError, match="zero eigenvalue"):
            _log_multiplier_rows(eigs, _LAMS, pre, beta, g, coeff)
