"""Gamma evaluator against a frozen high-precision reference table."""

import math

import pytest

from fracbesov.gammafn import (
    balakrishnan_prefactor,
    composition_bound_constant,
    gamma,
    moment_constant,
    reciprocal_beta_prefactor,
    unified_prefactor,
)

# mpmath.gamma at 40 digits, arguments spanning [0.1, 10] x [-10, 10]i, plus
# real ones next to the integers, where the Balakrishnan prefactor of
# ``power`` evaluates Gamma(a) and Gamma(n - a), and one below zero
GAMMA_TABLE = [
    ((0.1, 0.0), (9.51350769866873184, 0.0)),
    ((0.5, 0.0), (1.77245385090551603, 0.0)),
    ((1.0, 0.0), (1.0, 0.0)),
    ((2.5, 0.0), (1.32934038817913702, 0.0)),
    ((7.3, 0.0), (1271.42363366390927, 0.0)),
    ((10.0, 0.0), (362880.0, 0.0)),
    ((0.1, -10.0), (1.4815875493685427e-7, 2.58404473223471095e-8)),
    ((0.5, 0.5), (0.818163999541747394, -0.763313828713982617)),
    ((1.5, -2.25), (0.0986827185779808889, -0.136682918299336817)),
    ((3.0, 4.0), (0.00522553847136921419, -0.172547079294300188)),
    ((6.5, -9.5), (0.676337610340202799, -0.547167415428956254)),
    ((9.9, 9.9), (137.83068106537175, -3147.5094521402621)),
    ((0.25, 1.0), (0.0991497587634533544, -0.516617743792885287)),
    ((2.0, -0.001), (0.999999588159743823, -0.000422784253521547625)),
    ((0.05, 0.0), (19.4700853112555118, 0.0)),
    ((0.95, 0.0), (1.03145331712903223, 0.0)),
    ((1.05, 0.0), (0.973504265562775622, 0.0)),
    ((2.95, 0.0), (1.91076726998153245, 0.0)),
    ((3.95, 0.0), (5.63676344644552107, 0.0)),
    ((-2.5, 0.0), (-0.945308720482941881, 0.0)),
]


@pytest.mark.parametrize("z, want", GAMMA_TABLE)
def test_reference_table(z, want):
    got = gamma(complex(*z))
    assert abs(got / complex(*want) - 1.0) <= 1e-12


def test_integer_factorials():
    # exact at the positive integers up to 23, as the docstring claims
    for n in range(1, 24):
        assert gamma(n) == math.factorial(n - 1)


def test_reflection_region():
    # Re z < 1/2 goes through the reflection formula
    got = gamma(-0.5)
    assert got == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


def test_pole_raises():
    with pytest.raises(ZeroDivisionError):
        gamma(0.0)
    with pytest.raises(ZeroDivisionError):
        gamma(-3.0)


def test_functional_equation():
    for z in (0.3 + 0.7j, 2.2 - 1.1j, 5.0 + 5.0j):
        assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1e-12)


def test_prefactors_consistency():
    a = 0.5
    # Gamma(n)/(Gamma(a) Gamma(n-a)) at n=1, a=1/2 is 1/pi
    assert balakrishnan_prefactor(a, 1) == pytest.approx(1.0 / math.pi, rel=1e-13)
    # 1/(Gamma(a) Gamma(1-a)) = sin(pi a)/pi
    for a in (0.25, 0.5, 0.75):
        assert reciprocal_beta_prefactor(a) == pytest.approx(
            math.sin(math.pi * a) / math.pi, rel=1e-13)
    # the unified prefactor degenerates to the one-parameter one at z = a
    assert unified_prefactor(0.3, 0.0, 1.0) == pytest.approx(
        balakrishnan_prefactor(0.3, 1), rel=1e-13)


def test_composition_constant_real_is_one():
    # for real exponents the constant collapses to 1
    for a, n in ((0.5, 1), (1.3, 2), (2.7, 3)):
        assert composition_bound_constant(a, n) == pytest.approx(1.0, rel=1e-13)
    # complex exponents give >= 1
    assert composition_bound_constant(0.5 + 0.5j, 1) > 1.0


def test_composition_constant_requires_witness():
    with pytest.raises(ValueError):
        composition_bound_constant(1.5, 1)


def test_moment_constant_positive():
    c = moment_constant(0.5, 1, 1.0)
    # Gamma(2)/|Gamma(.5)Gamma(.5)| * 1 * 2^{0.5} / 0.25
    want = 1.0 / math.pi * math.sqrt(2.0) / 0.25
    assert c == pytest.approx(want, rel=1e-12)
